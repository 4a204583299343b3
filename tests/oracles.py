"""Slow reference constructions the tests compare the library against.

* :func:`complete_bell` / :func:`complete_bell_sequence` -- the complete Bell
  polynomials by their recurrence, independent of the closed form that
  ``families.bell_form`` uses;
* :func:`substituted_in_variables` -- a form in the power sums taken to
  x_1..x_m by substituting p_k -> p_k(x_1..x_m), against which the monomial
  basis kernel ``symmfunc.in_variables`` is checked;
* :func:`untruncated_residue` -- the closed-form y = 1 residue in the power
  sums with F(t) expanded in every power of t, against which the
  weight-truncated ``relations._y_one_residue`` is checked, with its own
  Newton recursion for p_r, e_i and h_d in p_1..p_m (:func:`power_sum_in`,
  :func:`elementary_in`, :func:`complete_homogeneous_in`), read off in the
  power-sum basis by :func:`read_power_sums`;
* :func:`x_variable_residue` -- the closed-form y = 1 residue computed in the
  x variables, (-1)^m sum_{e >= m} [t^e]F(t) h_{e-m}(x), and converted with
  ``to_power_sum_basis``, which checks symmetry and homogeneity on the way;
* :func:`lcd_frame`, :func:`lcd_numerator` and :func:`lcd_residue` -- U_n
  over its least common denominator pi(x) W, W = prod_{i<j} w_ij: the rows,
  W and the cofactors c_i = (-1)^(i-1) pi(x) W / pi(s_i), the numerator
  S(x) W - sum_i (-1)^(i-1) y_i^e S(s_i) c_i formed one product at a time,
  and at y = 1 that numerator divided by pi(x) and each w_ij and converted
  with ``to_power_sum_basis``, against which the closed-form residue, the
  orbit-representative certificate and ``u_function`` are checked;
* :func:`u_at_point` -- U_n = S(x)/pi(x) - sum_i y_i^(m-n-1) S(s_i)/pi(s_i)
  from its definition at a rational point, S evaluated on the
  ``build_s_matrix`` rows there, against which every zero-relation verdict
  the CLI can build and the reference route ``u_function`` are checked;
* :func:`sequential_ratfunc_combine` -- fractions combined over the product
  of their denominators one product at a time, against which the running
  prefix and suffix products of ``relations.u_function`` are checked;
* :func:`x_monomial_basis` -- a symmetric polynomial in x written in the
  power-sum-product basis by the system on every x-monomial, each basis
  product expanded by :func:`substituted_in_variables` and the system solved
  by :func:`gauss_jordan`, against which ``symmfunc.to_power_sum_basis``,
  which solves on the monomial symmetric functions, is checked, its
  exceptions and their messages included;
* :func:`power_sums_of` and :func:`scaled` -- a source instantiated on any
  component vector by substituting the power sums of the components, the
  row s_1 at y = 1 included, against which the monomial-basis route of
  ``relations._certificate`` is checked;
* :func:`alternate` -- the full signed sum over S_m, and
  :func:`orbit_residual` -- its coefficients on sorted orbit
  representatives, term by term through :func:`sorted_alternant`, which
  sorts each term's exponent pairs and counts the sort's parity;
* :func:`orbit_image` with :func:`row_terms`, :func:`y_one_terms` and
  :func:`staircase_terms` -- the orbit residual of H for S = m_mu, each
  ordering of mu expanded term by term through :func:`sorted_alternant`,
  against which the int-key images of ``relations._certificate`` are
  checked, read back by :func:`decoded`;
* :func:`alternant_term`, :func:`certified_term` and
  :func:`orbit_certificate` -- the polynomial H
  whose alternant is the numerator of U_n (minus that of the residue G),
  formed with the staircase monomial multiplied in one product at a time
  and S(s_1) by substitution, and its term count and orbit residual,
  against which ``relations._certificate``, which forms neither H nor
  S(s_1), is checked;
* :func:`euler_poly_at_zero` -- E_n(0) from the Bernoulli numbers by DLMF
  §24.4, a cross-check of the Euler stream in ``families``;
* :func:`series_mul`, :func:`series_inverse` and :func:`series_exp` --
  truncated power series as coefficient lists, for generating-function checks;
* :func:`gauss_jordan` -- exact ``Fraction`` Gauss-Jordan elimination,
  against which the certified multimodular kernel
  ``symmfunc._certified_rref`` is checked, and with it the C system;
* :func:`format_rational` and :func:`format_terms` -- the text of a scalar
  and of a sum of terms, each coefficient taken through ``Fraction``,
  against which ``polyring``'s formatters, which read an int's or a
  Fraction's numerator and denominator as they stand, are checked.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, prod
from typing import NamedTuple, Sequence

from symmrel.exactnum import bernoulli_numbers
from symmrel.partitions import exponent_vectors
from symmrel.polyring import KIND_A, KIND_P, KIND_X, KIND_Y, MultiPoly, VarId
from symmrel.relations import _symbolic_rows, build_s_matrix
from symmrel.symmfunc import (
    NotHomogeneousError,
    NotRepresentableError,
    NotSymmetricError,
    PowerSumExpansion,
    _normalize_coefficient,
    _orderings,
    power_sum,
    to_power_sum_basis,
)


def complete_bell(n: int, b: Sequence):
    """The n-th complete Bell polynomial evaluated at b_1..b_n.

    Works over any commutative ring: b entries may be Fractions or
    MultiPoly.  Defined by the recurrence
    B_{n+1} = sum_j C(n, j) * B_{n-j} * b_{j+1} with B_0 = 1.
    """
    return complete_bell_sequence(n, b)[n]


def complete_bell_sequence(n: int, b: Sequence) -> list:
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(b) < n:
        raise ValueError(f"need {n} ring elements, got {len(b)}")
    seq = [1]
    for step in range(n):
        acc = None
        for j in range(step + 1):
            term = comb(step, j) * seq[step - j] * b[j]
            acc = term if acc is None else acc + term
        seq.append(acc)
    return seq


def bell_family_polynomial(a: Sequence, scale, n: int, m: int) -> MultiPoly:
    """scale * B_n(a_1 p_1(x), ..., a_n p_n(x)) by the recurrence, in x_1..x_m."""
    value = scale * complete_bell(n, [a[k - 1] * power_sum(k, m) for k in range(1, n + 1)])
    return value if isinstance(value, MultiPoly) else MultiPoly.constant(value)


def substituted_in_variables(form: MultiPoly, m: int) -> MultiPoly:
    """``form``, a polynomial in the p_k over Q[a], with each p_k ->
    p_k(x_1..x_m) substituted into its integral multiple and divided once."""
    integral, denominator = form.integral_form()
    sums = {v: power_sum(v.index, m) for v in form.variables() if v.kind == KIND_P}
    return integral.substitute(sums) / denominator


def x_monomial_basis(poly: MultiPoly, m: int, max_part: int, weight=None) -> PowerSumExpansion:
    """``poly``, symmetric and homogeneous in x_1..x_m over Q[a], in the
    products p^k with parts <= max_part: one equation per x-monomial of
    ``poly`` or of a product, each product expanded by
    :func:`substituted_in_variables`, and ``poly``'s coefficients, in the
    a_k, as the right-hand side of :func:`gauss_jordan`.  It raises what
    ``to_power_sum_basis`` raises, in the same order and with the same
    messages."""
    if m < 1:
        raise ValueError("need at least one variable")
    if poly.is_zero():
        if weight is None:
            raise ValueError("the zero polynomial needs an explicit weight")
        keys = exponent_vectors(weight, max_part)
        return PowerSumExpansion(weight, m, {k: Fraction(0) for k in keys})
    degrees = {sum(e for v, e in mono if v.kind == KIND_X) for mono in poly.terms}
    if len(degrees) > 1:
        raise NotHomogeneousError("polynomial is not homogeneous in the x variables")
    degree = degrees.pop()
    if weight is not None and weight != degree:
        raise NotHomogeneousError(f"stated weight {weight} does not match degree {degree}")
    for image in permutations(range(1, m + 1)):
        moved = {VarId(KIND_X, j): VarId(KIND_X, i) for j, i in enumerate(image, 1)}
        renamed = MultiPoly(
            (tuple((moved.get(v, v), e) for v, e in mono), c) for mono, c in poly.terms.items()
        )
        if renamed != poly:
            raise NotSymmetricError(f"polynomial is not symmetric in x_1..x_{m}")
    keys, one = exponent_vectors(degree, max_part), MultiPoly.one()
    products = [
        substituted_in_variables(prod((MultiPoly.p(i) ** e for i, e in enumerate(k, 1)), start=one), m)
        for k in keys
    ]
    rhs: dict = {}  # x-monomial -> {monomial in the a_k: coefficient}
    for mono, coeff in poly.terms.items():
        for var, _ in mono:
            if var.kind not in (KIND_X, KIND_A):
                raise ValueError(
                    f"basis conversion got variable {var!r}; it takes the x_i and the a_k alone"
                )
        x_part = tuple((v, e) for v, e in mono if v.kind == KIND_X)
        rhs.setdefault(x_part, {})[tuple((v, e) for v, e in mono if v.kind == KIND_A)] = coeff
    monomials = sorted(set(rhs).union(*(product.terms for product in products)))
    matrix = [[product.terms.get(mono, 0) for product in products] for mono in monomials]
    targets = [MultiPoly(rhs.get(mono, {})) for mono in monomials]
    pivots, _, values = gauss_jordan(matrix, range(len(keys)), targets)
    if len(pivots) < len(keys):
        raise NotRepresentableError("basis is not independent: underdetermined column")
    if any(not values[r].is_zero() for r in range(len(monomials)) if r not in pivots.values()):
        raise NotRepresentableError("polynomial is outside the span of the requested basis")
    return PowerSumExpansion(
        degree, m, {k: _normalize_coefficient(values[pivots[col]]) for col, k in enumerate(keys)}
    )


def power_sums_of(values: Sequence, up_to: int) -> list:
    """Power sums p_1..p_up_to of an explicit component vector, p_1 first.

    Components may be MultiPoly (rows of a substitution matrix) or exact
    rationals.
    """
    if up_to < 1:
        return []
    powers = list(values)
    sums = [sum(powers[1:], powers[0])]
    for _ in range(2, up_to + 1):
        powers = [p * v for p, v in zip(powers, values)]
        sums.append(sum(powers[1:], powers[0]))
    return sums


def _top_power_sum(source) -> int:
    """The largest k of a power sum p_k in the source, 0 if it has none."""
    return max((v.index for v in source.poly.variables() if v.kind == KIND_P), default=0)


def scaled(source, comps: Sequence) -> MultiPoly:
    """The source's denominator times the source at the MultiPoly components
    ``comps`` (substitution-matrix rows), integral for integral data: each
    p_k becomes the k-th power sum of the components, each x_j the j-th
    component."""
    point = {VarId(KIND_X, j): c for j, c in enumerate(comps, 1)}
    point.update({VarId(KIND_P, k): s for k, s in enumerate(power_sums_of(comps, _top_power_sum(source)), 1)})
    return source.poly.substitute(point)


def untruncated_residue(source, m: int):
    """U_n at y = 1 for a relations source held in the power sums, with F(t)
    formed in full before the parts the closed form keeps are picked out.

    F(t) is the source with p_k -> p_k(t, x_1 - t, ..., x_m - t) =
    t^k + sum_{r <= k} C(k, r) (-t)^(k-r) p_r (p_0 = m, each p_r written in
    p_1..p_m), y_1 standing in for t, so it leads every monomial it is in
    (y < a < p).  The [t^e]F with e >= m are kept and multiplied by h_(e-m).
    """
    t_var = VarId(KIND_Y, 1)
    t = MultiPoly.variable(t_var)
    top = _top_power_sum(source)
    p = [MultiPoly.constant(m)] + [power_sum_in(r, m) for r in range(1, top + 1)]
    shifted = {
        VarId(KIND_P, k): sum((comb(k, r) * (-t) ** (k - r) * p[r] for r in range(k + 1)), t**k)
        for k in range(1, top + 1)
    }
    by_power: dict = {}
    for mono, coeff in source.poly.substitute(shifted).terms.items():
        e = mono[0][1] if mono and mono[0][0] == t_var else 0
        if e >= m:
            by_power.setdefault(e, {})[mono[1:]] = coeff
    residue = sum(
        (MultiPoly(terms) * complete_homogeneous_in(e - m, m) for e, terms in by_power.items()),
        MultiPoly.zero(),
    )
    return read_power_sums(residue * Fraction((-1) ** m, source.denominator), m, source.n - m)


def read_power_sums(poly: MultiPoly, m: int, weight: int) -> PowerSumExpansion:
    """The expansion of poly, a polynomial in p_1..p_m and the a_i of weight
    ``weight``, over every key of that weight with parts <= m.
    """
    keys = exponent_vectors(weight, m)
    allowed = set(keys)
    buckets: dict = {}
    for mono, coeff in poly.terms.items():
        parts = {var.index: exp for var, exp in mono if var.kind == KIND_P}
        key = tuple(parts.get(i, 0) for i in range(1, weight + 1))
        if key not in allowed or any(i > weight for i in parts):
            raise NotRepresentableError(f"a term is not a weight-{weight} key with parts <= {m}")
        buckets.setdefault(key, {})[tuple((v, e) for v, e in mono if v.kind != KIND_P)] = coeff
    return PowerSumExpansion(
        weight, m, {key: _normalize_coefficient(MultiPoly(buckets.get(key, {}))) for key in keys}
    )


@lru_cache(maxsize=None)
def elementary_in(i: int, m: int) -> MultiPoly:
    """e_i in p_1..p_m for i <= m, from i * e_i = sum_{j <= i} (-1)^(j-1) p_j e_(i-j)."""
    if i == 0:
        return MultiPoly.one()
    terms = (
        (-1) ** (j - 1) * power_sum_in(j, m) * elementary_in(i - j, m) for j in range(1, i + 1)
    )
    return sum(terms, MultiPoly.zero()) / i


@lru_cache(maxsize=None)
def power_sum_in(r: int, m: int) -> MultiPoly:
    """p_r of m variables in p_1..p_m (r >= 1): for r > m, Newton's identity
    with e_i = 0 for i > m gives p_r = sum_{i <= m} (-1)^(i-1) e_i p_(r-i)."""
    if r <= m:
        return MultiPoly.p(r)
    terms = (
        (-1) ** (i - 1) * elementary_in(i, m) * power_sum_in(r - i, m) for i in range(1, m + 1)
    )
    return sum(terms, MultiPoly.zero())


@lru_cache(maxsize=None)
def complete_homogeneous_in(d: int, m: int) -> MultiPoly:
    """h_d of m variables in p_1..p_m, from d * h_d = sum_{i <= d} p_i h_(d-i)."""
    if d == 0:
        return MultiPoly.one()
    terms = (power_sum_in(i, m) * complete_homogeneous_in(d - i, m) for i in range(1, d + 1))
    return sum(terms, MultiPoly.zero()) / d


def x_variable_residue(source, m: int):
    """U_n at y = 1 for a relations source, built in x_1..x_m.

    F(t) = S(t, x_1 - t, ..., x_m - t) comes from the source's integral form
    on that vector, with y_1 standing in for t.
    """
    t_var = VarId(KIND_Y, 1)
    t = MultiPoly.variable(t_var)
    comps = [t] + [MultiPoly.x(i) - t for i in range(1, m + 1)]
    by_power: dict = {}
    for mono, coeff in scaled(source, comps).terms.items():
        e = dict(mono).get(t_var, 0)
        if e >= m:
            by_power.setdefault(e, {})[tuple(f for f in mono if f[0] != t_var)] = coeff
    residue = sum(
        (MultiPoly(terms) * complete_homogeneous(e - m, m) for e, terms in by_power.items()),
        MultiPoly.zero(),
    )
    residue = (-residue if m % 2 else residue) / source.denominator
    return to_power_sum_basis(residue, m, max_part=m, weight=source.n - m)


@lru_cache(maxsize=None)
def complete_homogeneous(d: int, m: int) -> MultiPoly:
    """h_d(x_1..x_m), from Newton's identity d * h_d = sum_{i <= d} p_i * h_{d-i}."""
    if d == 0:
        return MultiPoly.one()
    terms = (power_sum(i, m) * complete_homogeneous(d - i, m) for i in range(1, d + 1))
    return sum(terms, MultiPoly.zero()) / d


class LcdFrame(NamedTuple):
    """The substitution matrix on polynomial components, and the pieces of pi(x) * W."""

    xs: tuple
    ys: tuple
    rows: tuple  # s_i, each a tuple of m entries
    pi_x: MultiPoly  # x_1 * ... * x_m
    pair_product: MultiPoly  # W, the product of the pair factors w_ij, i < j
    cofactors: tuple  # c_i = (-1)^(i-1) * pi(x) * W / pi(s_i)
    pairs: tuple  # the w_ij = s_ij, i < j, in row order


@lru_cache(maxsize=None)
def lcd_frame(m: int, y_one: bool) -> LcdFrame:
    """The frame in x_1..x_m and y_1..y_m, or at y = 1.

    w_ij = s_ij (i < j) is read off the rows.  As s_ji = -w_ij, c_i is the
    product of the other x_j and of the pair factors not involving i.
    """
    xs, ys, rows = _symbolic_rows(m, y_one)
    one = MultiPoly.one()
    pairs = {(i, j): rows[i][j] for i in range(m) for j in range(i + 1, m)}
    cofactors = tuple(
        prod([x for j, x in enumerate(xs) if j != i], start=one)
        * prod([w for ij, w in pairs.items() if i not in ij], start=one)
        for i in range(m)
    )
    return LcdFrame(
        xs, ys, rows, prod(xs, start=one), prod(pairs.values(), start=one), cofactors,
        tuple(pairs.values()),
    )


def lcd_numerator(source, frame: LcdFrame, exponent: int) -> MultiPoly:
    """S(x) * W - sum_i (-1)^(i-1) * y_i^exponent * S(s_i) * c_i, one product at a time."""
    total = scaled(source, frame.xs) * frame.pair_product
    for i, (row, cofactor) in enumerate(zip(frame.rows, frame.cofactors)):
        term = scaled(source, row) * cofactor
        if exponent:
            term = term * frame.ys[i] ** exponent
        total = total - term if i % 2 == 0 else total + term
    return total / source.denominator


def lcd_residue(source, m: int):
    """U_n at y = 1 by expansion over pi(x) * W, exact division by pi(x) and
    then by each w_ij, and a basis solve with parts <= m.

    Raises NonDivisibleError, NotSymmetricError or NotHomogeneousError when
    U_n is no symmetric polynomial of degree n - m.
    """
    frame = lcd_frame(m, True)
    quotient = lcd_numerator(source, frame, 0)
    for divisor in (frame.pi_x, *frame.pairs):
        quotient = quotient.exact_divide(divisor)
    return to_power_sum_basis(quotient, m, max_part=m, weight=source.n - m)


def u_at_point(poly: MultiPoly, n: int, m: int, xs: Sequence, ys: Sequence, a_values) -> Fraction:
    """U_n = S(x)/pi(x) - sum_i y_i^(m-n-1) * S(s_i)/pi(s_i) at x = xs, y = ys.

    S is ``poly``, a MultiPoly in x_1..x_m and the a_k, with a_k =
    ``a_values[k]``; each s_i is the ``build_s_matrix`` row evaluated at the
    point, and pi(v) is the product of the components of v.  A point where
    some pi(s_i) vanishes raises ZeroDivisionError.
    """
    point = {VarId(KIND_X, j): Fraction(v) for j, v in enumerate(xs, 1)}
    point.update({VarId(KIND_Y, j): Fraction(v) for j, v in enumerate(ys, 1)})
    a_point = {VarId(KIND_A, k): v for k, v in a_values.items()}

    def v_at(components):
        assignment = {VarId(KIND_X, j): c for j, c in enumerate(components, 1)}
        return poly.evaluate({**a_point, **assignment}) / prod(components)

    value = v_at(xs)
    for y, row in zip(ys, build_s_matrix(m)):
        value -= Fraction(y) ** (m - n - 1) * v_at([entry.evaluate(point) for entry in row])
    return value


def sequential_ratfunc_combine(parts: Sequence) -> tuple:
    """(numerator, denominator): sum(c_i * n_i / d_i) over the product of all
    denominators, for ``parts`` of the form (c_i, (n_i, d_i)), each numerator
    multiplied by every other denominator in turn.  The sign is not
    normalized."""
    denominators = [den for _, (_, den) in parts]
    numerator = MultiPoly.zero()
    for i, (coeff, (num, _)) in enumerate(parts):
        term = MultiPoly.constant(coeff) if isinstance(coeff, (int, Fraction)) else coeff
        term = term * num
        for j, den in enumerate(denominators):
            if j != i:
                term = term * den
        numerator = numerator + term
    return numerator, prod(denominators, start=MultiPoly.one())


def orbit_residual(poly: MultiPoly, m: int) -> dict:
    """The coefficients of Alt(poly) on sorted orbit representatives, each
    term sent through :func:`sorted_alternant` with its exponent pairs
    (deg x_j, deg y_j), j = 1..m.  Alt(poly) = 0 exactly when every key's
    signed sum is 0, which leaves the result empty."""
    residual: dict = {}
    for mono, coeff in poly.terms.items():
        x_exps = [0] * m
        y_exps = [0] * m
        rest = ()  # x and y lead every monomial (x < y < a < p)
        for pos, (var, e) in enumerate(mono):
            if var.kind == KIND_X:
                x_exps[var.index - 1] += e
            elif var.kind == KIND_Y:
                y_exps[var.index - 1] += e
            else:
                rest = mono[pos:]
                break
        sorted_alternant(residual, list(zip(x_exps, y_exps)), rest, coeff)
    return {key: c for key, c in residual.items() if c}


def sorted_alternant(residual: dict, pairs: list, rest: tuple, coeff) -> None:
    """Add Alt of one term to ``residual``: nothing when two of its exponent
    ``pairs`` are equal, and otherwise sgn(g) * coeff on the key of its pairs
    in descending order and ``rest``, the rest of its monomial, g the sort:
    the term is g(t') for the term t' with sorted pairs, and alternates to
    sgn(g) * Alt(t')."""
    m = len(pairs)
    if len(set(pairs)) < m:
        return
    order = sorted(range(m), key=pairs.__getitem__, reverse=True)
    key = (tuple([pairs[i] for i in order]), rest)
    # The sort's parity: each swap puts one more position in place.
    odd = False
    for i in range(m):
        while order[i] != i:
            k = order[i]
            order[i] = order[k]
            order[k] = k
            odd = not odd
    residual[key] = residual.get(key, 0) + (-coeff if odd else coeff)


def orbit_image(mu: tuple, m: int, terms) -> dict:
    """The orbit residual of H for S = m_mu, {sorted pairs: coefficient},
    from the terms x^b of m_mu, b the orderings of mu, each sent through
    ``terms``: :func:`row_terms` at general y, :func:`y_one_terms` at
    y = 1, :func:`staircase_terms` for the G term."""
    part: dict = {}
    for b in _orderings(mu):
        terms(part, b, 1, m)
    return {pairs: c for (pairs, _), c in part.items() if c}


def row_terms(part: dict, b: Sequence, coeff, m: int) -> None:
    """Add to the orbit residual ``part`` the terms of H made from one term
    coeff * x^b of S(x), b the exponents of x_1..x_m: y_1^n times the term
    itself, and the terms of S(s_1) it gives by the binomial theorem, each
    sent through :func:`sorted_alternant` as it is made."""
    b_1 = b[0]
    pairs = [(b_1, m - 1)] + [(b[j] + j, m - 1 - j) for j in range(1, m)]
    if b_1:
        sorted_alternant(part, pairs, (), coeff)
    # Only the x_j y_j with b_j > 0 have a choice of r_j.  Their pairs sum to
    # more than m - 1 and the others to m - 1, so a repeated pair among them
    # alternates to 0 whatever the other r_j: such a choice is dropped at once.
    moving = [j for j in range(1, m) if b[j]]
    partial = [((), 0, -coeff)]  # (their pairs so far, R so far, coefficient)
    for j in moving:
        e = b[j]
        choices = [((e - r + j, r + m - 1 - j), r, (-1) ** r * comb(e, r)) for r in range(e + 1)]
        partial = [
            (tail + (pair,), shift + r, c * f)
            for tail, shift, c in partial
            for pair, r, f in choices
            if pair not in tail
        ]
    for tail, shift, c in partial:
        if shift or b_1:
            pairs[0] = (b_1 + shift, m - 1 - b_1 - shift)
            for j, pair in zip(moving, tail):
                pairs[j] = pair
            sorted_alternant(part, pairs, (), c)


def y_one_terms(part: dict, b: Sequence, coeff, m: int) -> None:
    """Add to the orbit residual ``part`` the terms of M * coeff * (x^b -
    x^b(s_1)) at y = 1, s_1 = (x_1, x_2 - x_1, ..., x_m - x_1).  By the
    binomial theorem x^b(s_1) is the sum over 0 <= r_j <= b_j of
    prod_{j>=2} C(b_j, r_j) (-1)^r_j x_1^(b_1 + R) x_j^(b_j - r_j),
    R = sum r_j, and its r = 0 term is x^b, which cancels.  Each term, M's
    exponent j - 1 added to that of x_j, is sent through
    :func:`sorted_alternant` with the pairs (deg x_j, 0) as it is made."""
    b_1 = b[0]
    exponents = [b_1] + list(range(1, m))
    # Only the x_j with b_j > 0 have a choice of r_j.  A choice that repeats
    # an exponent, one of theirs or the j - 1 of an x_j with b_j = 0,
    # alternates to 0 whatever the other r_j, so it is dropped at once.
    moving = [j for j in range(1, m) if b[j]]
    fixed = set(range(1, m)).difference(moving)
    partial = [((), 0, -coeff)]  # (their exponents so far, R so far, coefficient)
    for j in moving:
        e = b[j]
        choices = [(e - r + j, r, (-1) ** r * comb(e, r)) for r in range(e + 1) if e - r + j not in fixed]
        partial = [
            (tail + (x,), shift + r, c * f)
            for tail, shift, c in partial
            for x, r, f in choices
            if x not in tail
        ]
    for tail, shift, c in partial:
        if shift:
            exponents[0] = b_1 + shift
            for j, x in zip(moving, tail):
                exponents[j] = x
            sorted_alternant(part, [(x, 0) for x in exponents], (), c)


def staircase_terms(part: dict, b: Sequence, coeff, m: int) -> None:
    """Add to the orbit residual ``part`` the term M * coeff * x^b at y = 1,
    M's exponent j - 1 added to that of x_j."""
    sorted_alternant(part, [(v + j, 0) for j, v in enumerate(b)], (), coeff)


def decoded(residual: dict, width: int) -> dict:
    """A residual keyed by int keys, or by (int key, rest), rekeyed by the
    sorted exponent pairs they stand for: bit x * width + y of a key is the
    pair (x, y), and the pairs run from the highest bit down."""

    def pairs(key: int) -> tuple:
        return tuple(divmod(i, width) for i in range(key.bit_length() - 1, -1, -1) if key >> i & 1)

    return {
        (pairs(key[0]), key[1]) if isinstance(key, tuple) else pairs(key): c
        for key, c in residual.items()
    }


def alternate(poly: MultiPoly, m: int) -> MultiPoly:
    """Alt(poly) = sum over g in S_m of sgn(g) * g(poly), where g sends x_j to
    x_g(j) and y_j to y_g(j) together and leaves every other variable alone."""
    total: dict = {}
    for perm in permutations(range(1, m + 1)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        moves = {
            VarId(kind, j): VarId(kind, g)
            for kind in (KIND_X, KIND_Y)
            for j, g in enumerate(perm, 1)
        }
        for mono, coeff in poly.terms.items():
            moved = tuple(sorted((moves.get(v, v), e) for v, e in mono))
            total[moved] = total.get(moved, 0) + sign * coeff
    return MultiPoly({mono: c for mono, c in total.items() if c})


def alternant_term(source, m: int, y_one: bool, exponent: int) -> MultiPoly:
    """H = M * (y_1^(m-1) * S(x) - y_1^exponent * S(s_1)), times the source's
    denominator, with M = prod_{j >= 2} x_j^(j-1) y_j^(m-j), each monomial
    multiplied in by its own product.

    For a symmetric source, Alt(H) is the denominator times the numerator
    pi(x) * W * U_n with the weights y_i^exponent.
    """
    xs, ys, rows = _symbolic_rows(m, y_one)
    staircase = prod(
        (xs[j] ** j * ys[j] ** (m - 1 - j) for j in range(1, m)), start=MultiPoly.one()
    )
    return (
        staircase * ys[0] ** (m - 1) * scaled(source, xs)
        - staircase * ys[0] ** exponent * scaled(source, rows[0])
    )


def certified_term(source, m: int, residue) -> MultiPoly:
    """H formed in full: the alternant term at general y with
    e = m - n - 1 when ``residue`` is None, and otherwise the one at y = 1
    minus M * pi(x) * G, G the residue times the source's denominator."""
    if residue is None:
        return alternant_term(source, m, False, m - source.n - 1)
    xs = _symbolic_rows(m, True)[0]
    weight = prod((x ** (j + 1) for j, x in enumerate(xs)), start=MultiPoly.one())
    return alternant_term(source, m, True, 0) - weight * residue.to_polynomial() * source.denominator


def orbit_certificate(source, m: int, residue) -> tuple:
    """(len(H), orbit_residual(H, m)) for H = ``certified_term``."""
    poly = certified_term(source, m, residue)
    return len(poly), orbit_residual(poly, m)


def euler_poly_at_zero(n_max: int) -> list:
    """E_0(0)..E_n_max(0), from E_n(0) = 2 (1 - 2^(n+1)) B_(n+1) / (n+1) (DLMF §24.4).

    These are the coefficients of ``2 / (exp(t) + 1) = sum E_n(0) t^n / n!``.
    """
    b = bernoulli_numbers(n_max + 1)
    return [2 * (1 - 2 ** (k + 1)) * b[k + 1] / (k + 1) for k in range(n_max + 1)]


def series_mul(a: Sequence, b: Sequence) -> list:
    """Cauchy product of two coefficient lists, truncated to the shorter one."""
    return [
        sum((a[i] * b[k - i] for i in range(1, k + 1)), a[0] * b[k])
        for k in range(min(len(a), len(b)))
    ]


def series_inverse(a: Sequence) -> list:
    """1 / a, for a constant term that is a nonzero rational or constant MultiPoly."""
    c0 = a[0]
    if isinstance(c0, MultiPoly):
        if c0 != c0.constant_term():
            raise ValueError("constant term is not a scalar")
        c0 = c0.constant_term()
    inv0 = 1 / Fraction(c0)
    out = [inv0]
    for k in range(1, len(a)):
        out.append(-inv0 * sum((a[i] * out[k - i] for i in range(2, k + 1)), a[1] * out[k - 1]))
    return out


def series_exp(a: Sequence) -> list:
    """exp(a) for a zero constant term, from k E_k = sum_{i=1..k} i a_i E_{k-i}."""
    if a[0] != 0:
        raise ValueError("exp needs a zero constant term")
    out = [Fraction(1)]
    for k in range(1, len(a)):
        out.append(sum(i * a[i] * out[k - i] for i in range(1, k + 1)) / k)
    return out


def gauss_jordan(matrix, columns, rhs=None):
    """Gauss-Jordan elimination over Q, pivoting on ``columns`` in the order given.

    ``matrix`` is a list of rows of rationals.  ``rhs``, if given, has one
    entry per row from a vector space over Q (Fractions or a-symbol
    polynomials); row operations only ever scale it by exact rationals.
    Returns (pivots, rows, rhs): ``pivots`` maps each pivot column to its
    row, whose entry there is 1 and is 0 in every other row.  The columns
    without a pivot are the free ones; the rows without a pivot are zero in
    the matrix part.
    """
    rows = [list(map(Fraction, row)) for row in matrix]
    values = None if rhs is None else list(rhs)
    pivots: dict = {}
    unused = list(range(len(rows)))
    for col in columns:
        pivot = next((r for r in unused if rows[r][col] != 0), None)
        if pivot is None:
            continue
        unused.remove(pivot)
        pivots[col] = pivot
        inv = 1 / rows[pivot][col]
        if inv != 1:
            rows[pivot] = [entry * inv for entry in rows[pivot]]
            if values is not None:
                values[pivot] = values[pivot] * inv
        for r, row in enumerate(rows):
            factor = row[col]
            if r != pivot and factor != 0:
                rows[r] = [entry - factor * p for entry, p in zip(row, rows[pivot])]
                if values is not None:
                    values[r] = values[r] - factor * values[pivot]
    return pivots, rows, values


def format_rational(coeff) -> str:
    """p/q in lowest terms, or the integer when q = 1."""
    frac = Fraction(coeff)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def format_terms(terms) -> str:
    """The sum of coeff * body over (body, coeff) pairs, zero terms left out."""
    chunks = []
    for body, coeff in terms:
        frac = Fraction(coeff)
        if frac == 0:
            continue
        sign = "-" if frac < 0 else "+"
        mag = abs(frac)
        if not body:
            text = format_rational(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{format_rational(mag)}*{body}"
        chunks.append((sign, text))
    if not chunks:
        return "0"
    first_sign, first_text = chunks[0]
    out = first_text if first_sign == "+" else f"-{first_text}"
    for sign, text in chunks[1:]:
        out += f" {sign} {text}"
    return out
