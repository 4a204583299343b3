"""Power sums, power-sum products, their instantiation on x_1..x_m,
conversion of symmetric polynomials into the power-sum-product basis, and
the library's exact-elimination kernel.

The products ``P_{n,k} = p_1^k_1 * ... * p_n^k_n`` indexed by exponent
vectors k with parts <= m form a basis of the homogeneous symmetric
polynomials of degree n in m variables.  In the power-sum variables p_k
(``polyring.KIND_P``) a polynomial is already in that basis.

Every form in the p_k over Q[a] reaches x_1..x_m by one kernel,
:func:`monomial_expansion`, through the monomial symmetric functions m_mu
(the p -> m transition, Macdonald 1995, I.6): p_r m_nu is the sum of the m_mu
for the mu made by adding r to one part of nu, a zero part included, each
with the multiplicity of the new part in mu as its coefficient.  So each
p^lambda is peeled off its parent p^(lambda - e_r) by one such step, with int
coefficients, and a form's coefficient on m_mu is read off with no product
of polynomials and no substitution.  :func:`in_variables` spreads each m_mu
over the distinct orderings of mu; :func:`power_sum_product`, the families
and ``PowerSumExpansion.to_polynomial`` go through it.

From x monomials, the route of raw input, :func:`to_power_sum_basis` checks
symmetry and homogeneity and inverts the basis by an exact linear solve on
the monomial symmetric functions: the input's coefficient on m_mu is that of
its term x^mu, and each basis product's is read off by
:func:`monomial_expansion`, so no basis product is expanded in x.
Coefficients may themselves be polynomials in the ``a_i`` symbols (symbolic
mode): the matrix of the solve is always rational, and the right-hand side
enters it as one rational column per a-monomial.

Both exact solves of the library, this one and the C system of ``solver``,
run through one certified multimodular kernel, :func:`_certified_rref`: the
rows, scaled to integers, are brought to Gauss-Jordan form modulo 62-bit
primes, the entries are combined by CRT and rationally reconstructed (Wang,
SYMSAC 1981), and the result is accepted only once M v_f = 0 holds exactly
in integers for every free column f, where v_f is 1 at f and minus the
reconstructed entry at each pivot column.  That makes the answer exact, not
probable.  The pivot columns mod p are independent over Q, since a minor
that is nonzero mod p is nonzero over Z.  Each v_f uses only pivots that
precede f in the column order, so M v_f = 0 puts every free column in the
span of the pivots before it.  The pivots mod p are therefore the greedy
basis over Q, which fixes the free columns and, the pivots being
independent, the forms of the pivot rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, isqrt, lcm
from typing import Mapping, Optional, Union

from .partitions import ExponentVector, exponent_vectors, vector_weight
from .polyring import KIND_A, KIND_P, KIND_X, MultiPoly, TermCapExceeded, VarId, get_term_cap

__all__ = [
    "PowerSumExpansion",
    "power_sum",
    "power_sum_product",
    "power_sum_monomial",
    "monomial_expansion",
    "in_variables",
    "to_power_sum_basis",
    "is_symmetric",
    "x_degrees",
    "NotSymmetricError",
    "NotHomogeneousError",
    "NotRepresentableError",
]

Coefficient = Union[Fraction, int, MultiPoly]


class NotSymmetricError(ValueError):
    """The polynomial is not symmetric in x_1..x_m."""


class NotHomogeneousError(ValueError):
    """The polynomial is not homogeneous."""


class NotRepresentableError(ValueError):
    """No exact representation exists in the requested basis."""


class PowerSumExpansion:
    """A symmetric polynomial written as sum c_k * p_1^k_1 ... p_n^k_n.

    ``coefficients`` maps exponent vectors (weight = ``weight``) to exact
    rationals, or to MultiPoly values in the a_i symbols in symbolic mode.
    The dict carries every key of its key set in listing order, including
    explicit zeros, so serialized tables have a stable positional layout.
    An expansion is immutable: it keeps a copy of the mapping it is given,
    and its attributes refuse assignment.
    """

    __slots__ = ("weight", "num_vars", "coefficients")

    def __init__(
        self,
        weight: int,
        num_vars: int,
        coefficients: Optional[Mapping[ExponentVector, Coefficient]] = None,
    ):
        coefficients = dict(coefficients or {})
        for key in coefficients:
            if vector_weight(key) != weight:
                raise ValueError(f"key {key} does not have weight {weight}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "coefficients", coefficients)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a PowerSumExpansion is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a PowerSumExpansion is immutable")

    def __reduce__(self):
        # Slot state would be restored by setattr, which an expansion refuses.
        return PowerSumExpansion, (self.weight, self.num_vars, self.coefficients)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients.values())

    def coefficient(self, key: ExponentVector) -> Coefficient:
        return self.coefficients.get(key, Fraction(0))

    def in_power_sums(self) -> MultiPoly:
        """The expansion as a polynomial in the power-sum variables p_k."""
        return sum(
            (c * power_sum_monomial(key) for key, c in self.coefficients.items()),
            MultiPoly.zero(),
        )

    def to_polynomial(self) -> MultiPoly:
        """Expand back into the x variables (times any symbolic coefficients)."""
        return in_variables(self.in_power_sums(), self.num_vars)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSumExpansion):
            return NotImplemented
        if self.weight != other.weight or self.num_vars != other.num_vars:
            return False
        keys = set(self.coefficients) | set(other.coefficients)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)


@lru_cache(maxsize=None)
def power_sum(k: int, m: int) -> MultiPoly:
    """p_k(x_1..x_m) = x_1^k + ... + x_m^k."""
    if k < 1:
        raise ValueError("power sum index must be >= 1")
    if m < 1:
        raise ValueError("need at least one variable")
    return MultiPoly({(((VarId(KIND_X, i), k),), 1) for i in range(1, m + 1)})


def power_sum_product(k: ExponentVector, m: int) -> MultiPoly:
    """The expanded product p_1^k_1 * p_2^k_2 * ... over m variables."""
    return in_variables(power_sum_monomial(k), m)


def power_sum_monomial(k: ExponentVector) -> MultiPoly:
    """p_1^k_1 * p_2^k_2 * ... in the power-sum variables."""
    return MultiPoly([(tuple((VarId(KIND_P, i), e) for i, e in enumerate(k, 1) if e), 1)])


def monomial_expansion(form: MultiPoly, m: int) -> dict:
    """``form``, a polynomial in the power sums p_k over Q[a], in the monomial
    symmetric functions of x_1..x_m: {monomial in the a_k: {mu: coefficient}},
    each mu a partition into at most m parts written as m parts in descending
    order, zeros last, and every coefficient nonzero.

    Each p^lambda of the form is its parent p^(lambda - e_r), r its largest
    index, times p_r, by :func:`_times_power_sum`, on the form's integral
    multiple; the common denominator is divided out once per coefficient.
    The x terms this stands for, the orbit sizes of its mu summed over every
    a-monomial, are held to the term cap before any is listed.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    integral, denominator = form.integral_form()
    memo = {(): {(0,) * m: 1}}  # the p-part of a monomial -> p^lambda in the m_mu

    def expand(powers: tuple) -> dict:
        chain = []
        while powers not in memo:
            chain.append(powers)
            powers = _parent(powers)
        for powers in reversed(chain):
            memo[powers] = _times_power_sum(powers[-1][0].index, memo[_parent(powers)])
        return memo[powers]

    out: dict = {}
    for mono, coeff in integral.terms.items():
        # The a_k sort before the p_k, so the monomial in the a_k is a prefix.
        split = next((i for i, (v, _) in enumerate(mono) if v.kind != KIND_A), len(mono))
        for var, _ in mono[split:]:
            if var.kind != KIND_P:
                raise ValueError(f"a form in the power sums got variable {var!r}")
        bucket = out.setdefault(mono[:split], {})
        for mu, c in expand(mono[split:]).items():
            bucket[mu] = bucket.get(mu, 0) + coeff * c
    out = {
        rest: kept
        for rest, bucket in out.items()
        if (kept := {mu: _over(c, denominator) for mu, c in bucket.items() if c})
    }
    count = sum(_orbit_size(mu) for bucket in out.values() for mu in bucket)
    if count > get_term_cap():
        raise TermCapExceeded(
            f"expansion in x_1..x_{m} of {count} terms exceeds the cap of {get_term_cap()}"
        )
    return out


def _parent(powers: tuple) -> tuple:
    """The p-part of a monomial with one factor of its last p_r taken off."""
    var, e = powers[-1]
    return powers[:-1] + ((var, e - 1),) if e > 1 else powers[:-1]


def _times_power_sum(r: int, by_nu: dict) -> dict:
    """p_r times sum_nu c_nu m_nu: r is added to one part of each nu per
    distinct value u of its parts, the new part moved into place, and the
    product carries the multiplicity of u + r in the result."""
    out: dict = {}
    get = out.get
    for nu, c in by_nu.items():
        previous = None
        for i, u in enumerate(nu):
            if u == previous:
                continue
            previous = u
            new = u + r
            j = i
            while j and nu[j - 1] < new:
                j -= 1
            multiplicity = 1
            while multiplicity <= j and nu[j - multiplicity] == new:
                multiplicity += 1
            mu = nu[:j] + (new,) + nu[j:i] + nu[i + 1 :]
            out[mu] = get(mu, 0) + c * multiplicity
    return out


def _over(c: int, denominator: int):
    """c / denominator: an int when it is integral, a Fraction otherwise."""
    if c % denominator:
        return Fraction(c, denominator)
    return c // denominator


def _orbit_size(mu: tuple) -> int:
    """The number of distinct orderings of mu: len(mu)! / prod of the
    multiplicities' factorials."""
    size, run = factorial(len(mu)), 1
    for i in range(1, len(mu)):
        run = run + 1 if mu[i] == mu[i - 1] else 1
        size //= run
    return size


def _orderings(mu: tuple) -> list:
    """The distinct orderings of the parts of mu, a nonempty descending
    tuple: the positions of each value in turn are chosen among those left,
    and the last value, zero when mu is padded, fills the rest."""
    groups = [(v, mu.count(v)) for i, v in enumerate(mu) if not i or mu[i - 1] != v]
    vector = list(mu)
    out = []

    def fill(free: tuple, g: int) -> None:
        value, count = groups[g]
        if g == len(groups) - 1:
            for pos in free:
                vector[pos] = value
            out.append(tuple(vector))
            return
        for chosen in combinations(free, count):
            for pos in chosen:
                vector[pos] = value
            fill(tuple(pos for pos in free if pos not in chosen), g + 1)

    fill(tuple(range(len(mu))), 0)
    return out


def in_variables(form: MultiPoly, m: int) -> MultiPoly:
    """``form``, a polynomial in the power sums p_k over Q[a], expanded in
    x_1..x_m: each m_mu of :func:`monomial_expansion` spread over the
    distinct orderings of mu."""
    xs = [VarId(KIND_X, j) for j in range(1, m + 1)]
    spread: dict = {}  # mu -> its x monomials
    terms = {}
    for rest, bucket in monomial_expansion(form, m).items():
        for mu, c in bucket.items():
            monomials = spread.get(mu)
            if monomials is None:
                monomials = spread[mu] = [
                    tuple((x, e) for x, e in zip(xs, b) if e) for b in _orderings(mu)
                ]
            for x_part in monomials:
                terms[x_part + rest] = c
    return MultiPoly._raw(terms)


def is_symmetric(p: MultiPoly, m: int) -> bool:
    """Check invariance under x_1<->x_2 and the full cycle x_1->x_2->...->x_1.

    The two permutations generate the symmetric group, so this is a
    complete symmetry test with two renamings of the x_j instead of m!.
    """
    if m == 1:
        return True
    for image in ({1: 2, 2: 1}, {i: i % m + 1 for i in range(1, m + 1)}):
        renamed = MultiPoly(
            (tuple((VarId(KIND_X, image.get(v.index, v.index)) if v.kind == KIND_X else v, e) for v, e in mono), c)
            for mono, c in p.terms.items()
        )
        if renamed != p:
            return False
    return True


def x_degrees(p: MultiPoly) -> set:
    """The total degrees in the x variables of the terms of p."""
    return {sum(e for v, e in mono if v.kind == KIND_X) for mono in p.terms}


def to_power_sum_basis(
    p: MultiPoly,
    m: int,
    max_part: int,
    weight: int | None = None,
) -> PowerSumExpansion:
    """Write a symmetric homogeneous polynomial in the power-sum-product basis.

    Solves the exact linear system on the monomial symmetric functions m_mu,
    one row per partition mu of the degree into at most m parts: p's
    coefficient on m_mu is that of its term x^mu, and each basis product's
    comes from :func:`monomial_expansion`.  The basis holds the products
    with parts <= max_part and must be independent (guaranteed for
    max_part <= m); an underdetermined system is rejected rather than
    resolved arbitrarily.  A term in an x_j with j > m lies outside every
    basis product.  ``weight`` fixes the degree of the zero polynomial, which
    is solved like any other p, so over a dependent basis it is rejected
    too; a nonzero p of another degree raises NotHomogeneousError, as a p
    of mixed degrees does.
    """
    if m < 1:
        raise ValueError("need at least one variable")
    if p.is_zero():
        if weight is None:
            raise ValueError("the zero polynomial needs an explicit weight")
        degree = weight
    else:
        # Homogeneity is measured in the x variables only; a-symbol factors
        # in the coefficients carry their own independent grading.
        degrees = x_degrees(p)
        if len(degrees) > 1:
            raise NotHomogeneousError("polynomial is not homogeneous in the x variables")
        degree = degrees.pop()
        if weight is not None and weight != degree:
            raise NotHomogeneousError(f"stated weight {weight} does not match degree {degree}")
        if not is_symmetric(p, m):
            raise NotSymmetricError(f"polynomial is not symmetric in x_1..x_{m}")

    keys = exponent_vectors(degree, max_part)
    columns = [monomial_expansion(power_sum_monomial(k), m)[()] for k in keys]
    target: dict = {}  # mu -> {monomial in the a_k: p's coefficient on m_mu}
    stray = False
    for mono, coeff in p.terms.items():
        b, rest, outside = [0] * m, [], False
        for var, exp in mono:
            if var.kind == KIND_A:
                rest.append((var, exp))
            elif var.kind != KIND_X:
                raise ValueError(
                    f"basis conversion got variable {var!r}; it takes the x_i and the a_k alone"
                )
            elif var.index <= m:
                b[var.index - 1] = exp
            else:
                outside = True
        if outside:
            stray = True
        elif all(b[j] >= b[j + 1] for j in range(m - 1)):
            target.setdefault(tuple(b), {})[tuple(rest)] = coeff
    # The partitions into at most m parts are the conjugates of those with
    # parts <= m: part j is the number of parts >= j.
    partitions = [tuple(sum(k[j:]) for j in range(m)) for k in exponent_vectors(degree, m)]

    # One rational column per basis key, then one per a-monomial alpha of
    # the right-hand side, holding the coefficient of alpha in each row.
    a_monomials = sorted({alpha for row in target.values() for alpha in row})
    matrix = [
        [Fraction(column.get(mu, 0)) for column in columns]
        + [Fraction(target.get(mu, {}).get(alpha, 0)) for alpha in a_monomials]
        for mu in partitions
    ]

    forms, _ = _certified_rref(matrix, range(len(keys) + len(a_monomials)))
    if any(col not in forms for col in range(len(keys))):
        raise NotRepresentableError("basis is not independent: underdetermined column")
    if stray or any(col >= len(keys) for col in forms):
        raise NotRepresentableError("polynomial is outside the span of the requested basis")
    # M v_f = 0 for the column f of alpha says that column is the sum of
    # form[k][f] times key k's column, so key k carries form[k][f] * alpha.
    coefficients = {
        key: _normalize_coefficient(
            MultiPoly({a_monomials[f - len(keys)]: value for f, value in forms[col].items()})
        )
        for col, key in enumerate(keys)
    }
    return PowerSumExpansion(degree, m, coefficients)


def _normalize_coefficient(value: Coefficient) -> Coefficient:
    """Collapse constant polynomials to plain Fractions."""
    if isinstance(value, MultiPoly):
        if len(value.terms) == 0:
            return Fraction(0)
        if len(value.terms) == 1 and () in value.terms:
            return Fraction(value.constant_term())
        return value
    return Fraction(value)


def _primes():
    """The primes below 2^62 from the largest down: the kernel's fixed order.

    The largest, 2^62 - 57, is a constant, so a system that one prime
    settles searches for none.  Below it, Miller-Rabin on the first twelve
    prime bases, deterministic below 3.3 * 10^24, finds the rest.
    """
    yield (1 << 62) - 57
    candidate = (1 << 62) - 59
    while True:
        d, s = candidate - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(base, d, candidate)
            if x == 1 or x == candidate - 1:
                continue
            for _ in range(s - 1):
                x = x * x % candidate
                if x == candidate - 1:
                    break
            else:
                break
        else:
            yield candidate
        candidate -= 2


def _rref_mod(rows: list, p: int) -> tuple[tuple, list]:
    """Gauss-Jordan form mod p of integer rows, pivoting on the columns in
    the order the rows list them.

    Returns the pivot positions in order, and the entries of each pivot's
    row at the free positions after it, flattened in that order.  A row is
    packed into one int, one byte-aligned field per entry.  A row operation
    adds (p - f) times a pivot row whose fields are below p, so it is one
    big-int multiply-add; a row takes at most one per pivot, so no field
    reaches (k + 1) p^2 for k pivots and no carry crosses into the next.
    """
    cols = len(rows[0])
    width = ((min(len(rows), cols) + 1) * p * p).bit_length() // 8 + 1
    shift, mask = 8 * width, (1 << 8 * width) - 1

    def pack(values):
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")

    def unpack(value):
        data = value.to_bytes(cols * width, "little")
        return [int.from_bytes(data[i : i + width], "little") % p for i in range(0, len(data), width)]

    packed = [pack([v % p for v in row]) for row in rows]
    unused = list(range(len(rows)))
    pivots: dict = {}
    for pos in range(cols):
        offset = pos * shift
        pivot = next((r for r in unused if (packed[r] >> offset & mask) % p), None)
        if pivot is None:
            continue
        unused.remove(pivot)
        pivots[pos] = pivot
        values = unpack(packed[pivot])
        inverse = pow(values[pos], -1, p)
        packed[pivot] = pivot_row = pack([v * inverse % p for v in values])
        for r, row in enumerate(packed):
            factor = (row >> offset & mask) % p
            if factor and r != pivot:
                packed[r] = row + (p - factor) * pivot_row
    free = [pos for pos in range(cols) if pos not in pivots]
    entries = []
    for pos, r in pivots.items():
        values = unpack(packed[r])
        entries.extend(values[q] for q in free if q > pos)
    return tuple(pivots), entries


def _rational(residue: int, modulus: int) -> Optional[Fraction]:
    """The fraction a/b with |a|, b <= sqrt(modulus / 2) congruent to the
    residue, or None (Wang's rational reconstruction)."""
    bound = isqrt(modulus // 2)
    r0, r1, s0, s1 = modulus, residue, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return Fraction(r1, s1)


def _certified_rref(matrix, columns) -> tuple[dict, int]:
    """The reduced row echelon form over Q of a matrix of integer or
    rational rows, pivoting on ``columns`` in the order given, by certified
    multimodular elimination.

    Returns ({pivot column: {free column: entry}}, primes used).  The pivot
    columns come in elimination order, and each pivot row's nonzero entries
    at free columns in ascending column order: the pivot row is 1 at its
    pivot and 0 at every other pivot column.

    Each row is scaled to integers by the lcm of its denominators (1 for an
    int row); the form is that of the rows over Q, so it is the same for a
    row times any nonzero int.  For each prime in ``_primes()`` order the
    rows are reduced mod p; a prime whose pivot positions are fewer, or as
    many but later, than the best so far is skipped, one with a better set
    restarts the combination, and the rest are combined by CRT.  Then the
    entries are rationally reconstructed and certified: for every free
    column f, the vector v_f that is 1 at f and minus the entry at each
    pivot row is checked to give M v_f = 0 in integers.  If a
    reconstruction or a check fails, another prime is added.
    """
    columns = list(columns)
    permuted = []
    for row in matrix:
        scale = lcm(*(v.denominator for v in row))
        permuted.append([row[c].numerator * (scale // row[c].denominator) for c in columns])
    if not permuted:
        return {}, 0
    best, modulus, residues = None, 1, []
    for count, p in enumerate(_primes(), 1):
        positions, entries = _rref_mod(permuted, p)
        # More pivots, then earlier ones, are nearer the pivots over Q.
        standing = (-len(positions), positions)
        if best is None or standing < best:
            best, modulus, residues = standing, p, entries
        elif standing > best:
            continue
        else:
            step = pow(modulus, -1, p)
            residues = [x + modulus * ((a - x) * step % p) for x, a in zip(residues, entries)]
            modulus *= p
        values = [_rational(x, modulus) for x in residues]
        if None in values:
            continue
        pivot_set = set(positions)
        free = [pos for pos in range(len(columns)) if pos not in pivot_set]
        forms = {}
        by_free = {q: [] for q in free}
        flat = iter(values)
        for pos in positions:
            form = {}
            for q in free:
                if q > pos and (value := next(flat)):
                    form[q] = value
                    by_free[q].append((pos, value))
            forms[columns[pos]] = {columns[q]: form[q] for q in sorted(form, key=columns.__getitem__)}
        if all(_in_kernel(permuted, q, by_free[q]) for q in free):
            return forms, count


def _in_kernel(rows: list, free: int, form: list) -> bool:
    """M v = 0 in integers for v = 1 at ``free`` and -value at each
    (pivot, value) of ``form``, scaled by the lcm of the denominators."""
    scale = lcm(*(value.denominator for _, value in form))
    weights = [(pos, value.numerator * (scale // value.denominator)) for pos, value in form]
    return all(
        row[free] * scale == sum(row[pos] * w for pos, w in weights) for row in rows
    )
