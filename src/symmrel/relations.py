"""The relation machinery: row-substitution matrix, U functions, zero-relation
and polynomial-residue verification, and extraction of the Z/Y coefficient
tables.

For a homogeneous symmetric polynomial S of degree n in x_1..x_m, with
V(v) = S(v) / pi(v) and pi the product of the components, the quantity

    U_n = V(x) - sum_i  y_i^(m-n-1) * V(s_i)

is formed over the rows s_i of the m x m matrix with entries
``s_ij = y_i x_j - y_j x_i + x_i delta_ij``.  The verified claims are:

* zero relation: U_n vanishes identically for 0 <= n <= m-1;
* residue relation: at y_1 = ... = y_m = 1 and n >= m, U_n is a homogeneous
  symmetric polynomial of degree n - m (written Z for a family polynomial,
  Y for a single power-sum product).

Exponent-convention note: the sum's weight y_i^(m-n-1) uses the degree n of
the polynomial under test, uniformly.  For n >= m the exponent would be
negative; that regime is only defined here at y = 1, where the weight drops
out.

Denominator note: pi(v) of a component vector is read as the plain product
of its components: x_1 * ... * x_m for the plain variables, the product of
the entries for a row.  Every relation here uses this reading; it is
validated by the degree-0 instances of the zero relation, which reduce to
exact identities under it.

Implementation note: pi(s_i) is (-1)^(i-1) x_i times the pair factors
w_ij = y_i x_j - y_j x_i (i < j) that involve i, so pi(x) * W, with
W = prod_{i<j} w_ij, clears every denominator of U_n.  Neither relation
forms that numerator: both are decided on orbit representatives of one
alternant.  Put Alt(f) = sum_{g in S_m} sgn(g) g(f),
with g moving x_j and y_j together, and M = prod_{j=2..m} x_j^(j-1) y_j^(m-j).
Then:

* W is the homogeneous Vandermonde determinant det[x_i^(k-1) y_i^(m-k)]
  (Macdonald 1995, I.3, the alternant a_delta), so W = Alt(y_1^(m-1) M);
* c_1 = pi(x) W / pi(s_1) = prod_{j>=2} x_j prod_{2<=j<k} w_jk is the same
  determinant over 2..m times the symmetric prod_{j>=2} x_j, the
  S_(m-1)-alternant of M;
* y_1^e S(s_1) is fixed by every g with g(1) = 1, and the cycle sigma_i
  sending 1 to i and 2..m in order onto the rest has sign (-1)^(i-1) and
  maps s_1 to a reordering of s_i and c_1 to
  c_i = (-1)^(i-1) pi(x) W / pi(s_i).  So the sum over i runs
  over the cosets of S_(m-1), and

      pi(x) W U_n = Alt(H),  H = M * (y_1^(m-1) S(x) - y_1^e S(s_1)),

  with e = m - n - 1.  At y = 1 the y factors drop out.

Alt(t) of a monomial t is 0 when two of its exponent pairs
(deg x_j, deg y_j) are equal, and otherwise sgn(g) Alt(t_0) for the
monomial t_0 = g^(-1)(t) with its pairs in descending order.  The Alt(t_0)
of distinct sorted monomials have disjoint supports, so Alt(H) = 0 exactly
when the signed sum of H's coefficients on each sorted key is 0 (monomials
in the a_k ride along beside the key).  H itself is never formed.  Since
e + n = m - 1, H = M y_1^e (y_1^n S(x) - S(s_1)), and the exponents of the
monomial M y_1^e enter the pass as offsets to each term's exponent pairs.

Keys: a term's key is the int with bit x Y + y set for each of its pairs
(x, y), of width Y = n + m at general y, where no exponent of a pair
reaches n + m, and Y = 1 at y = 1, where every pair is (x, 0).  The bits
run in descending (x, y) order, so a key is the sorted representative and
no term is sorted; only a witness reads a key back (``_pairs``).  A term is
built position by position, and a pair whose bit is already set makes it
0.  sgn(g) is the parity of the term's inversions, the positions i < j with
pair i below pair j: so a pair placed after the others flips the sign once
per placed pair below it, popcount(key & (bit - 1)), and position 1, placed
last but first in order, once per placed pair above it.

Both relations read H off S(x) alone (``_certificate``): S is instantiated
once, on x_1..x_m, as its coefficients on the monomial symmetric functions
m_mu (see Sources below).  H is linear in S, so its residual is the sum of
those coefficients times the residuals of the orbits, one image per
distinct mu, made once per call whatever the number of a-monomials it comes
with (``_weigh``).  By the binomial theorem a term c x^b of S(x) becomes at
s_1 = (x_1, y_1 x_2 - y_2 x_1, ...) the terms
c prod_{j>=2} C(b_j, r_j) (-1)^r_j x_1^(b_1 + R) y_1^(n - b_1 - R)
prod_{j>=2} x_j^(b_j - r_j) y_j^r_j, 0 <= r_j <= b_j, R = sum r_j.  At
general y the image of m_mu is made ordering by ordering (``_row_image``),
and each ordering b makes its row terms and, from the one at r = 0, the
term y_1^n c x^b of S(x) itself (``_row_terms``).  The pairs
(b_j - r_j, r_j), j >= 2, fix b and r, and S is homogeneous, so no two of
them merge, and one meets a term of y_1^n S(x) only at b_1 = 0 and r = 0,
where the two cancel and neither is made.  So H has exactly
len(S(x)) + sum_t prod_{j>=2} (b_j + 1) - 2 #{t : b_1 = 0} terms, with no
product, no substitution on the row and no term map of H.  Each of the
three sums is fixed per orbit: over the orbit of mu, prod_{j>=2} (b_j + 1)
sums to the sum over the distinct parts v of mu of
(the orderings of mu - v) * prod_{u in mu - v} (u + 1) (``_orbit_counts``).
Position 1's pair (b_1 + R, m - 1 - b_1 - R) has total degree m - 1, as has
the pair (j - 1, m - j) of each x_j with b_j = 0, and every other pair has
more, so a row term is 0 exactly when two of its moving pairs meet or
b_1 + R is j - 1 for such an x_j; both are decided before the term is made.

At y = 1 the row is s_1 = (x_1, x_2 - x_1, ..., x_m - x_1), the y exponents
drop out, and the pairs are (deg x_j, 0).  The same expansion gives the
terms c prod_{j>=2} C(b_j, r_j) (-1)^r_j x_1^(b_1 + R) x_j^(b_j - r_j), and
the one at r = 0 is c x^b, which cancels the term of S(x) itself.  A term's
key and sign depend on the orderings and the r_j only through what is
placed so far, so the orbit is walked over the positions once, not once
per ordering (``_y_one_image``): a state is (key, R, the parts of mu left)
with its signed coefficient, each of positions 2..m takes one part left and
one r_j, states that meet merge, and position 1 takes the last part, with
exponent b_1 + R; the states with R = 0, the terms that cancel, are left
out.  pi(x) m_nu = m_(nu + 1^m), so the term of pi(x) G below is G's own
monomial expansion shifted by one in every part, walked the same way with
every r_j = 0.

The number of terms of S(x), and then the number of terms its orbits make
when expanded term by term, the made counts of the distinct orbits of S
(and at y = 1 the sizes of G's), are held to the term cap before any term
is made.  At general y that is the pass's work.  At y = 1 it bounds the
images, not the walk: over the 677 orbits with m <= 6 and n = m..m+7 the
walk makes 0.05 to 3.5 times as many state updates as the count, 0.54 in
the median.  Neither relation builds the m x m matrix, forms S(s_1) or
substitutes.  Every call does this work afresh; only a family's source,
which meets no term cap, is kept for the process, so a cap meets the same
work whatever ran before.

Both relations are one check, U_n = G for a known symmetric G, in one stage,
orbit-certificate (``_decide``).  The zero relation (``verify_conjecture1``)
has G = 0 at general y: U_n = 0 exactly when Alt(H) = 0.  The residue
relation (``verify_conjecture2``) has G the closed-form residue below at
y = 1, times the source's denominator as H is; W G = Alt(M G) at y = 1, so
U_n = G exactly when Alt(H - M pi(x) G) = 0, with
H - M pi(x) G = M (S(x) - S(s_1) - pi(x) G) read off the same way, and an
empty orbit residual certifies G.  A nonempty one falsifies the relation:
over the source's denominator it is the witness, the sum of each
coefficient times its sorted representative monomial and its monomial in
the a_k (``_witness``), whose alternant is pi(x) W (U_n - G).  A case that
meets the term cap is resource-limited, with the cap's message as the
stage's detail.

Reference form: :func:`u_function` builds U_n over the full product of
denominators by substitution, for any polynomial in x, symmetric or not.
Neither relation calls it: a raw MultiPoly they are given must be
symmetric in x_1..x_m, or PreconditionError is raised, and is rewritten
once in p_1..p_m, inside the stage, so a term cap met there makes a
resource-limited report.

Residues in closed form: at y = 1, S(s_i) = F(x_i) with F(t) = S(t, x_1 - t,
..., x_m - t), and pi(s_i) = (-1)^(m-1) x_i prod_{j != i} (x_i - x_j), so the
sum over i is a divided difference of F(t)/t over x_1..x_m.  F(0) = S(x)
cancels V(x), and t^(e-1) gives h_{e-m}(x) (Macdonald 1995, I.2-I.3):
U_n|_{y=1} = (-1)^m sum_{e >= m} [t^e]F(t) h_{e-m}(x), with no division.
Extraction computes it in the power sums, with no x monomial:
p_k(t, x_1 - t, ..., x_m - t) = t^k + sum_{r <= k} C(k, r) (-t)^(k-r) p_r
(p_0 = m).  Give p_r the weight r, read off a monomial's exponents.  F is
homogeneous of degree n in (t, x), so [t^e]F is its part F_w of weight
w = n - e, t stays implicit, and U_n|_{y=1} = (-1)^m sum_{w <= d} F_w h_{d-w}
with d = n - m.  F is formed in the free power sums p_1..p_d, as if there
were at least d variables: each shifted p_k is one polynomial of its terms of
weight <= d with int coefficients, and each product forms only the pairs of
parts whose weights sum to at most d, so no factor is heavier than d and the
integral source multiplies only ints.  The m variables enter after that,
once per free monomial p^nu of F.  Newton's identities give p_1..p_d and
h_0..h_d in p_1..p_m (e_i = 0 for i > m), each as ints over one
denominator; p^nu is its parent p^(nu - e_r) times p_r, and its image
p^nu h_(d-w), times its least common denominator, is an int vector over the
weight-d keys with parts <= m.  The residue is the sum of F's coefficients
times their images, one int vector per monomial in the a_k, read off with no
linear solve and divided by one denominator at the end.  All of it is int
arithmetic on exponents packed into one int (``_ResidueEngine``), with no
MultiPoly but the source and the result.  An engine holds the q_k powers,
the tables, the p^nu and the images of one (m, d): the C system uses one per
m for all its keys, every other residue one of its own, and nothing outlives
the call, so a term cap meets the same products whatever ran before.

Sources: every accepted input becomes one ``_Source``, a single MultiPoly
in the power-sum variables p_k over Q[a], which makes it symmetric by
construction, times the common denominator of its coefficients: a registry
family or the symbolic family (by ``families.bell_form``), a power-sum key,
a PowerSumExpansion, or a raw MultiPoly symmetric in x_1..x_m, which may
hold x_1..x_m and the a_k alone.  A registry or the symbolic family's
source is built once per (family, n) per process (``_family_source``).  A
source reaches x_1..x_m through the monomial basis
(``symmfunc.monomial_expansion``: the p -> m transition, Macdonald 1995,
I.6), with no substitution.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from math import comb, gcd, lcm, prod
from typing import NamedTuple, Optional, Sequence

from .families import SYMBOLIC_NAME, FamilySpec, bell_form, family_form, get_family
from .partitions import ExponentVector, check_vector, exponent_vectors, vector_weight
from .polyring import (
    KIND_A,
    KIND_P,
    KIND_X,
    KIND_Y,
    MultiPoly,
    TermCapExceeded,
    VarId,
    _cap_error,
    get_term_cap,
)
from .symmfunc import (
    PowerSumExpansion,
    _normalize_coefficient,
    _orbit_size,
    _orderings,
    is_symmetric,
    monomial_expansion,
    power_sum_monomial,
    to_power_sum_basis,
    x_degrees,
)

__all__ = [
    "RelationReport",
    "PreconditionError",
    "build_s_matrix",
    "u_function",
    "verify_conjecture1",
    "verify_conjecture2",
    "extract_z",
    "extract_y_basis",
]

class PreconditionError(ValueError):
    """The (n, m) regime does not match the requested check."""


def build_s_matrix(m: int) -> tuple:
    """Rows of the m x m substitution matrix, each a tuple of MultiPoly.

    Entries s_ij = y_i x_j - y_j x_i + x_i delta_ij; the diagonal is x_i.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _symbolic_rows(m, False)[2]


@lru_cache(maxsize=None)
def _symbolic_rows(m: int, y_one: bool) -> tuple:
    """(xs, ys, rows): x_1..x_m, then y_1..y_m or m ones at y = 1, and the rows on them."""
    xs = tuple(MultiPoly.x(i) for i in range(1, m + 1))
    ys = (1,) * m if y_one else tuple(MultiPoly.y(i) for i in range(1, m + 1))
    rows = tuple(
        tuple(xs[i] if i == j else ys[i] * xs[j] - ys[j] * xs[i] for j in range(m))
        for i in range(m)
    )
    return xs, ys, rows


# ---------------------------------------------------------------------------
# Polynomial sources
# ---------------------------------------------------------------------------


class _Source:
    """A degree-n symmetric polynomial, held in the power-sum variables p_k
    over Q[a].

    ``poly`` is the polynomial times the common ``denominator`` of its
    coefficients, so every product runs on integral data and the
    denominator is divided out once, at the end.  ``make`` builds the
    polynomial when it is first read, inside the stage that reads it, so a
    term cap met on the way (a raw input's rewrite in the p_k) is reported
    by that stage.  A source is never changed once built, so a family's is
    shared (``_family_source``).
    """

    def __init__(self, n, label, make, family=False):
        self.n = n
        self.label = label
        self.family = family  # a registry or symbolic family: C1/C2, not C3
        self._make = make

    @cached_property
    def _integral(self) -> tuple:
        return self._make().integral_form()

    @property
    def poly(self) -> MultiPoly:
        return self._integral[0]

    @property
    def denominator(self) -> int:
        return self._integral[1]


def _raw_degree(poly: MultiPoly) -> int:
    degrees = x_degrees(poly)
    if len(degrees) > 1:
        raise ValueError("raw polynomial must be homogeneous in x")
    return degrees.pop() if degrees else 0


def _check_raw_variables(poly: MultiPoly, m: int) -> None:
    """Reject, by name, any variable of ``poly`` but x_1..x_m and the a_k."""
    for v in sorted(poly.variables()):
        if v.kind != KIND_A and not (v.kind == KIND_X and v.index <= m):
            raise ValueError(
                f"raw polynomial has variable {v!r}; it may hold only x_1..x_{m} and the a_k"
            )


@lru_cache(maxsize=None)
def _family_source(spec: Optional[FamilySpec], n: int) -> _Source:
    """The degree-n source of a registry family, or of the symbolic family
    for None, built once per process: building it meets no term cap, so a
    cap meets the same work whatever ran before."""
    if spec is None:
        a = [MultiPoly.a(k) for k in range(1, n + 1)]
        return _Source(n, SYMBOLIC_NAME, partial(bell_form, n, a), family=True)
    return _Source(n, spec.name, partial(family_form, spec, n), family=True)


def _make_source(poly_source, n: int, m: Optional[int] = None) -> _Source:
    """Normalize the accepted source spellings into a _Source.

    A raw MultiPoly needs m: it may hold x_1..x_m and the a_k alone, and
    must be symmetric in x_1..x_m, which is checked here; it is rewritten
    once in p_1..p_m, when the source is first read.
    """
    if isinstance(poly_source, str) and poly_source.lower() == SYMBOLIC_NAME:
        source = _family_source(None, n)
    elif isinstance(poly_source, (str, FamilySpec)):
        spec = get_family(poly_source) if isinstance(poly_source, str) else poly_source
        source = _family_source(spec, n)
    elif isinstance(poly_source, PowerSumExpansion):
        label = f"expansion(weight={poly_source.weight})"
        source = _Source(poly_source.weight, label, poly_source.in_power_sums)
    elif isinstance(poly_source, tuple):
        weight = vector_weight(poly_source)
        check_vector(poly_source, weight)
        label = "P_" + "{" + ",".join(map(str, poly_source)) + "}"
        source = _Source(weight, label, partial(power_sum_monomial, poly_source))
    elif isinstance(poly_source, MultiPoly) and m is not None:
        # The zero polynomial is homogeneous of every degree.
        degree = _raw_degree(poly_source) if poly_source else n
        _check_raw_variables(poly_source, m)
        if not is_symmetric(poly_source, m):
            raise PreconditionError(f"raw polynomial is not symmetric in x_1..x_{m}")
        source = _Source(
            degree,
            "raw",
            lambda: to_power_sum_basis(poly_source, m, max_part=m, weight=degree).in_power_sums(),
        )
    else:
        raise TypeError(f"cannot interpret {poly_source!r} as a polynomial source")
    if source.n != n:
        raise ValueError(f"source has degree {source.n}, expected n = {n}")
    return source


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class _Record:
    """A mutable record over its ``__slots__``: equal to a record of the same
    class with equal fields, and unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class Stage(_Record):
    __slots__ = ("name", "detail", "seconds")

    def __init__(self, name: str, detail: str, seconds: float):
        self.name = name
        self.detail = detail
        self.seconds = seconds

    def to_json(self):
        # The wall-clock time stays off the document, which is byte-deterministic.
        return {"name": self.name, "detail": self.detail}


class RelationReport(_Record):
    __slots__ = (
        "conjecture_id", "n", "m", "source_label", "verdict", "witness", "extracted", "stages"
    )

    def __init__(
        self,
        conjecture_id: str,  # C1 | C2 | C3-zero | C3-poly
        n: int,
        m: int,
        source_label: str,
        verdict: str,  # verified | falsified | resource-limited
        witness: Optional[MultiPoly] = None,
        extracted: Optional[PowerSumExpansion] = None,
        stages: Optional[list] = None,
    ):
        self.conjecture_id = conjecture_id
        self.n = n
        self.m = m
        self.source_label = source_label
        self.verdict = verdict
        self.witness = witness
        self.extracted = extracted
        self.stages = [] if stages is None else stages

    @property
    def verified(self) -> bool:
        return self.verdict == "verified"

    def to_json(self):
        out = {
            "conjecture": self.conjecture_id,
            "n": self.n,
            "m": self.m,
            "source": self.source_label,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = str(self.witness)
        if self.extracted is not None:
            out["extracted"] = {
                "weight": self.extracted.weight,
                "entries": [
                    {"key": list(key), "coeff": str(coeff)}
                    for key, coeff in self.extracted.coefficients.items()
                ],
            }
        out["stages"] = [s.to_json() for s in self.stages]
        return out


# ---------------------------------------------------------------------------
# The U function
# ---------------------------------------------------------------------------


class UFunction(NamedTuple):
    """U_n as its numerator over the full product of denominators
    pi(x) * prod_i pi(s_i), whose leading coefficient is positive."""

    numerator: MultiPoly
    denominator: MultiPoly


def u_function(s_poly: MultiPoly, n: int, m: int, specialize_y: bool = False) -> UFunction:
    """U_n over the product of all the denominators, not reduced by gcd.

    This is the direct construction: each term S(s_i) / pi(s_i) is built by
    generic substitution and combined over the full product denominator
    pi(x) * prod_i pi(s_i).  Term i is multiplied by the denominators before
    it, a running prefix product whose last entry is the denominator, and by
    those after it, a running suffix product.  Neither relation calls it:
    it is the slow reference form of U_n, for a polynomial symmetric or
    not.  ``s_poly`` may hold x_1..x_m and the a_k alone.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    exponent = m - n - 1
    if exponent < 0 and not specialize_y:
        raise PreconditionError(
            "general-y U is only defined for n <= m-1; set specialize_y for n >= m"
        )
    degree = _raw_degree(s_poly)
    _check_raw_variables(s_poly, m)
    if degree != n:
        raise ValueError(f"polynomial has degree {degree}, expected {n}")
    one = MultiPoly.one()
    xs, ys, rows = _symbolic_rows(m, specialize_y)
    terms = [(one, s_poly, prod(xs, start=one))]
    for y, row in zip(ys, rows):
        weight = -one if specialize_y else -(y**exponent)
        on_row = s_poly.substitute({VarId(KIND_X, j): c for j, c in enumerate(row, 1)})
        terms.append((weight, on_row, prod(row, start=one)))
    prefix = [one]
    for _, _, den in terms:
        prefix.append(prefix[-1] * den)
    numerator = MultiPoly.zero()
    suffix = one
    for i in range(len(terms) - 1, -1, -1):
        weight, num, den = terms[i]
        numerator = numerator + weight * num * (prefix[i] * suffix)
        if i:
            suffix = suffix * den
    denominator = prefix[-1]
    if denominator.terms[denominator.leading_monomial()] < 0:
        return UFunction(-numerator, -denominator)
    return UFunction(numerator, denominator)


# ---------------------------------------------------------------------------
# Orbit representatives
# ---------------------------------------------------------------------------


def _certificate(source: _Source, m: int, residue: Optional[PowerSumExpansion]) -> tuple:
    """(terms, residual): a term count and the orbit residual of H, whose
    alternant is pi(x) * W * (U_n - G) times the source's denominator, so the
    residual is empty exactly when U_n = G.  The residual's keys are
    (int key, monomial in the a_k), the int key of width n + m at general y
    and 1 at y = 1 (``_pairs``).

    S(x) is read in the monomial basis.  With ``residue`` None, G = 0 and
    H = M * y_1^e * (y_1^n * S(x) - S(s_1)) at general y, e = m - n - 1, and
    the count is H's number of terms.  Otherwise H = M * (S(x) - S(s_1) -
    pi(x) * G) at y = 1: pi(x) * m_nu = m_(nu + 1^m), so G's own monomial
    expansion, shifted by one in every part, enters as a second expansion,
    and the count is the number of terms the pass makes.
    """
    expansion = monomial_expansion(source.poly, m)
    if residue is None:
        counts = {mu: _orbit_counts(mu) for bucket in expansion.values() for mu in bucket}
        terms = sum(
            size + row - 2 * free_of_x1
            for bucket in expansion.values()
            for size, row, free_of_x1 in map(counts.__getitem__, bucket)
        )
        made = sum(row for _, row, _ in counts.values())
        return terms, _weigh(made, [(expansion, _row_image)], m)
    shifted = {
        rest: {tuple(v + 1 for v in nu): -c * source.denominator for nu, c in bucket.items()}
        for rest, bucket in monomial_expansion(residue.in_power_sums(), m).items()
    }
    made = sum(_orbit_counts(mu)[1] for mu in set().union(*expansion.values()))
    made += sum(map(_orbit_size, set().union(*shifted.values())))
    row, staircase = partial(_y_one_image, row=True), partial(_y_one_image, row=False)
    return made, _weigh(made, [(expansion, row), (shifted, staircase)], m)


def _weigh(made: int, parts: list, m: int) -> dict:
    """The orbit residual of the sum over ``parts``, each (expansion, image):
    an expansion {monomial in the a_k: {mu: coefficient}} as
    ``symmfunc.monomial_expansion`` gives it, whose m_mu each stand for the
    orbit residual ``image(mu, m)``.  H is linear in S, so its residual is
    the sum of the coefficients times the residuals of the orbits, and each
    is made once per call, whatever the number of a-monomials it comes
    with.  ``made``, the number of terms the per-term expansion of those
    orbits makes, is held to the term cap before any image is made; it
    bounds the images' size, not the y = 1 walk's work.
    """
    cap = get_term_cap()
    if made > cap:
        raise TermCapExceeded(f"row expansion of {made} terms exceeds the cap of {cap}")
    by_rest: dict = {}  # monomial in the a_k -> its part of the residual
    for expansion, image in parts:
        images: dict = {}  # mu -> image(mu, m), shared by the a-monomials
        for rest, bucket in expansion.items():
            part = by_rest.setdefault(rest, {})
            get = part.get
            for mu, coeff in bucket.items():
                if mu not in images:
                    images[mu] = image(mu, m)
                for key, c in images[mu]:
                    part[key] = get(key, 0) + coeff * c
    return {(key, rest): c for rest, part in by_rest.items() for key, c in part.items() if c}


def _orbit_counts(mu: tuple) -> tuple:
    """(terms, made, cancelled) over the orbit of x^mu, the x^b with b an
    ordering of mu: the number of terms, the number the row expansion makes
    from them, sum_b prod_{j>=2} (b_j + 1), and the number with b_1 = 0.
    With b_1 = v, b_2..b_m run over the orderings of mu - v, so the middle
    sum is sum_v orderings(mu - v) * prod_{u in mu - v} (u + 1) over the
    distinct parts v of mu."""
    made = cancelled = 0
    for i, v in enumerate(mu):
        if i and mu[i - 1] == v:
            continue
        others = mu[:i] + mu[i + 1 :]
        count = _orbit_size(others)
        made += count * prod(u + 1 for u in others)
        if not v:
            cancelled = count
    return _orbit_size(mu), made, cancelled


def _row_image(mu: tuple, m: int) -> tuple:
    """The orbit residual of H at general y for S = m_mu, as (int key,
    coefficient) items of width Y = n + m: the terms of each ordering b of
    mu (``_row_terms``)."""
    width = sum(mu) + m
    part: dict = {}
    for b in _orderings(mu):
        _row_terms(part, b, m, width)
    return tuple((key, c) for key, c in part.items() if c)


def _row_terms(part: dict, b: Sequence, m: int, width: int) -> None:
    """Add to the orbit residual ``part`` the terms of
    M * y_1^e * (y_1^n * x^b - x^b(s_1)) at general y, keyed at ``width``:
    by the binomial theorem x^b(s_1) gives, over 0 <= r_j <= b_j,
    prod_{j>=2} C(b_j, r_j) (-1)^r_j x_1^(b_1 + R) y_1^(n - b_1 - R)
    x_j^(b_j - r_j) y_j^r_j, R = sum r_j, and its term at R = 0 has the
    pairs of y_1^n x^b at positions 2..m.  So y_1^n x^b is made from that
    state, with (b_1, m - 1) at position 1 and the opposite coefficient; at
    b_1 = 0 the two are equal and cancel, and neither is made.

    The pairs (j - 1, m - j) of the x_j with b_j = 0 are placed first: each
    lies below those after it, so they make C(f, 2) inversions among
    themselves, f their number, and none meets a moving pair, whose total
    degree is more than m - 1.  The moving positions are then placed in
    order, each with its choices of r_j, and a choice whose pair is already
    placed is dropped at once.  A moving pair placed after every fixed pair
    counts those below it; for the fixed pairs after its position, which
    are inversions when above it, the parity of that count is off by the
    number of them, which the choice's coefficient carries.  Position 1's
    pair (b_1 + R, m - 1 - b_1 - R) has total degree m - 1, so it can meet a
    fixed pair only, and that is decided before the term is made; the pair
    (b_1, m - 1) of y_1^n x^b has a y degree above every other, so it meets
    none.  Position 1 flips the sign once per placed pair above it.
    """
    top = m - 1
    fixed = 0
    moving = []
    for j in range(1, m):
        if b[j]:
            moving.append(j)
        else:
            fixed |= 1 << (j * width + top - j)
    count = m - 1 - len(moving)
    states = [(fixed, 0, 1 if count * (count - 1) // 2 & 1 else -1)]  # (key, R, coefficient)
    for i, j in enumerate(moving):
        e = b[j]
        # The fixed positions after j: those after it less the moving ones.
        sign = -1 if (m - 1 - j - (len(moving) - 1 - i)) & 1 else 1
        choices = [
            (1 << ((e - r + j) * width + r + top - j), r, sign * (-1) ** r * comb(e, r))
            for r in range(e + 1)
        ]
        states = [
            (key | bit, shift + r, -c * f if (key & (bit - 1)).bit_count() & 1 else c * f)
            for key, shift, c in states
            for bit, r, f in choices
            if not key & bit
        ]
    get = part.get
    for key, shift, c in states:
        x_1 = b[0] + shift
        if not x_1:
            continue
        if not shift:
            index = x_1 * width + top
            own = key | 1 << index
            part[own] = get(own, 0) + (c if (key >> index).bit_count() & 1 else -c)
        index = x_1 * width + top - x_1
        if fixed >> index & 1:
            continue
        if (key >> index).bit_count() & 1:
            c = -c
        key |= 1 << index
        part[key] = get(key, 0) + c


def _y_one_image(mu: tuple, m: int, row: bool) -> tuple:
    """The orbit residual at y = 1 of M * (m_mu(x) - m_mu(s_1)) with
    ``row``, and of M * m_mu without, as (int key, coefficient) items of
    width 1, walked over the positions once per orbit.  With ``row`` the
    terms are, by the binomial theorem, over the orderings b of mu and
    0 <= r_j <= b_j, -prod_{j>=2} C(b_j, r_j) (-1)^r_j x_1^(b_1 + R)
    x_j^(b_j - r_j + j - 1), R = sum r_j > 0: those at R = 0 cancel
    M * m_mu(x).  Without it every r_j = 0 and no term is left out.

    A state is (key, R, the parts of mu left) -> signed coefficient.  Each of
    positions 2..m takes one part v left and an r_j, which places the
    exponent v - r_j + j - 1, and states that meet merge; position 1 takes
    the last part, with exponent b_1 + R.
    """
    values = sorted(set(mu), reverse=True)
    # Part i's choices (exponent less j - 1, r_j, (-1)^r_j C(v, r_j)).
    rows = [[(v - r, r, (-1) ** r * comb(v, r)) for r in range(v + 1 if row else 1)] for v in values]
    states = {(0, 0, tuple(map(mu.count, values))): -1 if row else 1}
    for j in range(1, m):
        choices = [[(1 << (x + j), r, f) for x, r, f in part_row] for part_row in rows]
        following: dict = {}
        get = following.get
        for (key, shift, left), c in states.items():
            if not c:
                continue
            for i, k in enumerate(left):
                if not k:
                    continue
                rest = left[:i] + (k - 1,) + left[i + 1 :]
                for bit, r, f in choices[i]:
                    if key & bit:
                        continue
                    state = (key | bit, shift + r, rest)
                    following[state] = get(state, 0) + (-c * f if (key & (bit - 1)).bit_count() & 1 else c * f)
        states = following
    part: dict = {}
    for (key, shift, left), c in states.items():
        if not c or (row and not shift):
            continue
        x_1 = values[left.index(1)] + shift
        if key >> x_1 & 1:
            continue
        if (key >> x_1).bit_count() & 1:
            c = -c
        key |= 1 << x_1
        part[key] = part.get(key, 0) + c
    return tuple((key, c) for key, c in part.items() if c)


def _pairs(key: int, width: int) -> list:
    """The exponent pairs (deg x_j, deg y_j) of an int key of ``width``, in
    descending order: bit x * width + y stands for the pair (x, y)."""
    pairs = []
    while key:
        index = key.bit_length() - 1
        pairs.append(divmod(index, width))
        key ^= 1 << index
    return pairs


def _witness(residual: dict, denominator: int, width: int) -> MultiPoly:
    """The orbit residual, its keys of ``width``, over the source's
    denominator, as the polynomial sum of each coefficient times its sorted
    representative monomial prod_j x_j^dx_j y_j^dy_j and its monomial in
    the a_k."""
    return MultiPoly(
        (
            [(VarId(KIND_X, j), dx) for j, (dx, _) in enumerate(pairs, 1)]
            + [(VarId(KIND_Y, j), dy) for j, (_, dy) in enumerate(pairs, 1)]
            + list(rest),
            Fraction(c) / denominator,
        )
        for (key, rest), c in residual.items()
        for pairs in [_pairs(key, width)]
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_conjecture1(poly_source, n: int, m: int) -> RelationReport:
    """Check that U_n vanishes identically in the regime 0 <= n <= m-1.

    Every verdict is exact: U_n = 0 exactly when the orbit residual of the
    numerator's alternant is empty, and a nonempty one, over the source's
    denominator, is the witness.  A raw MultiPoly that is not symmetric in
    x_1..x_m raises PreconditionError.
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if not 0 <= n <= m - 1:
        raise PreconditionError(
            f"zero relation needs 0 <= n <= m-1 (got n={n}, m={m}); "
            "use verify_conjecture2 for n >= m"
        )
    return _decide(_make_source(poly_source, n, m), m, zero=True)


def verify_conjecture2(poly_source, n: int, m: int) -> RelationReport:
    """Check that U_n at y = 1 is a symmetric polynomial of degree n - m.

    The closed-form residue G is certified by an empty orbit residual of
    H - M * pi(x) * G and returned in the power-sum basis with parts <= m;
    a nonempty residual, over the source's denominator, is the witness.  A
    raw MultiPoly that is not symmetric in x_1..x_m raises
    PreconditionError.
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if n < m:
        raise PreconditionError(
            f"residue relation needs n >= m (got n={n}, m={m}); "
            "use verify_conjecture1 for n <= m-1"
        )
    return _decide(_make_source(poly_source, n, m), m, zero=False)


def _decide(source: _Source, m: int, zero: bool) -> RelationReport:
    """Decide U_n = G, G = 0 for the zero relation, exactly, in the one
    stage orbit-certificate."""
    family, raw = ("C1", "C3-zero") if zero else ("C2", "C3-poly")
    report = RelationReport(family if source.family else raw, source.n, m, source.label, "unknown")
    try:
        with _stage(report, "orbit-certificate") as stage:
            residue = None if zero else _y_one_residue(source, m)
            terms, residual = _certificate(source, m, residue)
            if residual:
                stage.detail = f"{len(residual)} orbit representatives left"
            elif zero:
                stage.detail = f"Alt(H) = 0 on {terms} terms"
            else:
                stage.detail = f"closed-form residue G; Alt(H - M*pi(x)*G) = 0 on {terms} terms"
    except TermCapExceeded:
        report.verdict = "resource-limited"
        return report
    if residual:
        # The keys' width: n + m at general y, 1 at y = 1 (``_certificate``).
        return _close(report, _witness(residual, source.denominator, source.n + m if zero else 1))
    return _close(report, extracted=residue)


@contextmanager
def _stage(report: RelationReport, name: str):
    """Time the body as stage ``name``, described by the yielded record's
    ``detail``, and append it to ``report`` when the body ends or meets the
    term cap, whose message becomes the detail; any other error leaves it out."""
    record = Stage(name, "", 0.0)
    start = time.perf_counter()
    try:
        yield record
    except TermCapExceeded as exc:
        record.detail = str(exc)
        report.stages.append(record)
        raise
    record.seconds = time.perf_counter() - start
    report.stages.append(record)


def _close(report: RelationReport, witness=None, extracted=None) -> RelationReport:
    """Falsified with a witness, verified without one."""
    report.verdict = "verified" if witness is None else "falsified"
    report.witness = witness
    report.extracted = extracted
    return report


# ---------------------------------------------------------------------------
# Table extraction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def extract_z(n: int, m: int) -> PowerSumExpansion:
    """Coefficients of the degree-n residue of the fully symbolic family.

    Returns the expansion over all weight-n exponent vectors; keys with
    parts > m carry coefficient 0 (their power sums are dependent in m
    variables, and the canonical representative uses parts <= m only).
    Coefficients are polynomials in a_1..a_{n+m}.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 2:
        raise PreconditionError("residues need m >= 2; the m = 1 residue is identically zero")
    extracted = _y_one_residue(_make_source(SYMBOLIC_NAME, n + m), m)
    coefficients = {}
    for key in exponent_vectors(n, n if n else 1):
        coefficients[key] = extracted.coefficient(key)
    return PowerSumExpansion(n, m, coefficients)


def extract_y_basis(n: int, m: int, k: ExponentVector) -> PowerSumExpansion:
    """The degree-(n-m) residue of the single power-sum product indexed by k.

    The result is expressed over exponent vectors of weight n - m with
    parts <= m.
    """
    check_vector(tuple(k), n)
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if n < m:
        raise PreconditionError(f"residues need n >= m (got n={n}, m={m})")
    return _y_one_residue(_make_source(tuple(k), n), m)


def _y_one_residue(source: _Source, m: int) -> PowerSumExpansion:
    """U_n at y = 1 for a symmetric source, on an engine of its own."""
    return _ResidueEngine(m, source.n - m).residue(source)


class _ResidueEngine:
    """U_n at y = 1 as (-1)^m sum_nu F[nu] p^nu h_(d-w), w the weight of nu,
    for the symmetric sources of one m and one d = n - m ("Residues in closed
    form" above), in ints alone.

    A polynomial of weight <= d in p_1..p_d is held graded, as
    {weight: {packed exponents: int}}.  Field r of a packed int holds the
    exponent of p_r and has room for d // r, so a product kept to weight
    <= d never carries from one field into the next (the packing of
    ``MultiPoly.__mul__``, with no decoding).  ``_product`` is the one
    product.  The images are in p_1..p_m, so they use the fields r <= m.

    The memos of the q_k powers, the Newton tables, the p^nu and the images
    last as long as the engine, which serves the sources of one call only,
    so a term cap meets the same products whatever ran before.
    """

    def __init__(self, m: int, d: int):
        self.m = m
        self.d = d
        self.keys = exponent_vectors(d, m)
        self._unit = [0]  # the packed p_r, r = 1..d, increasing
        shift = 0
        for r in range(1, d + 1):
            self._unit.append(1 << shift)
            shift += (d // r).bit_length()
        self._packed_keys = [self._pack(key) for key in self.keys]
        self._powers: dict = {}  # (k, e) -> q_k^e up to weight d
        self._tables = None  # (p, h) in p_1..p_m, built for the first image
        self._monomials: dict = {0: ({0: {0: 1}}, 1)}  # packed nu -> p^nu integral, denominator
        self._images: dict = {}  # packed nu -> (vector, denominator)

    def _pack(self, vector) -> int:
        """The packed int of an exponent vector (e_1, e_2, ...) of p_1, p_2, ..."""
        return sum(e * unit for e, unit in zip(vector, self._unit[1:]))

    def _product(self, f: dict, g: dict) -> dict:
        """f * g up to weight d, for graded f and g.  Like ``MultiPoly.__mul__``,
        it refuses len(f) * len(g) terms above the term cap."""
        len_f = sum(map(len, f.values()))
        len_g = sum(map(len, g.values()))
        if not len_f or not len_g:
            return {}
        if len_f * len_g > get_term_cap():
            raise _cap_error(min(len_f, len_g), max(len_f, len_g))
        out: dict = {}
        for w1, part1 in f.items():
            for w2, part2 in g.items():
                if w1 + w2 > self.d:
                    continue
                acc = out.setdefault(w1 + w2, {})
                get = acc.get
                for k1, c1 in part1.items():
                    for k2, c2 in part2.items():
                        key = k1 + k2
                        acc[key] = get(key, 0) + c1 * c2
        return _nonzero(out)

    def _power(self, k: int, e: int) -> dict:
        if (k, e) not in self._powers:
            if e == 1:
                # t^k + sum_{r <= k} C(k, r) (-t)^(k-r) p_r with t implicit, up to weight d.
                q = {r: {self._unit[r]: comb(k, r) * (-1) ** (k - r)} for r in range(1, min(k, self.d) + 1)}
                if 1 + (-1) ** k * self.m:
                    q[0] = {0: 1 + (-1) ** k * self.m}
                self._powers[k, e] = q
            else:
                self._powers[k, e] = self._product(self._power(k, e - 1), self._power(k, 1))
        return self._powers[k, e]

    def free_form(self, source: _Source) -> dict:
        """F times the source's denominator, up to weight d:
        {weight: {packed free monomial: {monomial in the a_k: int}}}."""
        free: dict = {}
        for mono, coeff in source.poly.terms.items():
            # The a_k sort before the p_k, so the coefficient's monomial is a prefix.
            split = next(i for i, (v, _) in enumerate(mono) if v.kind == KIND_P)
            a = mono[:split]
            factors = (self._power(v.index, e) for v, e in mono[split:])
            for w, part in reduce(self._product, factors).items():
                by_nu = free.setdefault(w, {})
                for nu, c in part.items():
                    bucket = by_nu.setdefault(nu, {})
                    bucket[a] = bucket.get(a, 0) + coeff * c
        return free

    def _newton_tables(self) -> tuple:
        """(p, h): p_0..p_d of m variables written in p_1..p_m (p_0 = m), and
        h_0..h_d, each as (graded ints, least common denominator), by Newton's
        identities (Macdonald 1995, I.2):
        i e_i = sum_{j <= i} (-1)^(j-1) p_j e_(i-j) for i <= min(m, d),
        p_r = sum_{i <= m} (-1)^(i-1) e_i p_(r-i) for r > m (e_i = 0 for i > m),
        and h_j = sum_{i <= min(j, m)} (-1)^(i-1) e_i h_(j-i).
        """
        m, d = self.m, self.d
        one = ({0: {0: 1}}, 1)
        p = [({0: {0: m}}, 1)] + [({r: {self._unit[r]: 1}}, 1) for r in range(1, min(m, d) + 1)]
        e = [one]
        for i in range(1, min(m, d) + 1):
            e.append(self._combination([((-1) ** (j - 1), p[j], e[i - j]) for j in range(1, i + 1)], i))
        for r in range(m + 1, d + 1):
            p.append(self._combination([((-1) ** (i - 1), e[i], p[r - i]) for i in range(1, m + 1)]))
        h = [one]
        for j in range(1, d + 1):
            h.append(self._combination([((-1) ** (i - 1), e[i], h[j - i]) for i in range(1, min(j, m) + 1)]))
        return p, h

    def _combination(self, terms: list, divisor: int = 1) -> tuple:
        """(sum of c * f * g over (c, (f, f's denominator), (g, g's)) in
        ``terms``) / divisor, as (graded ints, least common denominator)."""
        denominator = divisor * lcm(*(df * dg for _, (_, df), (_, dg) in terms))
        total: dict = {}
        for c, (f, df), (g, dg) in terms:
            lift = c * denominator // (divisor * df * dg)
            for w, part in self._product(f, g).items():
                acc = total.setdefault(w, {})
                for k, v in part.items():
                    acc[k] = acc.get(k, 0) + lift * v
        return _lowest(_nonzero(total), denominator)

    def _monomial(self, nu: int) -> tuple:
        """p^nu in p_1..p_m as (graded ints, least common denominator), peeled
        off its parent p^(nu - e_r), r the least index of nu, by one product."""
        if nu not in self._monomials:
            r = bisect_right(self._unit, nu & -nu) - 1  # the field of nu's lowest set bit
            parent, parent_denominator = self._monomial(nu - self._unit[r])
            p_r, denominator = self._tables[0][r]
            self._monomials[nu] = _lowest(self._product(parent, p_r), parent_denominator * denominator)
        return self._monomials[nu]

    def image(self, nu: int, w: int) -> tuple:
        """(vector, denominator): p^nu h_(d-w) in p_1..p_m times its least
        common denominator, as {packed key: int} over its nonzero keys."""
        if nu not in self._images:
            if self._tables is None:
                self._tables = self._newton_tables()
            monomial, denominator = self._monomial(nu)
            h, h_denominator = self._tables[1][self.d - w]
            image, denominator = _lowest(self._product(monomial, h), denominator * h_denominator)
            self._images[nu] = image.get(self.d, {}), denominator
        return self._images[nu]

    def residue(self, source: _Source) -> PowerSumExpansion:
        """(-1)^m sum_nu F[nu] image(nu), over every weight-d key with parts <= m.

        Each image is brought to the least common denominator of the images
        used, which is divided out once at the end with the source's.  The
        sum is one int vector per monomial in the a_k, over packed keys.
        """
        free = self.free_form(source)
        images = [(self.image(nu, w), coeffs) for w, by_nu in free.items() for nu, coeffs in by_nu.items()]
        common = lcm(1, *(denominator for (_, denominator), _ in images))
        totals: dict = {}  # monomial in the a_k -> {packed key: int}
        for (vector, denominator), coeffs in images:
            lift = common // denominator
            for a, c in coeffs.items():
                acc = totals.setdefault(a, {})
                get = acc.get
                c *= lift
                for key, v in vector.items():
                    acc[key] = get(key, 0) + c * v
        scale = Fraction((-1) ** self.m, source.denominator * common)
        coefficients = {}
        for key, packed in zip(self.keys, self._packed_keys):
            bucket = {a: acc[packed] for a, acc in totals.items() if packed in acc}
            coefficients[key] = _coefficient(bucket, scale)
        return PowerSumExpansion(self.d, self.m, coefficients)


def _nonzero(poly: dict) -> dict:
    """The graded ints ``poly`` without their zero terms and empty weights."""
    return {w: kept for w, part in poly.items() if (kept := {k: c for k, c in part.items() if c})}


def _lowest(poly: dict, denominator: int) -> tuple:
    """(poly, denominator) of graded ints with their common factor divided out."""
    g = gcd(denominator, *(c for part in poly.values() for c in part.values()))
    if g == 1:
        return poly, denominator
    return {w: {k: c // g for k, c in part.items()} for w, part in poly.items()}, denominator // g


def _coefficient(bucket: dict, scale: Fraction):
    """scale * the polynomial {monomial in the a_k: int} ``bucket``: a
    Fraction when it has no a-monomial, as ``_normalize_coefficient`` gives."""
    if bucket.keys() <= {()}:
        return scale * bucket.get((), 0)
    return _normalize_coefficient(MultiPoly({a: c * scale for a, c in bucket.items()}))
