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

Implementation note: every denominator pi(s_i) equals, up to sign,
x_i times the product of the pair factors w_ij = y_i x_j - y_j x_i that
involve i.  The least common denominator of U_n is therefore
pi(x) * W with W = prod_{i<j} w_ij, and the engine expands numerators over
that product (each w_ij taken once), not over the much larger product
pi(x) * prod_i pi(s_i).  Both denominators are products of the same linear
factors, so residue extraction still divides factor by factor; the public
:func:`u_function` keeps the full-product form and doubles as an
independent cross-check of the engine.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .families import (
    SYMBOLIC_NAME,
    FamilySpec,
    get_family,
    symbolic_family_polynomial,
)
from .partitions import ExponentVector, check_vector, exponent_vectors
from .polyring import (
    KIND_A,
    KIND_X,
    KIND_Y,
    MultiPoly,
    NonDivisibleError,
    RationalFunction,
    TermCapExceeded,
    VarId,
    ratfunc_combine,
)
from .symmfunc import (
    PowerSumExpansion,
    complete_bell,
    denominator_product,
    is_symmetric,
    power_sums_of,
    to_power_sum_basis,
)

__all__ = [
    "SMatrix",
    "RelationReport",
    "PreconditionError",
    "build_s_matrix",
    "u_function",
    "verify_conjecture1",
    "verify_conjecture2",
    "extract_z",
    "extract_y_basis",
]

PRESCREEN_POINTS = 3
_PRESCREEN_SEED = 0x5EED


class PreconditionError(ValueError):
    """The (n, m) regime does not match the requested check."""


@dataclass(frozen=True)
class SMatrix:
    """The m x m substitution matrix; rows are fed into the polynomial under test."""

    m: int
    entries: tuple  # tuple of m tuples of MultiPoly

    def row(self, i: int) -> tuple:
        """Row i (1-based)."""
        return self.entries[i - 1]


def build_s_matrix(m: int) -> SMatrix:
    """Entries s_ij = y_i x_j - y_j x_i + x_i delta_ij; the diagonal is x_i."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rows = []
    for i in range(1, m + 1):
        row = []
        for j in range(1, m + 1):
            if i == j:
                row.append(MultiPoly.x(i))
            else:
                row.append(MultiPoly.y(i) * MultiPoly.x(j) - MultiPoly.y(j) * MultiPoly.x(i))
        rows.append(tuple(row))
    return SMatrix(m, tuple(rows))


@lru_cache(maxsize=None)
def _rows_at(m: int, y_one: bool) -> tuple:
    """Rows of the substitution matrix, optionally specialized to y = 1."""
    matrix = build_s_matrix(m)
    if not y_one:
        return matrix.entries
    ones = {VarId(KIND_Y, i): 1 for i in range(1, m + 1)}
    return tuple(
        tuple(entry.substitute(ones) for entry in row) for row in matrix.entries
    )


@lru_cache(maxsize=None)
def _pair_factor(i: int, j: int, y_one: bool) -> MultiPoly:
    """w_ij = y_i x_j - y_j x_i (x_j - x_i at y = 1), for i < j."""
    if y_one:
        return MultiPoly.x(j) - MultiPoly.x(i)
    return MultiPoly.y(i) * MultiPoly.x(j) - MultiPoly.y(j) * MultiPoly.x(i)


@lru_cache(maxsize=None)
def _pair_product(m: int, y_one: bool) -> MultiPoly:
    out = MultiPoly.one()
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            out = out * _pair_factor(i, j, y_one)
    return out


@lru_cache(maxsize=None)
def _cofactor(m: int, i: int, y_one: bool) -> MultiPoly:
    """(prod_{j != i} x_j) * prod of pair factors not involving i."""
    mono = tuple((VarId(KIND_X, j), 1) for j in range(1, m + 1) if j != i)
    out = MultiPoly({(mono, 1)})
    for u in range(1, m + 1):
        for v in range(u + 1, m + 1):
            if u != i and v != i:
                out = out * _pair_factor(u, v, y_one)
    return out


# ---------------------------------------------------------------------------
# Polynomial sources
# ---------------------------------------------------------------------------


class _Source:
    """A degree-n symmetric polynomial that can be instantiated on any
    component vector (plain variables, matrix rows, or numeric points)."""

    kind = "raw"
    label = "?"
    n = 0
    a_indices: tuple = ()

    def on_components(self, comps: Sequence) -> MultiPoly:
        raise NotImplementedError

    def value_at(self, values: Sequence[Fraction], a_values=None) -> Fraction:
        raise NotImplementedError

    def polynomial(self, m: int) -> MultiPoly:
        return self.on_components([MultiPoly.x(i) for i in range(1, m + 1)])


class _FamilySource(_Source):
    kind = "family"

    def __init__(self, spec: FamilySpec, n: int):
        self.spec = spec
        self.n = n
        self.label = spec.name

    def on_components(self, comps):
        if self.n == 0:
            return MultiPoly.constant(self.spec.b_norm(0))
        sums = power_sums_of(list(comps), self.n)
        f = [self.spec.a_coeff(k) * sums[k - 1] for k in range(1, self.n + 1)]
        return self.spec.b_norm(self.n) * complete_bell(self.n, f)

    def value_at(self, values, a_values=None):
        if self.n == 0:
            return Fraction(self.spec.b_norm(0))
        sums = power_sums_of([Fraction(v) for v in values], self.n)
        f = [self.spec.a_coeff(k) * sums[k - 1] for k in range(1, self.n + 1)]
        return self.spec.b_norm(self.n) * complete_bell(self.n, f)


class _SymbolicSource(_Source):
    kind = "symbolic"

    def __init__(self, n: int):
        self.n = n
        self.label = SYMBOLIC_NAME
        self.a_indices = tuple(range(1, n + 1))

    def on_components(self, comps):
        if self.n == 0:
            return MultiPoly.one()
        sums = power_sums_of(list(comps), self.n)
        f = [MultiPoly.a(k) * sums[k - 1] for k in range(1, self.n + 1)]
        result = complete_bell(self.n, f)
        return result if isinstance(result, MultiPoly) else MultiPoly.constant(result)

    def value_at(self, values, a_values=None):
        if self.n == 0:
            return Fraction(1)
        a_values = a_values or {}
        sums = power_sums_of([Fraction(v) for v in values], self.n)
        f = [a_values[k] * sums[k - 1] for k in range(1, self.n + 1)]
        return complete_bell(self.n, f)

    def polynomial(self, m: int) -> MultiPoly:
        return symbolic_family_polynomial(self.n, m)


class _BasisSource(_Source):
    kind = "basis"

    def __init__(self, key: ExponentVector):
        self.key = tuple(key)
        self.n = sum((i + 1) * e for i, e in enumerate(self.key))
        check_vector(self.key, self.n)
        self.label = "P_" + "{" + ",".join(map(str, self.key)) + "}"

    def on_components(self, comps):
        top = max((i + 1 for i, e in enumerate(self.key) if e), default=0)
        if top == 0:
            return MultiPoly.one()
        sums = power_sums_of(list(comps), top)
        out = MultiPoly.one()
        for i, e in enumerate(self.key):
            if e:
                out = out * sums[i] ** e
        return out

    def value_at(self, values, a_values=None):
        top = max((i + 1 for i, e in enumerate(self.key) if e), default=0)
        if top == 0:
            return Fraction(1)
        sums = power_sums_of([Fraction(v) for v in values], top)
        out = Fraction(1)
        for i, e in enumerate(self.key):
            if e:
                out *= sums[i] ** e
        return out


class _ExpansionSource(_Source):
    kind = "expansion"

    def __init__(self, expansion: PowerSumExpansion):
        self.expansion = expansion
        self.n = expansion.weight
        self.label = f"expansion(weight={expansion.weight})"

    def on_components(self, comps):
        out = MultiPoly.zero()
        for key, coeff in self.expansion.coefficients.items():
            out = out + coeff * _BasisSource(key).on_components(comps)
        return out

    def value_at(self, values, a_values=None):
        total = Fraction(0)
        for key, coeff in self.expansion.coefficients.items():
            if isinstance(coeff, MultiPoly):
                raise ValueError("numeric evaluation of a symbolic expansion")
            total += coeff * _BasisSource(key).value_at(values)
        return total


class _RawSource(_Source):
    kind = "raw"

    def __init__(self, poly: MultiPoly, m: int):
        self.poly = poly
        self.m = m
        degrees = {
            sum(e for v, e in mono if v.kind == KIND_X) for mono in poly.terms
        }
        if len(degrees) > 1:
            raise ValueError("raw polynomial must be homogeneous in x")
        self.n = degrees.pop() if degrees else 0
        self.label = "raw"

    def on_components(self, comps):
        mapping = {
            VarId(KIND_X, j): comps[j - 1] for j in range(1, self.m + 1)
        }
        return self.poly.substitute(mapping)

    def value_at(self, values, a_values=None):
        assignment = {VarId(KIND_X, j): values[j - 1] for j in range(1, self.m + 1)}
        if a_values:
            assignment.update({VarId(KIND_A, k): v for k, v in a_values.items()})
        return self.poly.evaluate(assignment)


def _make_source(poly_source, n: int, m: int) -> _Source:
    """Normalize the accepted source spellings into a _Source."""
    if isinstance(poly_source, _Source):
        source = poly_source
    elif isinstance(poly_source, FamilySpec):
        source = _FamilySource(poly_source, n)
    elif isinstance(poly_source, str):
        if poly_source.lower() == SYMBOLIC_NAME:
            source = _SymbolicSource(n)
        else:
            source = _FamilySource(get_family(poly_source), n)
    elif isinstance(poly_source, PowerSumExpansion):
        source = _ExpansionSource(poly_source)
    elif isinstance(poly_source, tuple):
        source = _BasisSource(poly_source)
    elif isinstance(poly_source, MultiPoly):
        source = _RawSource(poly_source, m)
    else:
        raise TypeError(f"cannot interpret {poly_source!r} as a polynomial source")
    if source.n != n:
        raise ValueError(f"source has degree {source.n}, expected n = {n}")
    return source


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Stage:
    name: str
    detail: str
    seconds: float

    def to_json(self):
        return {"name": self.name, "detail": self.detail, "seconds": round(self.seconds, 6)}


@dataclass
class RelationReport:
    conjecture_id: str  # C1 | C2 | C3-zero | C3-poly
    n: int
    m: int
    source_label: str
    verdict: str  # verified | falsified | resource-limited
    witness: Optional[object] = None
    extracted: Optional[PowerSumExpansion] = None
    stages: list = field(default_factory=list)

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
            out["witness"] = _witness_json(self.witness)
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


def _witness_json(witness):
    if isinstance(witness, dict):
        return {str(k): str(v) for k, v in witness.items()}
    return str(witness)


def _zero_conjecture_id(source: _Source) -> str:
    return "C1" if source.kind in ("family", "symbolic") else "C3-zero"


def _poly_conjecture_id(source: _Source) -> str:
    return "C2" if source.kind in ("family", "symbolic") else "C3-poly"


# ---------------------------------------------------------------------------
# The U function
# ---------------------------------------------------------------------------


def u_function(
    s_poly: MultiPoly, n: int, m: int, specialize_y: bool = False
) -> RationalFunction:
    """U_n as a rational function over the product of all the denominators.

    This is the direct construction: each term S(s_i) / pi(s_i) is built by
    generic substitution and combined over the full product denominator
    pi(x) * prod_i pi(s_i).  It is the slow reference path; verification and
    extraction use the least-common-denominator engine instead.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    exponent = m - n - 1
    if exponent < 0 and not specialize_y:
        raise PreconditionError(
            "general-y U is only defined for n <= m-1; set specialize_y for n >= m"
        )
    source = _RawSource(s_poly, m)
    if source.n != n:
        raise ValueError(f"polynomial has degree {source.n}, expected {n}")
    rows = _rows_at(m, specialize_y)
    x_vars = [MultiPoly.x(i) for i in range(1, m + 1)]
    parts = [(MultiPoly.one(), RationalFunction(s_poly, denominator_product(x_vars)))]
    for i in range(1, m + 1):
        row = list(rows[i - 1])
        weight = MultiPoly.one() if specialize_y else MultiPoly.y(i) ** exponent
        parts.append(
            (
                -weight,
                RationalFunction(source.on_components(row), denominator_product(row)),
            )
        )
    return ratfunc_combine(parts)


def _u_numerator(source: _Source, n: int, m: int, y_one: bool):
    """Numerator of U_n over the least common denominator pi(x) * W.

    Returns (numerator, variable factors, difference factor pairs); the
    denominator is the product of x_1..x_m and the pair factors w_ij.
    """
    exponent = m - n - 1
    if exponent < 0 and not y_one:
        raise PreconditionError("general-y U requires n <= m-1")
    rows = _rows_at(m, y_one)
    numerator = source.polynomial(m) * _pair_product(m, y_one)
    for i in range(1, m + 1):
        term = source.on_components(list(rows[i - 1])) * _cofactor(m, i, y_one)
        if not y_one and exponent > 0:
            term = term * MultiPoly.y(i) ** exponent
        if i % 2:
            numerator = numerator - term
        else:
            numerator = numerator + term
    var_factors = [VarId(KIND_X, i) for i in range(1, m + 1)]
    diff_factors = [
        (VarId(KIND_X, j), VarId(KIND_X, i))
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
    ]
    return numerator, var_factors, diff_factors


# ---------------------------------------------------------------------------
# Prescreen
# ---------------------------------------------------------------------------


def _random_point(rng: random.Random, m: int, y_one: bool):
    """Distinct nonzero rationals with every denominator factor nonzero."""
    for _ in range(200):
        xs = []
        seen = set()
        while len(xs) < m:
            value = Fraction(rng.randint(1, 60), rng.randint(1, 7)) * rng.choice((1, -1))
            if value and value not in seen:
                seen.add(value)
                xs.append(value)
        if y_one:
            ys = [Fraction(1)] * m
        else:
            ys = [Fraction(rng.randint(1, 60), rng.randint(1, 7)) for _ in range(m)]
        ok = True
        for i in range(m):
            for j in range(i + 1, m):
                if ys[i] * xs[j] - ys[j] * xs[i] == 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return xs, ys
    raise RuntimeError("could not sample a valid evaluation point")


def _u_value_at(source: _Source, n: int, m: int, xs, ys, a_values) -> Fraction:
    """Exact value of U_n at a numeric point (no polynomial expansion)."""
    exponent = m - n - 1
    pi_x = Fraction(1)
    for v in xs:
        pi_x *= v
    total = source.value_at(xs, a_values) / pi_x
    for i in range(1, m + 1):
        row_vals = []
        pi_row = Fraction(1)
        for j in range(1, m + 1):
            if i == j:
                entry = xs[i - 1]
            else:
                entry = ys[i - 1] * xs[j - 1] - ys[j - 1] * xs[i - 1]
            row_vals.append(entry)
            pi_row *= entry
        total -= ys[i - 1] ** exponent * source.value_at(row_vals, a_values) / pi_row
    return total


def _prescreen(source: _Source, n: int, m: int, points: int, seed: int):
    """Random-evaluation falsification attempt; sound but not complete."""
    rng = random.Random(seed)
    for _ in range(points):
        xs, ys = _random_point(rng, m, y_one=False)
        a_values = {
            k: Fraction(rng.randint(1, 40), rng.randint(1, 5))
            for k in source.a_indices
        }
        value = _u_value_at(source, n, m, xs, ys, a_values)
        if value != 0:
            witness = {f"x_{i+1}": xs[i] for i in range(m)}
            witness.update({f"y_{i+1}": ys[i] for i in range(m)})
            witness.update({f"a_{k}": v for k, v in a_values.items()})
            witness["value"] = value
            return witness
    return None


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_conjecture1(
    poly_source,
    n: int,
    m: int,
    prescreen_points: int = PRESCREEN_POINTS,
    seed: int = _PRESCREEN_SEED,
) -> RelationReport:
    """Check that U_n vanishes identically in the regime 0 <= n <= m-1.

    A randomized evaluation prescreen may short-circuit to a falsified
    verdict with the witness point; the authoritative verdict is the exact
    expansion of the numerator.
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if not 0 <= n <= m - 1:
        raise PreconditionError(
            f"zero relation needs 0 <= n <= m-1 (got n={n}, m={m}); "
            "use verify_conjecture2 for n >= m"
        )
    source = _make_source(poly_source, n, m)
    conjecture = _zero_conjecture_id(source)
    report = RelationReport(conjecture, n, m, source.label, "unknown")
    try:
        if prescreen_points > 0:
            start = time.perf_counter()
            witness = _prescreen(source, n, m, prescreen_points, seed)
            report.stages.append(
                Stage("prescreen", f"{prescreen_points} points", time.perf_counter() - start)
            )
            if witness is not None:
                report.verdict = "falsified"
                report.witness = witness
                return report
        start = time.perf_counter()
        numerator, _, _ = _u_numerator(source, n, m, y_one=False)
        report.stages.append(
            Stage("expand", f"{len(numerator)} numerator terms", time.perf_counter() - start)
        )
    except TermCapExceeded as exc:
        report.verdict = "resource-limited"
        report.stages.append(Stage("expand", str(exc), 0.0))
        return report
    if numerator.is_zero():
        report.verdict = "verified"
    else:
        report.verdict = "falsified"
        report.witness = numerator
    return report


def verify_conjecture2(poly_source, n: int, m: int) -> RelationReport:
    """Check that U_n at y = 1 is a symmetric polynomial of degree n - m.

    The numerator is expanded over the least common denominator and divided
    by its linear factors one at a time; a nonzero remainder falsifies the
    polynomiality claim.  On success the quotient is returned in the
    power-sum basis with parts <= m.
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if n < m:
        raise PreconditionError(
            f"residue relation needs n >= m (got n={n}, m={m}); "
            "use verify_conjecture1 for n <= m-1"
        )
    source = _make_source(poly_source, n, m)
    conjecture = _poly_conjecture_id(source)
    report = RelationReport(conjecture, n, m, source.label, "unknown")
    try:
        start = time.perf_counter()
        numerator, var_factors, diff_factors = _u_numerator(source, n, m, y_one=True)
        report.stages.append(
            Stage("expand", f"{len(numerator)} numerator terms", time.perf_counter() - start)
        )
        start = time.perf_counter()
        quotient = numerator
        try:
            for var in var_factors:
                quotient = quotient.divide_by_variable(var)
            for u, w in diff_factors:
                quotient = quotient.divide_by_difference(u, w)
        except NonDivisibleError as exc:
            report.verdict = "falsified"
            report.witness = exc.remainder if exc.remainder is not None else str(exc)
            report.stages.append(Stage("divide", "nonzero remainder", time.perf_counter() - start))
            return report
        report.stages.append(
            Stage("divide", f"{len(quotient)} quotient terms", time.perf_counter() - start)
        )
        start = time.perf_counter()
        if not quotient.is_zero():
            x_degrees = {
                sum(e for v, e in mono if v.kind == KIND_X) for mono in quotient.terms
            }
            if x_degrees != {n - m}:
                report.verdict = "falsified"
                report.witness = quotient
                return report
            if not is_symmetric(quotient, m):
                report.verdict = "falsified"
                report.witness = quotient
                return report
        extracted = to_power_sum_basis(quotient, m, max_part=m, weight=n - m)
        report.stages.append(
            Stage("basis", f"{len(extracted.coefficients)} basis keys", time.perf_counter() - start)
        )
    except TermCapExceeded as exc:
        report.verdict = "resource-limited"
        report.stages.append(Stage("expand", str(exc), 0.0))
        return report
    report.verdict = "verified"
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
    report = verify_conjecture2(_SymbolicSource(n + m), n + m, m)
    if not report.verified:
        raise ArithmeticError(
            f"residue extraction failed for n={n}, m={m}: {report.verdict} ({report.witness})"
        )
    extracted = report.extracted
    coefficients = {}
    for key in exponent_vectors(n, n if n else 1):
        coefficients[key] = extracted.coefficient(key)
    return PowerSumExpansion(n, m, coefficients)


@lru_cache(maxsize=None)
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
    report = verify_conjecture2(_BasisSource(tuple(k)), n, m)
    if not report.verified:
        raise ArithmeticError(
            f"residue extraction failed for n={n}, m={m}, k={k}: "
            f"{report.verdict} ({report.witness})"
        )
    return report.extracted
