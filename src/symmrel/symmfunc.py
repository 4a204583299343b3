"""Power sums, power-sum products, and conversion of symmetric polynomials
into the power-sum-product basis.

The products ``P_{n,k} = p_1^k_1 * ... * p_n^k_n`` indexed by exponent
vectors k with parts <= m form a basis of the homogeneous symmetric
polynomials of degree n in m variables.  In the power-sum variables p_k
(``polyring.KIND_P``) a polynomial is already in that basis.  From x
monomials, the route of raw input, :func:`to_power_sum_basis` checks symmetry
and homogeneity and inverts the basis by an exact linear solve on monomial
coefficients.  Coefficients may themselves be polynomials in the ``a_i``
symbols (symbolic mode): the matrix of the solve is always rational, so
elimination never divides by a polynomial.  :func:`gauss_jordan` is that
solve's exact ``Fraction`` elimination; the coefficient solver in ``solver``
eliminates its larger, right-hand-side-free system with a certified
multimodular kernel instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence, Union

from .partitions import ExponentVector, exponent_vectors, vector_weight
from .polyring import KIND_A, KIND_P, KIND_X, MultiPoly, VarId

__all__ = [
    "PowerSumExpansion",
    "power_sum",
    "power_sum_product",
    "power_sum_monomial",
    "to_power_sum_basis",
    "is_symmetric",
    "x_degrees",
    "gauss_jordan",
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


@dataclass(frozen=True)
class PowerSumExpansion:
    """A symmetric polynomial written as sum c_k * p_1^k_1 ... p_n^k_n.

    ``coefficients`` maps exponent vectors (weight = ``weight``) to exact
    rationals, or to MultiPoly values in the a_i symbols in symbolic mode.
    The dict carries every key of its key set in listing order, including
    explicit zeros, so serialized tables have a stable positional layout.
    """

    weight: int
    num_vars: int
    coefficients: Mapping[ExponentVector, Coefficient] = field(default_factory=dict)

    def __post_init__(self):
        for key in self.coefficients:
            if vector_weight(key) != self.weight:
                raise ValueError(f"key {key} does not have weight {self.weight}")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients.values())

    def coefficient(self, key: ExponentVector) -> Coefficient:
        return self.coefficients.get(key, Fraction(0))

    def to_polynomial(self) -> MultiPoly:
        """Expand back into the x variables (times any symbolic coefficients)."""
        out = MultiPoly.zero()
        for key, coeff in self.coefficients.items():
            if coeff == 0:
                continue
            out = out + coeff * power_sum_product(key, self.num_vars)
        return out

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


@lru_cache(maxsize=None)
def power_sum_product(k: ExponentVector, m: int) -> MultiPoly:
    """The expanded product p_1^k_1 * p_2^k_2 * ... over m variables."""
    out = MultiPoly.one()
    for part, exp in enumerate(k, start=1):
        if exp:
            out = out * power_sum(part, m) ** exp
    return out


def power_sums_of(values: Sequence, up_to: int):
    """Power sums p_1..p_up_to of an explicit component vector.

    Components may be MultiPoly (rows of a substitution matrix) or exact
    rationals (numeric evaluation); the result list is 1-indexed via
    position 0 holding p_1.
    """
    if up_to < 1:
        return []
    powers = list(values)
    sums = [sum(powers[1:], powers[0])]
    for _ in range(2, up_to + 1):
        powers = [p * v for p, v in zip(powers, values)]
        sums.append(sum(powers[1:], powers[0]))
    return sums


def power_sum_monomial(k: ExponentVector) -> MultiPoly:
    """p_1^k_1 * p_2^k_2 * ... in the power-sum variables."""
    return MultiPoly([(tuple((VarId(KIND_P, i), e) for i, e in enumerate(k, 1) if e), 1)])


def is_symmetric(p: MultiPoly, m: int) -> bool:
    """Check invariance under x_1<->x_2 and the full cycle x_1->x_2->...->x_1.

    The two substitutions generate the symmetric group, so this is a
    complete symmetry test with two substitutions instead of m!.
    """
    if m == 1:
        return True
    x = [VarId(KIND_X, i) for i in range(1, m + 1)]
    swap = {x[0]: MultiPoly.variable(x[1]), x[1]: MultiPoly.variable(x[0])}
    if p.substitute(swap) != p:
        return False
    cycle = {x[i]: MultiPoly.variable(x[(i + 1) % m]) for i in range(m)}
    return p.substitute(cycle) == p


def x_degrees(p: MultiPoly) -> set:
    """The total degrees in the x variables of the terms of p."""
    return {sum(e for v, e in mono if v.kind == KIND_X) for mono in p.terms}


def _split_x_part(p: MultiPoly):
    """Split every term into its x-monomial and the residual coefficient.

    Returns a dict x-monomial -> MultiPoly in the remaining (a) variables.
    Rejects any other variable, naming it: basis conversion is only defined
    for the x ring with optional a-symbol coefficients.
    """
    rows: dict = {}
    for mono, coeff in p.terms.items():
        x_part = []
        rest = []
        for var, exp in mono:
            if var.kind == KIND_X:
                x_part.append((var, exp))
            elif var.kind == KIND_A:
                rest.append((var, exp))
            else:
                raise ValueError(
                    f"basis conversion got variable {var!r}; it takes the x_i and the a_k alone"
                )
        bucket = rows.setdefault(tuple(x_part), {})
        key = tuple(rest)
        bucket[key] = bucket.get(key, 0) + coeff
    out = {}
    for mono, bucket in rows.items():
        poly = MultiPoly(bucket)
        if not poly.is_zero():
            out[mono] = poly
    return out


def to_power_sum_basis(
    p: MultiPoly,
    m: int,
    max_part: int,
    weight: int | None = None,
) -> PowerSumExpansion:
    """Write a symmetric homogeneous polynomial in the power-sum-product basis.

    Solves the exact linear system matching monomial coefficients against
    the basis products with parts <= max_part.  The basis must be
    independent (guaranteed for max_part <= m); an underdetermined system
    is rejected rather than resolved arbitrarily.  ``weight`` fixes the
    degree of the zero polynomial; a nonzero p of another degree raises
    NotHomogeneousError, as a p of mixed degrees does.
    """
    if p.is_zero():
        if weight is None:
            raise ValueError("the zero polynomial needs an explicit weight")
        keys = exponent_vectors(weight, max_part)
        return PowerSumExpansion(weight, m, {k: Fraction(0) for k in keys})
    # Homogeneity is measured in the x variables only; a-symbol factors in
    # the coefficients carry their own independent grading.
    degrees = x_degrees(p)
    if len(degrees) > 1:
        raise NotHomogeneousError("polynomial is not homogeneous in the x variables")
    degree = degrees.pop()
    if weight is not None and weight != degree:
        raise NotHomogeneousError(f"stated weight {weight} does not match degree {degree}")
    if not is_symmetric(p, m):
        raise NotSymmetricError(f"polynomial is not symmetric in x_1..x_{m}")

    keys = exponent_vectors(degree, max_part)
    basis_rows = [_split_x_part(power_sum_product(k, m)) for k in keys]
    target = _split_x_part(p)

    monomials = set(target)
    for row in basis_rows:
        monomials.update(row)
    monomials = sorted(monomials)

    # One rational matrix column per basis key; the right-hand side may be
    # symbolic (MultiPoly in a variables).
    zero = MultiPoly.zero()
    matrix = [
        [Fraction(basis_rows[j].get(mono, zero).constant_term()) for j in range(len(keys))]
        for mono in monomials
    ]
    rhs = [target.get(mono, zero) for mono in monomials]

    pivots, _, values = gauss_jordan(matrix, range(len(keys)), rhs)
    if len(pivots) < len(keys):
        raise NotRepresentableError("basis is not independent: underdetermined column")
    pivot_rows = set(pivots.values())
    if any(v != 0 for r, v in enumerate(values) if r not in pivot_rows):
        raise NotRepresentableError("polynomial is outside the span of the requested basis")
    coefficients = {
        key: _normalize_coefficient(values[pivots[col]]) for col, key in enumerate(keys)
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
