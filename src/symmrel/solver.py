"""The coefficient solvers built on the residue tables.

Two solvers live here:

* :func:`solve_c_coefficients` -- assembles the homogeneous linear system
  that makes every degree-(n-m) residue vanish for all 2 <= m <= n, as int
  rows read straight off the residue engine's int vectors, and
  parametrizes its solutions with the table's free-key convention (earliest
  keys in listing order stay free);
* :func:`sequential_a_elimination` -- walks the symbolic residue
  coefficients in increasing total order and eliminates each a_k in turn,
  which pins every a_k as a polynomial in a_1 and exposes the nonlinear
  relations among Bernoulli numbers checked by
  :func:`verify_nonlinear_bernoulli`.  Each a-monomial of the equations is
  substituted once per resolved index, by ``MultiPoly.substitute``, and
  its image kept until the next index is resolved.

The C system is eliminated by the library's one exact-elimination kernel,
:func:`symmrel.symmfunc._certified_rref`, which the power-sum basis
conversion shares: certified multimodular Gauss-Jordan elimination, with
the free keys the columns left without a pivot.  Scaling a row by a nonzero
int leaves its result unchanged, so each row of one m may carry that m's
common denominator; :func:`residue_system` is the rational view of the same
rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Mapping, NamedTuple, Optional, Sequence

from .exactnum import bernoulli_numbers
from .partitions import ExponentVector, exponent_vectors
from .polyring import KIND_A, MultiPoly, VarId
from .relations import _make_source, _Record, _ResidueEngine, extract_z
from .symmfunc import PowerSumExpansion, _certified_rref

__all__ = [
    "CSolution",
    "EliminationError",
    "solve_c_coefficients",
    "reconstruct_s_bar",
    "sequential_a_elimination",
    "verify_bernoulli_identity",
    "verify_nonlinear_bernoulli",
    "bernoulli_reconstruction_check",
    "AEliminationReport",
    "NonlinearRelationReport",
    "NONLINEAR_RELATIONS",
    "TABULATED_BERNOULLI_FREE_VALUES",
]


class EliminationError(ArithmeticError):
    """The sequential elimination hit an equation it cannot solve."""


# ---------------------------------------------------------------------------
# The C-coefficient family
# ---------------------------------------------------------------------------


class CSolution(NamedTuple):
    """Parametrized solution of the residue-vanishing system for one n.

    ``dependent`` maps each non-free key to the linear form giving its value
    over the free keys; substituting any free values yields a coefficient
    family whose residues vanish for every 2 <= m <= n.
    """

    n: int
    key_order: tuple
    free_keys: tuple
    dependent: Mapping[ExponentVector, Mapping[ExponentVector, Fraction]]
    equations: int

    @property
    def nullspace_dimension(self) -> int:
        return len(self.free_keys)

    def coefficient_map(self, free_values: Mapping[ExponentVector, Fraction]) -> dict:
        missing = [k for k in self.free_keys if k not in free_values]
        if missing:
            raise ValueError(f"missing free values for keys {missing}")
        out = {}
        for key in self.key_order:
            if key in self.dependent:
                out[key] = sum(
                    (coeff * Fraction(free_values[fk]) for fk, coeff in self.dependent[key].items()),
                    Fraction(0),
                )
            else:
                out[key] = Fraction(free_values[key])
        return out


def _integer_system(n: int) -> tuple[list[list[int]], list[int], tuple]:
    """The equations 'every residue basis coefficient vanishes', as int rows.

    One column per weight-n exponent vector in listing order; one row per
    (m, weight-(n-m) basis key with parts <= m) for m = 2..n, with its
    scale: the row over its scale is that basis key's coefficient in the
    residue of each column's key.  The residues of one m share one engine,
    so each power q_k^e and each image is formed once per m; each key's
    source is made once.  Each key's int vector is lifted to the lcm of
    that m's denominators, which is the scale of every row of that m.
    """
    keys = tuple(exponent_vectors(n, n))
    sources = [_make_source(k, n) for k in keys]
    rows, scales = [], []
    for m in range(2, n + 1):
        engine = _ResidueEngine(m, n - m)
        vectors = [engine.vectors(source) for source in sources]
        scale = lcm(*(abs(denominator) for _, denominator in vectors))
        columns = []
        for totals, denominator in vectors:
            lift = scale // denominator
            # A power-sum product has no a_k, so () is its one monomial in them.
            columns.append({key: v * lift for key, v in totals.get((), {}).items()})
        for packed in engine._packed_keys:
            rows.append([column.get(packed, 0) for column in columns])
            scales.append(scale)
    return rows, scales, keys


def residue_system(n: int) -> tuple[list[list[Fraction]], tuple]:
    """The C system as rational rows: each int row of ``_integer_system``
    over its scale, so the row of (m, basis key) holds that basis key's
    coefficient in the residue of each weight-n key."""
    rows, scales, keys = _integer_system(n)
    return [[Fraction(v, scale) for v in row] for row, scale in zip(rows, scales)], keys


@lru_cache(maxsize=None)
def solve_c_coefficients(n: int) -> CSolution:
    """Solve the vanishing system, keeping the earliest keys free.

    The elimination processes columns from the last key backwards, so
    pivots land on the latest keys and the leading keys of the listing
    order (the p_1-dominant products) remain the free parameters.  A pivot
    row is zero in every other pivot column, so each dependent key is a
    linear form in the free keys alone.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    rows, _, keys = _integer_system(n)
    forms, _ = _certified_rref(rows, range(len(keys) - 1, -1, -1))
    free_keys = tuple(key for col, key in enumerate(keys) if col not in forms)
    dependent = {
        keys[col]: {keys[c]: -v for c, v in form.items()} for col, form in forms.items()
    }
    return CSolution(n, keys, free_keys, dependent, equations=len(rows))


def reconstruct_s_bar(
    n: int, free_values: Mapping[ExponentVector, Fraction]
) -> PowerSumExpansion:
    """Full coefficient family from values of the free keys.

    The resulting expansion has vanishing residues for every 2 <= m <= n;
    with the tabulated free values it reproduces the symmetric Bernoulli
    polynomials.  n = 1 has no equations and the single key stays free.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        key = (1,)
        if key not in free_values:
            raise ValueError("missing free value for key (1,)")
        return PowerSumExpansion(1, 1, {key: Fraction(free_values[key])})
    solution = solve_c_coefficients(n)
    values = solution.coefficient_map(free_values)
    return PowerSumExpansion(n, n, values)


# Free-key values for which the reconstruction gives the symmetric Bernoulli
# polynomials of matching degree.
TABULATED_BERNOULLI_FREE_VALUES: dict[int, dict] = {
    1: {(1,): Fraction(-1, 2)},
    2: {(2, 0): Fraction(1, 4)},
    3: {(3, 0, 0): Fraction(-1, 8)},
    4: {(4, 0, 0, 0): Fraction(1, 16), (2, 1, 0, 0): Fraction(-1, 8)},
    5: {(5, 0, 0, 0, 0): Fraction(-1, 32), (3, 1, 0, 0, 0): Fraction(5, 48)},
}


def bernoulli_reconstruction_check(n: int) -> bool:
    """True iff the tabulated free values reconstruct the Bernoulli expansion.

    The two are compared in the power sums: the products of weight n are
    independent in n variables, so the forms are equal exactly when the
    polynomials in x_1..x_n are."""
    from .families import family_form

    expansion = reconstruct_s_bar(n, TABULATED_BERNOULLI_FREE_VALUES[n])
    return expansion.in_power_sums() == family_form("bernoulli", n)


# ---------------------------------------------------------------------------
# Sequential elimination of the a_k
# ---------------------------------------------------------------------------

_A_EQUATION_MAX_VARS = 4  # residue tables are taken over 2..4 variables


def _a_equations(max_total: int):
    """Residue coefficients as equations, in increasing total order n + m,
    then m, then the key listing order."""
    for total in range(2, max_total + 1):
        for m in range(2, min(_A_EQUATION_MAX_VARS, total) + 1):
            n = total - m
            expansion = extract_z(n, m)
            for key, coeff in expansion.coefficients.items():
                yield (total, m, n, key, coeff)


def sequential_a_elimination(max_index: int) -> dict[int, MultiPoly]:
    """Express a_2..a_max_index through a_1 by eliminating one index per step.

    Each non-trivial equation, after substituting the already-resolved
    indices, must be linear in its highest unresolved a_k with a nonzero
    rational coefficient; anything else is reported as an error rather than
    guessed around.  Equations that reduce to zero are consistency checks.
    An equation is reduced term by term through a memo of a-monomial images,
    cleared at each newly resolved index, so each product and term-cap check
    of ``substitute`` is first met at the same equation as a whole-equation
    substitution would meet it.
    """
    if max_index < 2:
        raise ValueError("max_index must be >= 2")
    resolved: dict[int, MultiPoly] = {}
    substitution: dict = {}  # a_k -> resolved[k], for the indices resolved so far
    images: dict = {}  # a-monomial -> its image under ``substitution``
    for total, m, n, key, coeff in _a_equations(max_index):
        equation = coeff if isinstance(coeff, MultiPoly) else MultiPoly.constant(coeff)
        if resolved:
            out: dict = {}
            for mono, c in equation.terms.items():
                image = images.get(mono)
                if image is None:
                    image = images[mono] = MultiPoly._raw({mono: 1}).substitute(substitution)
                for m2, c2 in image.terms.items():
                    acc = out.get(m2)
                    out[m2] = c * c2 if acc is None else acc + c * c2
            equation = MultiPoly._raw({m2: c2 for m2, c2 in out.items() if c2})
        if equation.is_zero():
            continue
        top = max(
            (v.index for mono in equation.terms for v, _ in mono if v.kind == KIND_A),
            default=0,
        )
        if top <= 1 or top in resolved:
            raise EliminationError(
                f"equation ({n}, {m}, key {key}) reduced to a nonzero constraint "
                f"on already-resolved symbols: {equation}"
            )
        linear_coeff = Fraction(0)
        rest = MultiPoly.zero()
        top_var = VarId(KIND_A, top)
        for mono, c in equation.terms.items():
            exps = dict(mono)
            power = exps.get(top_var, 0)
            if power == 0:
                rest = rest + MultiPoly({(mono, c)})
            elif power == 1 and len(exps) == 1:
                linear_coeff += Fraction(c)
            else:
                raise EliminationError(
                    f"equation ({n}, {m}, key {key}) is not linear in a_{top} "
                    f"with a rational coefficient: {equation}"
                )
        if linear_coeff == 0:
            raise EliminationError(
                f"equation ({n}, {m}, key {key}) has zero coefficient on a_{top}"
            )
        resolved[top] = rest.scale(Fraction(-1) / linear_coeff)
        substitution[top_var] = resolved[top]
        images.clear()
        if all(k in resolved for k in range(2, max_index + 1)):
            # Later equations only re-confirm; stop once everything is pinned.
            break
    missing = [k for k in range(2, max_index + 1) if k not in resolved]
    if missing:
        raise EliminationError(f"equations up to total {max_index} left {missing} unresolved")
    return {k: resolved[k] for k in sorted(resolved) if k <= max_index}


class AEliminationReport(_Record):
    __slots__ = ("entries", "all_ok")

    def __init__(self, entries: Optional[list] = None, all_ok: bool = True):
        self.entries = [] if entries is None else entries  # (index, computed, expected, ok)
        self.all_ok = all_ok

    def to_json(self):
        return {
            "entries": [
                {"index": k, "computed": str(c), "expected": str(e), "ok": ok}
                for k, c, e, ok in self.entries
            ],
            "all_ok": self.all_ok,
        }


def verify_bernoulli_identity(max_index: int) -> AEliminationReport:
    """Check that the eliminated stream matches -(2 a_1)^k B_k / k exactly."""
    stream = sequential_a_elimination(max_index)
    bernoulli = bernoulli_numbers(max_index)
    a1 = MultiPoly.a(1)
    report = AEliminationReport()
    for k in range(2, max_index + 1):
        expected = (a1**k).scale(Fraction(-(2**k)) * bernoulli[k] / k)
        computed = stream[k]
        ok = computed == expected
        report.entries.append((k, computed, expected, ok))
        report.all_ok = report.all_ok and ok
    return report


# ---------------------------------------------------------------------------
# Nonlinear relations among Bernoulli numbers
# ---------------------------------------------------------------------------

# Each relation is a list of (rational coefficient, ((index, power), ...)).
NONLINEAR_RELATIONS: list[tuple[str, list]] = [
    (
        "B_1^2 - 3*B_2/2",
        [(Fraction(1), ((1, 2),)), (Fraction(-3, 2), ((2, 1),))],
    ),
    (
        "B_1^4 - 15*B_1^2*B_2 + 63*B_2^2/4 - 15*B_4/4",
        [
            (Fraction(1), ((1, 4),)),
            (Fraction(-15), ((1, 2), (2, 1))),
            (Fraction(63, 4), ((2, 2),)),
            (Fraction(-15, 4), ((4, 1),)),
        ],
    ),
    (
        "B_1^4 + B_1^2*B_2 - 9*B_2^2/4 + 5*B_4/4",
        [
            (Fraction(1), ((1, 4),)),
            (Fraction(1), ((1, 2), (2, 1))),
            (Fraction(-9, 4), ((2, 2),)),
            (Fraction(5, 4), ((4, 1),)),
        ],
    ),
    (
        "10*B_1^6 - 135*B_1^4*B_2 - 135*B_1^2*B_2^2/2 + 585*B_2^3/4"
        " - 75*B_1^2*B_4/2 - 405*B_2*B_4/4 + 7*B_6",
        [
            (Fraction(10), ((1, 6),)),
            (Fraction(-135), ((1, 4), (2, 1))),
            (Fraction(-135, 2), ((1, 2), (2, 2))),
            (Fraction(585, 4), ((2, 3),)),
            (Fraction(-75, 2), ((1, 2), (4, 1))),
            (Fraction(-405, 4), ((2, 1), (4, 1))),
            (Fraction(7), ((6, 1),)),
        ],
    ),
    (
        "8*B_1^6 + 21*B_1^4*B_2 + 105*B_1^2*B_2^2 - 105*B_2^3/4"
        " + 35*B_1^2*B_4 + 315*B_2*B_4/4 - 28*B_6/3",
        [
            (Fraction(8), ((1, 6),)),
            (Fraction(21), ((1, 4), (2, 1))),
            (Fraction(105), ((1, 2), (2, 2))),
            (Fraction(-105, 4), ((2, 3),)),
            (Fraction(35), ((1, 2), (4, 1))),
            (Fraction(315, 4), ((2, 1), (4, 1))),
            (Fraction(-28, 3), ((6, 1),)),
        ],
    ),
    (
        "8*B_1^6 - 294*B_1^4*B_2 + 2100*B_1^2*B_2^2 - 2205*B_2^3/2"
        " - 560*B_1^2*B_4 + 2835*B_2*B_4/2 - 140*B_6",
        [
            (Fraction(8), ((1, 6),)),
            (Fraction(-294), ((1, 4), (2, 1))),
            (Fraction(2100), ((1, 2), (2, 2))),
            (Fraction(-2205, 2), ((2, 3),)),
            (Fraction(-560), ((1, 2), (4, 1))),
            (Fraction(2835, 2), ((2, 1), (4, 1))),
            (Fraction(-140), ((6, 1),)),
        ],
    ),
]


class NonlinearRelationReport(_Record):
    __slots__ = ("entries", "all_ok")

    def __init__(self, entries: Optional[list] = None, all_ok: bool = True):
        self.entries = [] if entries is None else entries  # (label, value, ok)
        self.all_ok = all_ok

    def to_json(self):
        return {
            "relations": [
                {"relation": label, "value": str(value), "ok": ok}
                for label, value, ok in self.entries
            ],
            "all_ok": self.all_ok,
        }


def verify_nonlinear_bernoulli(
    relations: Optional[Sequence] = None,
) -> NonlinearRelationReport:
    """Evaluate the built-in nonlinear relations with exact Bernoulli numbers."""
    if relations is None:
        relations = NONLINEAR_RELATIONS
    top = max(index for _, terms in relations for _, monos in terms for index, _ in monos)
    values = bernoulli_numbers(top)
    report = NonlinearRelationReport()
    for label, terms in relations:
        total = Fraction(0)
        for coeff, monos in terms:
            product = coeff
            for index, power in monos:
                product *= values[index] ** power
            total += product
        ok = total == 0
        report.entries.append((label, total, ok))
        report.all_ok = report.all_ok and ok
    return report
