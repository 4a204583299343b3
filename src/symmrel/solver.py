"""The coefficient solvers built on the residue tables.

Two solvers live here:

* :func:`solve_c_coefficients` -- assembles the homogeneous linear system
  that makes every degree-(n-m) residue vanish for all 2 <= m <= n and
  parametrizes its solutions with the table's free-key convention (earliest
  keys in listing order stay free);
* :func:`sequential_a_elimination` -- walks the symbolic residue
  coefficients in increasing total order and eliminates each a_k in turn,
  which pins every a_k as a polynomial in a_1 and exposes the nonlinear
  relations among Bernoulli numbers checked by
  :func:`verify_nonlinear_bernoulli`.

The C system is eliminated by one certified multimodular kernel,
:func:`_certified_rref`: the rows, scaled to integers, are brought to
Gauss-Jordan form modulo 62-bit primes, the entries are combined by CRT
and rationally reconstructed (Wang, SYMSAC 1981), and the result is
accepted only once M v_f = 0 holds exactly in integers for every free
column f, where v_f is 1 at f and minus the reconstructed entry at each
pivot column.  That makes the answer exact, not probable.  The pivot
columns mod p are independent over Q, since a minor that is nonzero mod p
is nonzero over Z.  Each v_f uses only pivots that precede f in the column
order, so M v_f = 0 puts every free column in the span of the pivots
before it.  The pivots mod p are therefore the greedy basis over Q, which
fixes the free keys and, the pivots being independent, the dependent forms.
:func:`symmrel.symmfunc.gauss_jordan` stays the elimination of the
power-sum basis conversion and, in the tests, this kernel's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Mapping, Optional, Sequence

from .exactnum import bernoulli_numbers
from .partitions import ExponentVector, exponent_vectors
from .polyring import KIND_A, MultiPoly, VarId
from .relations import _make_source, _ResidueEngine, extract_z
from .symmfunc import PowerSumExpansion

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


@dataclass(frozen=True)
class CSolution:
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


def residue_system(n: int) -> tuple[list[list[Fraction]], tuple]:
    """The equations 'every residue basis coefficient vanishes', as a matrix.

    One column per weight-n exponent vector in listing order; one row per
    (m, weight-(n-m) basis key with parts <= m) for m = 2..n.  The residues
    of one m share one engine, so each power q_k^e and each rewritten free
    monomial is formed once per m.
    """
    keys = tuple(exponent_vectors(n, n))
    rows = []
    for m in range(2, n + 1):
        engine = _ResidueEngine(m, n - m)
        residues = {k: engine.residue(_make_source(k, n)) for k in keys}
        for basis_key in exponent_vectors(n - m, m):
            rows.append([residues[k].coefficient(basis_key) for k in keys])
    return rows, keys


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
    """The reduced row echelon form of a rational matrix over Q, pivoting on
    ``columns`` in the order given, by certified multimodular elimination.

    Returns ({pivot column: {free column: entry}}, primes used).  The pivot
    columns come in elimination order, and each pivot row's nonzero entries
    at free columns in ascending column order: the pivot row is 1 at its
    pivot and 0 at every other pivot column.

    Each row is scaled to integers by the lcm of its denominators.  For each
    prime in ``_primes()`` order the rows are reduced mod p; a prime whose
    pivot positions are fewer, or as many but later, than the best so far
    is skipped, one with a better set restarts the combination, and the
    rest are combined by CRT.  Then the entries are rationally reconstructed
    and certified: for every free column f, the vector v_f that is 1 at f
    and minus the entry at each pivot row is checked to give M v_f = 0 in
    integers.  If a reconstruction or a check fails, another prime is added.
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
    rows, keys = residue_system(n)
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
    """True iff the tabulated free values reconstruct the Bernoulli expansion."""
    from .families import family_polynomial

    values = TABULATED_BERNOULLI_FREE_VALUES[n]
    expansion = reconstruct_s_bar(n, values)
    reconstructed = expansion.to_polynomial()
    return reconstructed == family_polynomial("bernoulli", n, expansion.num_vars)


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
    """
    if max_index < 2:
        raise ValueError("max_index must be >= 2")
    resolved: dict[int, MultiPoly] = {}
    for total, m, n, key, coeff in _a_equations(max_index):
        equation = coeff if isinstance(coeff, MultiPoly) else MultiPoly.constant(coeff)
        if resolved:
            substitution = {VarId(KIND_A, k): poly for k, poly in resolved.items()}
            equation = equation.substitute(substitution)
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
        if all(k in resolved for k in range(2, max_index + 1)):
            # Later equations only re-confirm; stop once everything is pinned.
            break
    missing = [k for k in range(2, max_index + 1) if k not in resolved]
    if missing:
        raise EliminationError(f"equations up to total {max_index} left {missing} unresolved")
    return {k: resolved[k] for k in sorted(resolved) if k <= max_index}


@dataclass
class AEliminationReport:
    entries: list = field(default_factory=list)  # (index, computed, expected, ok)
    all_ok: bool = True

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


@dataclass
class NonlinearRelationReport:
    entries: list = field(default_factory=list)  # (label, value, ok)
    all_ok: bool = True

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
