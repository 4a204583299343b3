import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symmrel import relations, solver, symmfunc
from symmrel.families import family_polynomial
from symmrel.partitions import exponent_vectors
from symmrel.polyring import KIND_A, MultiPoly, VarId
from symmrel.relations import _make_source, extract_y_basis
from symmrel.symmfunc import PowerSumExpansion, _certified_rref, _primes, to_power_sum_basis
from symmrel.solver import (
    CSolution,
    EliminationError,
    NONLINEAR_RELATIONS,
    TABULATED_BERNOULLI_FREE_VALUES,
    bernoulli_reconstruction_check,
    reconstruct_s_bar,
    residue_system,
    sequential_a_elimination,
    solve_c_coefficients,
    verify_bernoulli_identity,
    verify_nonlinear_bernoulli,
)

from oracles import gauss_jordan, substituted_a_elimination, untruncated_residue
from reference_tables import (
    BERNOULLI_C_VALUES,
    BERNOULLI_EXPANSIONS,
    C6_FLAGGED_KEY,
    C6_FLAGGED_PRINTED,
    C_RELATIONS,
    S_BAR_COLUMNS,
)


def naive_rational_rank(rows):
    """Plain fraction elimination, as an independent rank oracle."""
    work = [list(map(F, row)) for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / work[rank][col]
                work[r] = [v - factor * p for v, p in zip(work[r], work[rank])]
        rank += 1
    return rank


def _random_matrix(rng):
    rows, cols = rng.randint(1, 6), rng.randint(1, 6)
    # Small entries and a share of zeros make rank-deficient matrices common.
    entries = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(rows * cols)]
    return [entries[r * cols : (r + 1) * cols] for r in range(rows)]


def kernel_basis(matrix, columns):
    """The right kernel read off gauss_jordan: one vector per free column."""
    cols = len(matrix[0])
    pivots, rows, _ = gauss_jordan(matrix, columns)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        vector = [F(c == free) for c in range(cols)]
        for col, r in pivots.items():
            vector[col] = -rows[r][free]
        basis.append(tuple(vector))
    return basis


class TestNullspace:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis([[1, 0], [0, 1]], range(2)) == []

    def test_zero_matrix(self):
        assert kernel_basis([[0, 0], [0, 0]], range(2)) == [(1, 0), (0, 1)]

    def test_single_row(self):
        assert kernel_basis([[1, 3]], range(2)) == [(-3, 1)]
        assert kernel_basis([[1, 3]], (1, 0)) == [(1, F(-1, 3))]

    @pytest.mark.parametrize("seed", range(30))
    def test_kernel_property_random(self, seed):
        rng = random.Random(seed)
        matrix = _random_matrix(rng)
        cols = len(matrix[0])
        for order in (list(range(cols)), list(range(cols - 1, -1, -1))):
            basis = kernel_basis(matrix, order)
            assert len(basis) == cols - naive_rational_rank(matrix)
            for vector in basis:
                assert all(sum(e * v for e, v in zip(row, vector)) == 0 for row in matrix)
            # A column gets a pivot exactly when it raises the rank of the
            # columns before it in the elimination order.
            pivots, rows, _ = gauss_jordan(matrix, order)
            for i, col in enumerate(order):
                before = [[row[c] for c in order[:i]] for row in matrix]
                upto = [[row[c] for c in order[: i + 1]] for row in matrix]
                raises = naive_rational_rank(upto) > naive_rational_rank(before)
                assert (col in pivots) == raises
            for col, r in pivots.items():
                assert [row[col] for row in rows] == [F(i == r) for i in range(len(rows))]
            pivot_rows = set(pivots.values())
            assert all(not any(rows[r]) for r in range(len(rows)) if r not in pivot_rows)

    @pytest.mark.parametrize("seed", range(10))
    def test_right_hand_side_follows_row_operations(self, seed):
        rng = random.Random(100 + seed)
        matrix = _random_matrix(rng)
        cols = len(matrix[0])
        solution = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cols)]
        a1 = MultiPoly.a(1)
        rhs = [a1 * sum((e * v for e, v in zip(row, solution)), F(0)) for row in matrix]
        pivots, rows, values = gauss_jordan(matrix, range(cols), rhs)
        # Every reduced row is a combination of the original rows, so the
        # reduced system still holds at a1 * solution.
        for row, value in zip(rows, values):
            assert value == a1 * sum((e * v for e, v in zip(row, solution)), F(0))


def gauss_jordan_forms(matrix, columns):
    """gauss_jordan's pivot rows as {pivot column: {column: nonzero entry}},
    the shape the modular kernel returns, in the same orders."""
    pivots, rows, _ = gauss_jordan(matrix, columns)
    return {col: {c: v for c, v in enumerate(rows[r]) if c != col and v != 0} for col, r in pivots.items()}


def assert_same_forms(got, expected):
    # Equal as ordered mappings, every entry a Fraction like gauss_jordan's.
    assert list(got) == list(expected)
    for col, form in expected.items():
        assert list(got[col].items()) == list(form.items()), col
        assert all(type(v) is F for v in got[col].values())


class TestModularKernel:
    @pytest.mark.parametrize("seed", range(30))
    def test_matches_gauss_jordan_random(self, seed):
        # The matrices of TestNullspace.test_kernel_property_random.
        matrix = _random_matrix(random.Random(seed))
        cols = len(matrix[0])
        for order in (list(range(cols)), list(range(cols - 1, -1, -1))):
            forms, _ = _certified_rref(matrix, order)
            assert_same_forms(forms, gauss_jordan_forms(matrix, order))

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0, 0, 0], [0, 0, 0]],
            [[2, 1, 0], [F(1, 3), 5, -1], [7, 0, F(-2, 5)]],
            # Rows with fractional entries, one a multiple of another.
            [[F(1, 2), F(1, 3), 1, 0], [F(2, 3), F(-1, 4), F(5, 6), F(7, 9)], [1, F(2, 3), 2, 0]],
        ],
        ids=["zero", "full-rank", "fractional-rows"],
    )
    def test_matches_gauss_jordan_by_hand(self, matrix):
        cols = len(matrix[0])
        for order in (range(cols), range(cols - 1, -1, -1)):
            forms, primes = _certified_rref(matrix, order)
            assert_same_forms(forms, gauss_jordan_forms(matrix, order))
            assert primes == 1

    def test_residue_system_is_not_integral(self):
        # Rows carry denominators (2 at n = 4, up to 4 at n = 6), which the
        # kernel clears row by row before reducing.
        for n, denominator in [(4, 2), (6, 4)]:
            rows, _ = residue_system(n)
            assert max(F(v).denominator for row in rows for v in row) == denominator
        rows, keys = residue_system(6)
        order = range(len(keys) - 1, -1, -1)
        assert_same_forms(_certified_rref(rows, order)[0], gauss_jordan_forms(rows, order))

    def test_primes_are_the_largest_below_2_62(self):
        sympy = pytest.importorskip("sympy")
        primes = list(itertools.islice(_primes(), 4))
        assert primes[0] == sympy.prevprime(2**62)
        assert all(sympy.prevprime(a) == b for a, b in zip(primes, primes[1:]))

    def test_unlucky_prime_is_replaced(self):
        first = next(_primes())
        # Rank 0 modulo the first prime, rank 1 over Q.
        assert _certified_rref([[first]], [0]) == ({0: {}}, 2)
        # Same rank modulo the first prime, but the pivot lands on the later
        # column; the next prime's earlier pivot replaces it.  Reconstructing
        # the entry 1/first, a 62-bit denominator, then takes three primes.
        for matrix in ([[first, 1]], [[first, 1], [2 * first, 2]]):
            assert _certified_rref(matrix, [0, 1]) == ({0: {1: F(1, first)}}, 4)

    def test_large_entry_needs_crt(self):
        # -a/b with a and b above 2^31: past what one 62-bit prime can
        # reconstruct, within reach of two.
        a, b = 2**40 + 15, 2**35 + 1
        forms, primes = _certified_rref([[b, a], [3 * b, 3 * a]], [0, 1])
        assert F(a, b).numerator > 2**31 and F(a, b).denominator > 2**31
        assert forms == {0: {1: F(a, b)}}
        assert primes == 2

    def test_certificate_rejects_a_perturbed_value(self, monkeypatch):
        rows, keys = residue_system(6)
        order = range(len(keys) - 1, -1, -1)
        expected = gauss_jordan_forms(rows, order)
        assert _certified_rref(rows, order)[1] == 1
        reconstruct = symmfunc._rational
        perturbed = []

        def perturb_first_nonzero(residue, modulus):
            value = reconstruct(residue, modulus)
            if value and not perturbed:
                perturbed.append(value)
                return value + 1
            return value

        monkeypatch.setattr(symmfunc, "_rational", perturb_first_nonzero)
        forms, primes = _certified_rref(rows, order)
        # The perturbed answer failed M v = 0, so a second prime was added.
        assert len(perturbed) == 1 and primes == 2
        assert_same_forms(forms, expected)


_ENTRIES = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_MULTIPLIERS = st.integers(-(2**70), 2**70).filter(bool)
# A matrix and one nonzero int per row.
_SCALED_MATRICES = (
    st.integers(1, 6)
    .flatmap(lambda cols: st.lists(st.lists(_ENTRIES, min_size=cols, max_size=cols), min_size=1, max_size=6))
    .flatmap(lambda rows: st.tuples(st.just(rows), st.lists(_MULTIPLIERS, min_size=len(rows), max_size=len(rows))))
)


class TestIntegerSystem:
    """The C system's int rows, each the residue coefficients times its scale."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_over_their_scales_are_the_residues(self, n):
        rows, scales, keys = solver._integer_system(n)
        assert all(type(v) is int for row in rows for v in row)
        assert all(type(s) is int and s > 0 for s in scales)
        rational = [[F(v, s) for v in row] for row, s in zip(rows, scales)]
        assert (rational, keys) == residue_system(n)
        expected = []
        for m in range(2, n + 1):
            residues = [untruncated_residue(_make_source(k, n), m) for k in keys]
            for basis_key in exponent_vectors(n - m, m):
                expected.append([F(r.coefficient(basis_key)) for r in residues])
        assert rational == expected

    def test_solve_c_forms_no_rational_residue(self, monkeypatch):
        # The rows go from the engine's int vectors to the kernel with no
        # Fraction coefficient and no PowerSumExpansion on the way.
        def refuse(*args, **kwargs):
            raise AssertionError("the C system made a rational residue")

        monkeypatch.setattr(relations, "_coefficient", refuse)
        monkeypatch.setattr(PowerSumExpansion, "__init__", refuse)
        for n in range(2, 9):
            assert solve_c_coefficients.__wrapped__(n).nullspace_dimension == n // 2

    @settings(max_examples=60, deadline=None)
    @given(_SCALED_MATRICES)
    @example(([[F(1), F(2)], [F(1, 2), F(1)]], [next(_primes()), -3]))
    def test_row_scaling_leaves_the_forms(self, scaled_matrix):
        # The integer system relies on this: each row times any nonzero int,
        # negative ones and multiples of the kernel's primes included, has
        # the same reduced row echelon form.
        matrix, multipliers = scaled_matrix
        scaled = [[v * c for v in row] for row, c in zip(matrix, multipliers)]
        cols = len(matrix[0])
        for order in (range(cols), range(cols - 1, -1, -1)):
            assert _certified_rref(scaled, order)[0] == _certified_rref(matrix, order)[0]


def assert_bernoulli_satisfies_relations(n):
    """The power-sum coefficients of the degree-n Bernoulli member over n
    variables obey every dependent form of the degree-n solution."""
    solution = solve_c_coefficients(n)
    expansion = to_power_sum_basis(family_polynomial("bernoulli", n, n), n, n)
    for key, form in solution.dependent.items():
        expected = sum((c * expansion.coefficient(fk) for fk, c in form.items()), F(0))
        assert expansion.coefficient(key) == expected, key


class TestCSolutions:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_reference_relations(self, n):
        free_keys, dependent = C_RELATIONS[n]
        solution = solve_c_coefficients(n)
        assert solution.free_keys == free_keys
        assert set(solution.dependent) == set(dependent)
        for key, form in dependent.items():
            got = {k: v for k, v in solution.dependent[key].items() if v != 0}
            assert got == {k: v for k, v in form.items() if v != 0}

    @pytest.mark.parametrize("n", range(2, 11))
    def test_dimensions(self, n):
        # floor(n/2) free keys and p(n) - 1 equations: observed, not proved.
        solution = solve_c_coefficients(n)
        assert solution.nullspace_dimension == n // 2
        assert solution.equations == len(exponent_vectors(n, n)) - 1

    def test_equation_count_matches_partition_identity(self):
        from symmrel.partitions import equation_count

        for n in range(2, 7):
            assert solve_c_coefficients(n).equations == equation_count(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_gauss_jordan_forms(self, n):
        # The forms of the Fraction elimination the modular kernel replaced.
        rows, keys = residue_system(n)
        forms = gauss_jordan_forms(rows, range(len(keys) - 1, -1, -1))
        solution = solve_c_coefficients(n)
        assert solution.free_keys == tuple(k for c, k in enumerate(keys) if c not in forms)
        expected = {keys[col]: {keys[c]: -v for c, v in form.items()} for col, form in forms.items()}
        assert list(solution.dependent) == list(expected)
        for key, form in expected.items():
            assert list(solution.dependent[key].items()) == list(form.items()), key
            assert all(type(v) is F for v in solution.dependent[key].values())

    def test_nullspace_agrees_with_parametrization(self):
        for n in range(2, 7):
            rows, keys = residue_system(n)
            dimension = len(keys) - naive_rational_rank(rows)
            assert dimension == solve_c_coefficients(n).nullspace_dimension

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip_residues_vanish(self, n):
        # One coefficient map per free key: that key 1, the others 0.
        solution = solve_c_coefficients(n)
        for fk in solution.free_keys:
            values = solution.coefficient_map({k: int(k == fk) for k in solution.free_keys})
            for m in range(2, n + 1):
                total = {}
                for key, c in values.items():
                    if c == 0:
                        continue
                    for bk, v in extract_y_basis(n, m, key).coefficients.items():
                        total[bk] = total.get(bk, F(0)) + c * F(v)
                assert all(v == 0 for v in total.values())

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_bernoulli_expansion_satisfies_relations(self, n):
        assert_bernoulli_satisfies_relations(n)

    def test_flagged_n6_relation(self):
        # The published variant of this relation violates the vanishing
        # equations; the solver's recomputed form satisfies them (round-trip
        # checked in the acceptance suite) and differs only in one weight.
        solution = solve_c_coefficients(6)
        got = solution.dependent[C6_FLAGGED_KEY]
        assert got != C6_FLAGGED_PRINTED
        printed_vals = dict(C6_FLAGGED_PRINTED)
        values = {k: F(0) for k in solution.free_keys}
        values[(4, 1, 0, 0, 0, 0)] = F(1)
        family = solution.coefficient_map(values)
        family[C6_FLAGGED_KEY] = printed_vals[(4, 1, 0, 0, 0, 0)]
        residual = {}
        for key, c in family.items():
            if c == 0:
                continue
            for bk, v in extract_y_basis(6, 2, key).coefficients.items():
                residual[bk] = residual.get(bk, F(0)) + c * F(v)
        assert any(v != 0 for v in residual.values())


class TestReconstruction:
    def test_quadratic_family(self):
        expansion = reconstruct_s_bar(2, {(2, 0): F(1, 4)})
        assert expansion.coefficients == {(2, 0): F(1, 4), (0, 1): F(-1, 12)}

    def test_quartic_bernoulli(self):
        expansion = reconstruct_s_bar(4, TABULATED_BERNOULLI_FREE_VALUES[4])
        nonzero = {k: v for k, v in expansion.coefficients.items() if v != 0}
        assert nonzero == BERNOULLI_EXPANSIONS[4]

    def test_zero_free_values(self):
        expansion = reconstruct_s_bar(2, {(2, 0): F(0)})
        assert expansion.is_zero()

    def test_missing_value_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_s_bar(4, {(4, 0, 0, 0): F(1)})

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_tabulated_columns(self, n):
        for free_key, expected in S_BAR_COLUMNS[n].items():
            values = (
                {k: F(0) for k in solve_c_coefficients(n).free_keys}
                if n > 1
                else {(1,): F(0)}
            )
            values[free_key] = F(1)
            expansion = reconstruct_s_bar(n, values)
            nonzero = {k: v for k, v in expansion.coefficients.items() if v != 0}
            assert nonzero == {k: v for k, v in expected.items() if v != 0}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_bernoulli_values_reproduce_family(self, n):
        assert BERNOULLI_C_VALUES[n] == TABULATED_BERNOULLI_FREE_VALUES[n]
        assert bernoulli_reconstruction_check(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bernoulli_match_for_every_m(self, n):
        expansion = reconstruct_s_bar(n, TABULATED_BERNOULLI_FREE_VALUES[n])
        for m in range(1, 6):
            from symmrel.symmfunc import power_sum_product

            poly = MultiPoly.zero()
            for key, c in expansion.coefficients.items():
                if c != 0:
                    poly = poly + c * power_sum_product(key, m)
            assert poly == family_polynomial("bernoulli", n, m)


class TestSequentialElimination:
    def test_reference_stream(self):
        stream = sequential_a_elimination(8)
        a1 = MultiPoly.a(1)
        assert stream[2] == a1**2 * F(-1, 3)
        assert stream[3] == MultiPoly.zero()
        assert stream[4] == a1**4 * F(2, 15)
        assert stream[5] == MultiPoly.zero()
        assert stream[6] == a1**6 * F(-16, 63)
        assert stream[7] == MultiPoly.zero()
        assert stream[8] == a1**8 * F(16, 15)

    def test_prefix_consistency(self):
        small = sequential_a_elimination(2)
        assert set(small) == {2}
        assert small[2] == MultiPoly.a(1) ** 2 * F(-1, 3)

    def test_precondition(self):
        with pytest.raises(ValueError):
            sequential_a_elimination(1)

    def test_identity_report(self):
        report = verify_bernoulli_identity(8)
        assert report.all_ok
        assert [entry[0] for entry in report.entries] == list(range(2, 9))


def _elimination_outcome(eliminate, max_index):
    """The stream, every term with its coefficient's type in storage order,
    or the type and message of what the elimination raises."""
    try:
        stream = eliminate(max_index)
    except Exception as error:
        return type(error), str(error)
    return {k: [(mono, c, type(c)) for mono, c in poly.terms.items()] for k, poly in stream.items()}


def _serve_tables(monkeypatch, tables):
    """Serve ``tables``, {(n, m): {key: coefficient}}, as the Z tables; every
    other (n, m) has no coefficient."""
    monkeypatch.setattr(
        solver, "extract_z", lambda n, m: PowerSumExpansion(n, m, tables.get((n, m), {}))
    )


class TestEliminationAgainstOracle:
    """Each a-monomial's image is substituted once per resolved index; the
    oracle substitutes every resolved a_k into each whole equation."""

    def test_streams(self):
        for max_index in range(2, 15):
            got = _elimination_outcome(sequential_a_elimination, max_index)
            assert isinstance(got, dict), got
            assert got == _elimination_outcome(substituted_a_elimination, max_index), max_index

    a1, a2, a3 = (MultiPoly.a(k) for k in (1, 2, 3))

    @pytest.mark.parametrize(
        "tables, max_index, message",
        [
            # a constraint on a_1 alone, before and after a substitution
            ({(0, 2): {(): MultiPoly.constant(3)}}, 2,
             "equation (0, 2, key ()) reduced to a nonzero constraint on already-resolved symbols: 3"),
            ({(0, 2): {(): a1**2 + 3 * a2}, (1, 2): {(1,): a2 + a1}}, 3,
             "equation (1, 2, key (1,)) reduced to a nonzero constraint on already-resolved "
             "symbols: -1/3*a_1^2 + a_1"),
            # an equation on an index resolved earlier
            ({(0, 2): {(): a1**2 + 3 * a2}, (0, 3): {(): a3 + a2 * a1}, (1, 3): {(1,): a3 * 2}}, 4,
             "equation (1, 3, key (1,)) reduced to a nonzero constraint on already-resolved "
             "symbols: 2/3*a_1^3"),
            # a_top squared, and a_top times another symbol
            ({(0, 2): {(): a2**2 + a1}}, 2,
             "equation (0, 2, key ()) is not linear in a_2 with a rational coefficient: a_2^2 + a_1"),
            ({(0, 2): {(): a1**2 + 3 * a2}, (1, 2): {(1,): a1 * a3 + a2}}, 3,
             "equation (1, 2, key (1,)) is not linear in a_3 with a rational coefficient: "
             "-1/3*a_1^2 + a_1*a_3"),
            # a stored zero on a_2: only a term map the constructors never
            # make reaches this check
            ({(0, 2): {(): MultiPoly._raw({((VarId(KIND_A, 2), 1),): 0, ((VarId(KIND_A, 1), 1),): 1})}}, 2,
             "equation (0, 2, key ()) has zero coefficient on a_2"),
            # no equation, and none on a_3
            ({}, 3, "equations up to total 3 left [2, 3] unresolved"),
            ({(0, 2): {(): a1**2 + 3 * a2}, (1, 2): {(1,): MultiPoly.zero()}}, 3,
             "equations up to total 3 left [3] unresolved"),
        ],
        ids=["constant", "substituted", "resolved-index", "square", "product",
             "zero-coefficient", "no-equation", "unresolved-index"],
    )
    def test_errors(self, monkeypatch, tables, max_index, message):
        _serve_tables(monkeypatch, tables)
        got = _elimination_outcome(sequential_a_elimination, max_index)
        assert got == (EliminationError, message)
        assert got == _elimination_outcome(substituted_a_elimination, max_index)

    def test_crafted_tables_resolve(self, monkeypatch):
        # The control: the same route resolves a consistent crafted system.
        a1, a2, a3 = self.a1, self.a2, self.a3
        _serve_tables(monkeypatch, {(0, 2): {(): a1**2 + 3 * a2}, (1, 2): {(1,): a3 - a2 * a1}})
        got = _elimination_outcome(sequential_a_elimination, 3)
        assert got == _elimination_outcome(substituted_a_elimination, 3)
        assert sequential_a_elimination(3) == {2: a1**2 * F(-1, 3), 3: a1**3 * F(-1, 3)}


class TestNonlinearRelations:
    def test_all_vanish(self):
        report = verify_nonlinear_bernoulli()
        assert report.all_ok
        assert len(report.entries) == 6
        assert all(value == 0 for _, value, _ in report.entries)

    def test_relation_count_and_degrees(self):
        assert len(NONLINEAR_RELATIONS) == 6
        sextic = [terms for label, terms in NONLINEAR_RELATIONS if "B_6" in label]
        assert len(sextic) == 3

    def test_detects_broken_relation(self):
        broken = [("B_1^2 - B_2", [(F(1), ((1, 2),)), (F(-1), ((2, 1),))])]
        report = verify_nonlinear_bernoulli(broken)
        assert not report.all_ok
