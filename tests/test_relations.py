import random
from itertools import permutations
from argparse import Namespace
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmrel import cli, relations, symmfunc
from symmrel.families import (
    FAMILY_NAMES,
    family_polynomial,
    get_family,
    symbolic_coefficient_values,
    symbolic_family_polynomial,
)
from symmrel.partitions import exponent_vectors
from symmrel.polyring import (
    KIND_A,
    KIND_P,
    KIND_X,
    KIND_Y,
    MultiPoly,
    TermCapExceeded,
    VarId,
    get_term_cap,
    set_term_cap,
)
from symmrel.relations import (
    PreconditionError,
    _ResidueEngine,
    _Source,
    _certificate,
    _make_source,
    _row_image,
    _row_terms,
    _symbolic_rows,
    _y_one_image,
    _y_one_residue,
    build_s_matrix,
    extract_y_basis,
    extract_z,
    u_function,
    verify_conjecture1,
    verify_conjecture2,
)
from symmrel.solver import residue_system
from symmrel.symmfunc import (
    NotRepresentableError,
    PowerSumExpansion,
    power_sum,
    power_sum_monomial,
    power_sum_product,
)

from oracles import (
    alternant_term,
    alternate,
    bell_family_polynomial,
    certified_term,
    complete_homogeneous,
    decoded,
    lcd_frame,
    lcd_numerator,
    lcd_residue,
    orbit_certificate,
    orbit_image,
    orbit_residual,
    read_power_sums,
    row_terms,
    scaled,
    staircase_terms,
    u_at_point,
    untruncated_residue,
    x_variable_residue,
    y_one_terms,
)
from reference_tables import y_tables, z_table, Z3_FLAGGED_KEY, z3_flagged_printed

x1, x2 = MultiPoly.x(1), MultiPoly.x(2)
y1, y2 = MultiPoly.y(1), MultiPoly.y(2)


class TestSMatrix:
    def test_single_variable(self):
        assert build_s_matrix(1) == ((x1,),)

    def test_two_variables(self):
        rows = build_s_matrix(2)
        assert rows[0][1] == y1 * x2 - y2 * x1
        assert rows[1][1] == x2
        assert rows[1][0] == y2 * x1 - y1 * x2

    def test_antisymmetry_off_diagonal(self):
        rows = build_s_matrix(4)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert rows[i][j] == -rows[j][i]


class TestFrame:
    """The least-common-denominator oracle's frame, and the reference route at points."""

    @pytest.mark.parametrize("y_one", [False, True])
    def test_cofactor_identity(self, y_one):
        # c_i * pi(s_i) = (-1)^(i-1) * pi(x) * W as polynomials.
        for m in range(1, 5):
            frame = lcd_frame(m, y_one)
            lcd = _product(_x_vars(m)) * frame.pair_product
            for i, (row, cofactor) in enumerate(zip(frame.rows, frame.cofactors)):
                assert cofactor * _product(row) == (-1) ** i * lcd, (m, i)

    @pytest.mark.parametrize("y_one", [False, True])
    def test_divisors_multiply_to_the_denominator(self, y_one):
        # The oracle divides by pi(x) and the w_ij read off the same frame,
        # whose rows are the ones u_function substitutes.
        for m in range(1, 5):
            frame = lcd_frame(m, y_one)
            assert frame.rows == _symbolic_rows(m, y_one)[2]
            assert prod(frame.pairs, start=frame.pi_x) == frame.pi_x * frame.pair_product, m
            assert len(frame.pairs) == m * (m - 1) // 2

    def test_numerator_at_points(self):
        # u_function's numerator over its denominator at a point against the
        # defining sum S(x)/pi(x) - sum_i y_i^(m-n-1) S(s_i)/pi(s_i), with S
        # evaluated on the build_s_matrix rows at the point; at y = 1 the
        # closed-form residue of a symmetric source reads the same value.
        rng = random.Random(7)
        raw = x1**3 - F(1, 2) * x1 * x2**2 + 3 * x2**3
        cases = [
            ("laguerre", 1, 3, False),
            ("bernoulli", 5, 3, True),
            ("symbolic", 1, 4, False),
            ("symbolic", 4, 2, True),
            (raw, 3, 2, True),
            (raw, 3, 4, False),
            (x1 - 2 * x2, 1, 3, False),
        ]
        nonzero = 0
        for spec, n, m, y_one in cases:
            poly = _instantiate(_held(spec, n), _x_vars(m))
            u = u_function(poly, n, m, specialize_y=y_one)
            symmetric = y_one and isinstance(spec, str)
            residue = verify_conjecture2(spec, n, m).extracted if symmetric else None
            for _ in range(3):
                xs, ys = _nonsingular_point(rng, m, y_one)
                a_values = dict(enumerate(_random_rationals(rng, n), 1))
                point = {VarId(KIND_X, j): v for j, v in enumerate(xs, 1)}
                point.update({VarId(KIND_Y, j): v for j, v in enumerate(ys, 1)})
                point.update({VarId(KIND_A, k): v for k, v in a_values.items()})
                value = u_at_point(poly, n, m, xs, ys, a_values)
                expected = value * u.denominator.evaluate(point)
                assert u.numerator.evaluate(point) == expected, (spec, n, m)
                if residue is not None:
                    assert residue.to_polynomial().evaluate(point) == value, (spec, n, m)
                nonzero += value != 0
        assert nonzero

    @pytest.mark.parametrize("name, n, m", [("laguerre", 3, 5), ("bernoulli", 2, 3)])
    def test_numerator_products_stay_integral(self, monkeypatch, name, n, m):
        # The orbit certificate is built on the source's integral form: every
        # step of the p -> m transition and every coefficient of S(x) in the
        # monomial basis that the weighting loop reads is an int, and no
        # polynomial product is formed.
        step = symmfunc._times_power_sum
        seen, products = [], []

        def spy(r, by_nu):
            out = step(r, by_nu)
            seen.append(all(type(c) is int for c in (*by_nu.values(), *out.values())))
            return out

        weigh = relations._weigh

        def spy_weigh(made, parts, m):
            for s_x, _ in parts:
                seen.append(all(type(c) is int for bucket in s_x.values() for c in bucket.values()))
            return weigh(made, parts, m)

        def refuse(a, b):
            products.append((a, b))
            raise AssertionError("a polynomial product in the zero relation")

        assert _make_source(name, n).denominator > 1
        monkeypatch.setattr(symmfunc, "_times_power_sum", spy)
        monkeypatch.setattr(relations, "_weigh", spy_weigh)
        monkeypatch.setattr(MultiPoly, "__mul__", refuse)
        monkeypatch.setattr(MultiPoly, "__rmul__", refuse)
        report = verify_conjecture1(name, n, m)
        assert len(seen) > 1 and all(seen) and not products
        assert report.verified

    @pytest.mark.parametrize("spec", ["bernoulli", "laguerre", "symbolic"])
    @pytest.mark.parametrize("y_one", [False, True])
    def test_numerator_matches_sequential_products(self, spec, y_one):
        # The oracle's numerator over pi(x) * W against u_function over the
        # full product of denominators, by cross-multiplication; at y = 1
        # the residue regime n >= m leaves a nonzero numerator, but for the
        # Bernoulli family, whose residues vanish.
        nonzero = 0
        for m in range(1, 5):
            frame = lcd_frame(m, y_one)
            for n in range(0, m + 2 if y_one else m):
                source = _make_source(spec, n)
                numerator = lcd_numerator(source, frame, 0 if y_one else m - n - 1)
                rf = u_function(_instantiate(source, _x_vars(m)), n, m, specialize_y=y_one)
                lcd = frame.pi_x * frame.pair_product
                assert rf.numerator * lcd == numerator * rf.denominator, (spec, m, n)
                nonzero += not numerator.is_zero()
        assert bool(nonzero) == (y_one and spec != "bernoulli")

    def test_raw_source_witness_matches_sequential_products(self):
        # A raw source that is not symmetric is refused by the zero relation
        # before any stage runs.  Its U_n is not 0: the numerator of
        # u_function, which sums the products one at a time, is the
        # oracle's over pi(x) * W, by cross-multiplication.
        raw = x1**2 - F(1, 3) * x1 * x2 + 2 * MultiPoly.x(3) ** 2
        with pytest.raises(PreconditionError, match="not symmetric in x_1..x_3"):
            verify_conjecture1(raw, 2, 3)
        u = u_function(raw, 2, 3)
        frame = lcd_frame(3, False)
        expected = lcd_numerator(_held(raw, 2), frame, 0)
        assert u.numerator * frame.pi_x * frame.pair_product == expected * u.denominator
        assert not expected.is_zero()


def _zero_relation_source(spec, n, m):
    """A registry name, or a power-sum key or expansion of weight n."""
    keys = exponent_vectors(n, max(n, 1))
    if spec == "key":
        return keys[-1]
    if spec == "expansion":
        return PowerSumExpansion(n, m, {k: F(2 * i - 3, 3) for i, k in enumerate(keys)})
    return spec


class TestOrbitResidual:
    """Alt(H) over S_m against the expanded numerator, on zero and nonzero cases."""

    @pytest.mark.parametrize("spec", ["bernoulli", "laguerre", "symbolic", "key", "expansion"])
    def test_alternant_is_the_numerator(self, spec):
        counts = {True: 0, False: 0}
        for y_one in (False, True):
            for m in range(1, 5):
                frame = lcd_frame(m, y_one)
                # Above n = m at m = 4 with general y, the 24-fold oracle sum
                # over the larger H would take tens of seconds.
                for n in range(0, m + 1 if m == 4 and not y_one else m + 3):
                    source = _make_source(_zero_relation_source(spec, n, m), n)
                    # At y = 1 the weight y_1^e is 1 for every e.
                    for e in {0} if y_one else {e for e in (0, 1, 2, m - n - 1) if e >= 0}:
                        term = alternant_term(source, m, y_one, e)
                        expected = lcd_numerator(source, frame, e)
                        assert alternate(term, m) / source.denominator == expected, (m, n, e, y_one)
                        assert (not orbit_residual(term, m)) == expected.is_zero(), (m, n, e)
                        counts[expected.is_zero()] += 1
        assert counts[True] and counts[False]

    def test_residual_signs_and_repeated_pairs(self):
        # x_1 y_2 alternates to x_1 y_2 - x_2 y_1, keyed by its descending
        # pairs ((1, 0), (0, 1)); x_2 y_1 is the same orbit with the opposite
        # sign, and x_1 x_2 has two equal pairs.
        a1 = MultiPoly.a(1)
        assert orbit_residual(x1 * y2, 2) == {(((1, 0), (0, 1)), ()): 1}
        assert orbit_residual(x1 * y2 + x2 * y1, 2) == {}
        assert orbit_residual(x1 * y2 - x2 * y1, 2) == {(((1, 0), (0, 1)), ()): 2}
        assert orbit_residual(x1 * x2 * a1, 2) == {}
        # x_2 x_3^2 a_1: sorting (0, 0), (1, 0), (2, 0) takes three swaps.
        key = (((2, 0), (1, 0), (0, 0)), ((VarId(KIND_A, 1), 1),))
        assert orbit_residual(x2 * MultiPoly.x(3) ** 2 * a1, 3) == {key: -1}


class TestCertificateAgainstOracle:
    """``_certificate`` adds the staircase monomial's exponents to each term
    as it sorts, without forming H: its orbit residual equals that of H
    formed in full by the oracle, and so does its term count at general y."""

    def test_every_zero_sweep_case(self):
        # The 8 families at m = 2..5 and symbolic at m = 2..4, n = 0..m-1.
        cases = 0
        for spec in FAMILY_NAMES + ("symbolic",):
            for m in range(2, 5 if spec == "symbolic" else 6):
                for n in range(m):
                    source = _make_source(spec, n, m)
                    terms, residual = _pair_certificate(source, m, None)
                    assert (terms, residual) == orbit_certificate(source, m, None), (spec, n, m)
                    assert residual == {}
                    cases += 1
        assert cases == 121

    def test_residue_relation_for_every_family(self):
        # C2 at m = 2..4 over the CLI's default degrees n = m..8: the residual
        # of H formed in full, empty, and as count the terms the pass makes,
        # once per distinct orbit: sum_b prod_{j>=2} (b_j + 1) over the
        # orderings b of each mu of S(x), and one term per ordering of each
        # nu + 1^m of pi(x) * G.
        def orderings(mu):
            return set(permutations(mu))

        for spec in FAMILY_NAMES + ("symbolic",):
            for m in range(2, 5):
                for n in range(m, 9):
                    source = _make_source(spec, n, m)
                    residue = _y_one_residue(source, m)
                    terms, residual = _pair_certificate(source, m, residue)
                    assert residual == orbit_certificate(source, m, residue)[1] == {}, (spec, n, m)
                    s_x = symmfunc.monomial_expansion(source.poly, m)
                    g = symmfunc.monomial_expansion(residue.in_power_sums(), m)
                    made = sum(
                        prod(e + 1 for e in b[1:])
                        for mu in set().union(*s_x.values())
                        for b in orderings(mu)
                    )
                    made += sum(len(orderings(nu)) for nu in set().union(*g.values()))
                    assert terms == made, (spec, n, m)

    @pytest.mark.parametrize("spec", ["bernoulli", "symbolic", "key"])
    def test_perturbed_residue(self, spec):
        # G plus one symmetric term leaves a nonempty residual, the same
        # representatives with the same coefficients as the oracle's.
        for n, m in [(4, 2), (5, 3), (6, 4)]:
            source = _make_source((n,) + (0,) * (n - 1) if spec == "key" else spec, n, m)
            residue = _y_one_residue(source, m)
            for key in exponent_vectors(n - m, m):
                coefficients = dict(residue.coefficients)
                coefficients[key] = coefficients[key] + F(1, 3)
                perturbed = PowerSumExpansion(n - m, m, coefficients)
                residual = _pair_certificate(source, m, perturbed)[1]
                assert residual, (spec, n, m, key)
                assert residual == orbit_certificate(source, m, perturbed)[1], (spec, n, m, key)


    @pytest.mark.parametrize("spec", ["bernoulli", "symbolic"])
    def test_six_variables(self, spec):
        # At (5, 6) the oracle forms H, 2031 and 8925 terms, in well under a second.
        source = _make_source(spec, 5, 6)
        folded = _pair_certificate(source, 6, None)
        assert folded == orbit_certificate(source, 6, None)
        assert folded[1] == {}


def _random_homogeneous(rng, m, n):
    """A homogeneous polynomial of degree n in x_1..x_m and the a_k: a few
    random terms, symmetrised over S_m for one draw in three, or with x_1
    in every term for another."""
    a_monomials = [MultiPoly.one(), MultiPoly.a(1), MultiPoly.a(2) ** 2 * MultiPoly.a(1)]
    kind = rng.choice(("raw", "symmetric", "x_1 in every term"))
    poly = MultiPoly.zero()
    for _ in range(rng.randint(1, 4)):
        b = [0] * m
        for _ in range(n):
            b[0 if kind != "raw" and n and not any(b) else rng.randrange(m)] += 1
        orbit = set(permutations(b)) if kind == "symmetric" else {tuple(b)}
        coeff = F(rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
        shape = rng.choice(a_monomials)
        for exps in orbit:
            poly = poly + coeff * shape * _product(x**e for x, e in zip(_x_vars(m), exps))
    return poly


def _pair_certificate(source, m, residue):
    """``_certificate`` with its residual keyed by sorted exponent pairs, as
    the oracle keys it: its int keys have width n + m at general y and 1 at
    y = 1."""
    terms, residual = _certificate(source, m, residue)
    return terms, decoded(residual, source.n + m if residue is None else 1)


def _row_residual(poly, m):
    """The orbit residual of H from the terms c x^b of S(x) = ``poly``, a
    polynomial in x_1..x_m and the a_k, one term at a time by the oracle's
    ``row_terms``."""
    parts = {}  # the a-monomial of a term -> its part of the residual
    for mono, coeff in poly.terms.items():
        b, rest = [0] * m, ()
        for pos, (var, e) in enumerate(mono):
            if var.kind != KIND_X:
                rest = mono[pos:]
                break
            b[var.index - 1] = e
        row_terms(parts.setdefault(rest, {}), b, coeff, m)
    return {(pairs, rest): c for rest, part in parts.items() for (pairs, _), c in part.items() if c}


class TestRowExpansion:
    """``_certificate`` reads H's term count and orbit residual off S(x)
    alone, with S(s_1) expanded by the binomial theorem; the oracle's
    ``row_terms`` expands it term by term."""

    def test_matches_h_formed_in_full(self):
        # Raw homogeneous polynomials, symmetric or not, with and without
        # terms free of x_1, at m = 1..5 and n = 0..m-1, against H formed in
        # full by the oracle: the terms of S(x), each expanded on its own,
        # give H's orbit residual, and for a symmetric S, rewritten in the
        # power sums, the certificate from its orbits gives H's term count
        # and residual.
        rng = random.Random(23)
        residuals, free_of_x1, counted = set(), set(), 0
        for _ in range(160):
            m = rng.randint(1, 5)
            n = rng.randrange(m)
            poly = _random_homogeneous(rng, m, n)
            raw = _held(poly, n)
            expected = orbit_certificate(raw, m, None)
            assert _row_residual(raw.poly, m) == expected[1], (poly, m)
            if symmfunc.is_symmetric(poly, m):
                held = _make_source(poly, n, m)
                assert _pair_certificate(held, m, None) == orbit_certificate(held, m, None), (poly, m)
                counted += 1
            residuals.add(bool(expected[1]))
            free_of_x1.add(any(VarId(KIND_X, 1) not in dict(mono) for mono in poly.terms))
        assert residuals == {True, False}
        assert free_of_x1 == {True, False}
        assert counted >= 40

    def test_the_row_expansion_is_held_to_the_cap(self):
        # bell at (3, 4): S(x) has 20 terms and its largest product 40 term
        # pairs; the row expansion makes 84 terms.
        cap = get_term_cap()
        try:
            set_term_cap(83)
            over = verify_conjecture1("bell", 3, 4)
            set_term_cap(84)
            at = verify_conjecture1("bell", 3, 4)
        finally:
            set_term_cap(cap)
        assert over.verdict == "resource-limited"
        stages = [(stage.name, stage.detail) for stage in over.stages]
        assert stages == [("orbit-certificate", "row expansion of 84 terms exceeds the cap of 83")]
        assert at.verified

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
    def test_orbit_counts_match_the_terms(self, parts):
        # Per orbit: its terms b, the terms the row expansion makes from
        # them, prod_{j>=2} (b_j + 1) each, and those with b_1 = 0.
        mu = tuple(sorted(parts, reverse=True))
        orbit = set(permutations(mu))
        made = sum(prod(e + 1 for e in b[1:]) for b in orbit)
        free = sum(1 for b in orbit if b[0] == 0)
        assert relations._orbit_counts(mu) == (len(orbit), made, free)

    def test_the_caps_are_met_before_any_term_is_listed(self, monkeypatch):
        # bell at (3, 4): S(x) has 20 terms and the row expansion makes 84;
        # both are counted per orbit, before any ordering is listed.
        def refuse(mu):
            raise AssertionError(f"orderings of {mu} listed")

        monkeypatch.setattr(relations, "_orderings", refuse)
        monkeypatch.setattr(symmfunc, "_orderings", refuse)
        cap = get_term_cap()
        details = []
        try:
            for limit in (19, 83):
                set_term_cap(limit)
                report = verify_conjecture1("bell", 3, 4)
                assert report.verdict == "resource-limited"
                details.extend(stage.detail for stage in report.stages)
        finally:
            set_term_cap(cap)
        assert details == [
            "expansion in x_1..x_4 of 20 terms exceeds the cap of 19",
            "row expansion of 84 terms exceeds the cap of 83",
        ]

    def test_no_substitution_matrix_is_built(self, monkeypatch):
        # The certificate instantiates the source on x_1..x_m, and at y = 1
        # on the row s_1 alone: no m x m matrix, under either relation.
        def refuse(*args):
            raise AssertionError(f"_symbolic_rows{args} called")

        monkeypatch.setattr(relations, "_symbolic_rows", refuse)
        raw = family_polynomial("laguerre", 2, 3)
        for spec, n, m in [("bernoulli", 3, 4), ("symbolic", 2, 3), ((0, 1), 2, 3), (raw, 2, 3)]:
            report = verify_conjecture1(spec, n, m)
            assert report.verified and [s.name for s in report.stages] == ["orbit-certificate"]
        for spec, n, m in [("bernoulli", 5, 3), ("symbolic", 4, 2), ((1, 1, 0), 3, 2)]:
            report = verify_conjecture2(spec, n, m)
            assert report.verified and [s.name for s in report.stages] == ["orbit-certificate"]


def _partitions(n, m):
    """The partitions of n into at most m parts, as m descending parts."""
    return sorted({tuple(sorted(b, reverse=True)) for b in _compositions(n, m)})


def _compositions(n, m):
    if m == 1:
        return [(n,)]
    return [(v,) + rest for v in range(n + 1) for rest in _compositions(n - v, m - 1)]


class TestIntKeyImages:
    """The orbit images on int keys against the oracle's, which sorts every
    term's exponent pairs: at general y on every orbit with n < m <= 7, at
    y = 1 on m <= 5 and n = m..m+4."""

    def test_general_y_images(self):
        # Every zero-relation image is empty, so the control is each
        # ordering b alone: its terms, y_1^n x^b with its row terms, are
        # nonempty, and equal key by key to the oracle's row terms of x^b,
        # which make y_1^n x^b the same way.
        orbits = orderings = nonempty = 0
        for m in range(1, 8):
            for n in range(m):
                width = n + m
                for mu in _partitions(n, m):
                    assert decoded(dict(_row_image(mu, m)), width) == orbit_image(mu, m, row_terms) == {}
                    for b in set(permutations(mu)):
                        part, oracle = {}, {}
                        _row_terms(part, b, m, width)
                        row_terms(oracle, b, 1, m)
                        oracle = {pairs: c for (pairs, _), c in oracle.items() if c}
                        assert decoded({k: c for k, c in part.items() if c}, width) == oracle, (b, m)
                        orderings += 1
                        nonempty += bool(oracle)
                    orbits += 1
        assert (orbits, orderings, nonempty) == (75, 2353, 2289)

    def test_y_one_images(self):
        # The walk over positions, once per orbit, against the oracle's
        # expansion once per ordering: the row image, and the staircase image
        # of each nu + 1^m that a residue of weight n - m brings.
        nonempty = 0
        for m in range(1, 6):
            for n in range(m, m + 5):
                for mu in _partitions(n, m):
                    image = decoded(dict(_y_one_image(mu, m, True)), 1)
                    assert image == orbit_image(mu, m, y_one_terms), (mu, m)
                    nonempty += bool(image)
                for nu in _partitions(n - m, m):
                    shifted = tuple(v + 1 for v in nu)
                    image = decoded(dict(_y_one_image(shifted, m, False)), 1)
                    assert image == orbit_image(shifted, m, staircase_terms), (nu, m)
                    nonempty += bool(image)
        assert nonempty == 188  # of 212 images

    def test_signs_of_the_int_keys(self):
        # m_(1, 0) at (n, m) = (1, 2): M = x_2 and keys of width 3.  The
        # term y_1 x_1 x_2 has the pairs (1, 1), (1, 0), bits 4 and 3, in
        # order, and x_1's row term -x_1 x_2 has two equal pairs.  x_2's
        # row term, -x_2 (y_1 x_2 - y_2 x_1) less the -y_1 x_2^2 that
        # cancels y_1 x_2^2, is x_1 x_2 y_2: position 1 holds (1, 0) and is
        # placed below position 2's (1, 1), one swap, so it cancels the
        # first term.
        part = {}
        _row_terms(part, (1, 0), 2, 3)
        assert part == {1 << 4 | 1 << 3: 1}
        _row_terms(part, (0, 1), 2, 3)
        assert part == {1 << 4 | 1 << 3: 0}
        assert _row_image((1, 0), 2) == ()


class TestUFunction:
    def test_constant_vanishes(self):
        rf = u_function(MultiPoly.one(), 0, 2)
        assert rf.numerator.is_zero()

    def test_single_variable_at_unit_weights(self):
        rf = u_function(MultiPoly.x(1), 1, 1, specialize_y=True)
        assert rf.numerator.is_zero()

    def test_bernoulli_linear(self):
        rf = u_function(family_polynomial("bernoulli", 1, 2), 1, 2)
        assert rf.numerator.is_zero()

    def test_full_product_denominator(self):
        # pi(v) is the plain product of the components of v.
        s = power_sum(1, 2)
        rf = u_function(s, 1, 2)
        rows = build_s_matrix(2)
        expected = x1 * x2
        for row in rows:
            expected = expected * row[0] * row[1]
        lead = expected.terms[expected.leading_monomial()]
        if lead < 0:
            expected = -expected
        assert rf.denominator == expected

    def test_needs_a_variable(self):
        with pytest.raises(ValueError):
            u_function(MultiPoly.one(), 0, 0)

    def test_negative_weight_regime_rejected(self):
        with pytest.raises(PreconditionError):
            u_function(power_sum_product((2, 0), 2), 2, 2)

    def test_matches_engine_numerator(self):
        # Cross-multiplication identity between the full-product form and
        # the least-common-denominator oracle, at y = 1 and generic y.
        cases = [
            (family_polynomial("t", 3, 2), 3, 2, True),
            (family_polynomial("euler", 4, 2), 4, 2, True),
            (family_polynomial("bernoulli", 2, 3), 2, 3, False),
            (power_sum_product((0, 1), 3), 2, 3, False),
        ]
        for poly, n, m, y_one in cases:
            rf = u_function(poly, n, m, specialize_y=y_one)
            num = lcd_numerator(_held(poly, n), lcd_frame(m, y_one), 0 if y_one else m - n - 1)
            x_vars = [MultiPoly.x(i) for i in range(1, m + 1)]
            lcm_den = _product(x_vars) * lcd_frame(m, y_one).pair_product
            assert rf.numerator * lcm_den == num * rf.denominator


def _x_vars(m):
    return [MultiPoly.x(i) for i in range(1, m + 1)]


def _product(components):
    return prod(components, start=MultiPoly.one())


def _instantiate(source, comps):
    return scaled(source, comps) / source.denominator


def _held(spec, n):
    """A source for the oracles: a raw MultiPoly held in x as it stands,
    any other spelling as the relations hold it."""
    return _Source(n, "raw", lambda: spec) if isinstance(spec, MultiPoly) else _make_source(spec, n)


def _random_rationals(rng, count):
    return [F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(count)]


def _nonsingular_point(rng, m, y_one=False):
    """(xs, ys): nonzero rationals x and positive rationals y, or y = 1, with
    every pair factor y_i x_j - y_j x_i nonzero, so no pi(s_i) vanishes."""
    while True:
        xs = [F(rng.choice((1, -1)) * rng.randint(1, 40), rng.randint(1, 5)) for _ in range(m)]
        ys = [F(1)] * m if y_one else [F(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(m)]
        if all(ys[i] * xs[j] != ys[j] * xs[i] for i in range(m) for j in range(i + 1, m)):
            return xs, ys


class TestSources:
    """The power-sum sources and the families against the Bell recursion."""

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_family_matches_bell_recursion(self, name):
        spec = get_family(name)
        for m in range(1, 5):
            for n in range(0, 7):
                a = [spec.a_coeff(k) for k in range(1, n + 1)]
                expected = bell_family_polynomial(a, spec.b_norm(n), n, m)
                assert _instantiate(_make_source(name, n), _x_vars(m)) == expected, (n, m)
                assert family_polynomial(name, n, m) == expected, (n, m)

    def test_symbolic_matches_bell_recursion(self):
        for m in range(1, 5):
            for n in range(0, 7):
                a = [MultiPoly.a(k) for k in range(1, n + 1)]
                expected = bell_family_polynomial(a, 1, n, m)
                assert _instantiate(_make_source("symbolic", n), _x_vars(m)) == expected, (n, m)
                assert symbolic_family_polynomial(n, m) == expected, (n, m)

    @pytest.mark.parametrize("name", ["laguerre", "bernoulli"])
    def test_rows_carry_no_integral_fraction(self, name):
        for m in (2, 3):
            for n in range(m, 7):
                source = _make_source(name, n)
                for row in _symbolic_rows(m, True)[2]:
                    coeffs = _instantiate(source, row).terms.values()
                    assert not any(isinstance(c, F) and c.denominator == 1 for c in coeffs)


class TestRawVariables:
    """A raw source may hold only x_1..x_m and the a_k."""

    def test_residue_relation_rejects_a_higher_x(self):
        with pytest.raises(ValueError, match="variable x_3"):
            verify_conjecture2(MultiPoly.x(3) ** 2, 2, 2)

    def test_residue_relation_rejects_a_higher_x_in_a_symmetric_looking_sum(self):
        with pytest.raises(ValueError, match="variable x_3"):
            verify_conjecture2(x1 * MultiPoly.x(3) + x2 * MultiPoly.x(3), 2, 2)

    def test_zero_relation_rejects_a_higher_x(self):
        with pytest.raises(ValueError, match="variable x_3"):
            verify_conjecture1(MultiPoly.x(3), 1, 2)

    def test_residue_relation_rejects_y(self):
        with pytest.raises(ValueError, match="variable y_1"):
            verify_conjecture2(x1**2 + x2**2 + y1 * x1 * x2, 2, 2)

    def test_zero_relation_rejects_y(self):
        with pytest.raises(ValueError, match="variable y_1"):
            verify_conjecture1(y1 * (x1 + x2), 1, 2)

    def test_a_symbols_pass(self):
        a1 = MultiPoly.a(1)
        assert verify_conjecture1(a1 * (x1 + x2), 1, 2).verified

    @pytest.mark.parametrize(
        "poly, n, m, specialize_y, name",
        [
            (MultiPoly.x(3) ** 2, 2, 2, True, "x_3"),
            (x1 * MultiPoly.p(2), 1, 3, False, "p_2"),
            (y1 * x1, 1, 2, False, "y_1"),
        ],
    )
    def test_u_function_rejects_other_variables(self, poly, n, m, specialize_y, name):
        with pytest.raises(ValueError, match=f"variable {name}"):
            u_function(poly, n, m, specialize_y=specialize_y)


class TestZeroRelation:
    def test_family_cases(self):
        for name in ("bernoulli", "t", "laguerre", "hermite", "bell"):
            report = verify_conjecture1(name, 2, 3)
            assert report.verdict == "verified"
            assert report.conjecture_id == "C1"

    def test_symbolic(self):
        report = verify_conjecture1("symbolic", 1, 2)
        assert report.verdict == "verified"

    def test_basis_product(self):
        report = verify_conjecture1((0, 1), 2, 3)
        assert report.verdict == "verified"
        assert report.conjecture_id == "C3-zero"

    def test_regime_check(self):
        with pytest.raises(PreconditionError):
            verify_conjecture1("bernoulli", 3, 2)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_zero_relation_five_variables(self, name):
        for n in range(0, 5):
            report = verify_conjecture1(name, n, 5)
            assert report.verified, (name, n, report.verdict)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_zero_relation_six_variables(self, name):
        for n in range(0, 6):
            report = verify_conjecture1(name, n, 6)
            assert report.verified, (name, n, report.verdict)

    def test_symmetric_source_is_decided_on_orbit_representatives(self, monkeypatch):
        # Every input of either relation, a family, the symbolic family, a
        # key, an expansion or a raw polynomial symmetric in x_1..x_m, is
        # decided in the one stage: no u_function, substitution or exact
        # division runs, and the row's power sums are formed nowhere in the
        # library.
        def refuse(name):
            def spy(*args, **kwargs):
                raise AssertionError(f"{name} called for a symmetric source")

            return spy

        expansion = PowerSumExpansion(2, 3, {(2, 0): F(1, 2), (0, 1): -3})
        heavier = PowerSumExpansion(4, 3, {(4, 0, 0, 0): F(1, 2), (1, 0, 1, 0): -3})
        zero_cases = [("bernoulli", 2, 4), ("symbolic", 1, 3), ((0, 1), 2, 3), (expansion, 2, 3)]
        zero_cases.append((family_polynomial("laguerre", 2, 3) * MultiPoly.a(1), 2, 3))
        residue_cases = [("laguerre", 5, 2), ("symbolic", 6, 3), ((0, 2, 0, 0), 4, 4), (heavier, 4, 3)]
        residue_cases.append((family_polynomial("t", 5, 3) * F(2, 7), 5, 3))
        monkeypatch.setattr(relations, "u_function", refuse("u_function"))
        monkeypatch.setattr(MultiPoly, "substitute", refuse("substitute"))
        monkeypatch.setattr(MultiPoly, "exact_divide", refuse("exact_divide"))
        for module in (relations, symmfunc):
            assert not hasattr(module, "power_sums_of"), module
        for verify, cases, detail in [
            (verify_conjecture1, zero_cases, "Alt(H) = 0 on "),
            (verify_conjecture2, residue_cases, "closed-form residue G; Alt(H - M*pi(x)*G) = 0 on "),
        ]:
            for spec, n, m in cases:
                report = verify(spec, n, m)
                assert report.verified, (spec, n, m)
                assert [stage.name for stage in report.stages] == ["orbit-certificate"]
                assert report.stages[-1].detail.startswith(detail), report.stages[-1]

    def test_term_cap_names_the_running_stage(self):
        # In both relations every source meets the cap in the one stage,
        # the orbit pass: a family, and a power-sum expansion.  A raw source
        # that is not symmetric is refused before any stage runs, under the
        # cap as without it.  No stage is recorded twice.
        expansion = PowerSumExpansion(3, 2, {(3, 0, 0): F(1, 2), (1, 1, 0): -3, (0, 0, 1): 1})
        cap = get_term_cap()
        set_term_cap(1)
        try:
            reports = [
                verify_conjecture1("bernoulli", 2, 3),
                verify_conjecture1(expansion, 3, 4),
                verify_conjecture2("bernoulli", 4, 2),
                verify_conjecture2(expansion, 3, 2),
            ]
            for verify, poly, n, m in [
                (verify_conjecture1, x1**2 - 2 * x1 * x2, 2, 3),
                (verify_conjecture2, x1**3 + x1**2 * x2, 3, 2),
            ]:
                with pytest.raises(PreconditionError, match=f"not symmetric in x_1..x_{m}"):
                    verify(poly, n, m)
        finally:
            set_term_cap(cap)
        for report in reports:
            assert report.verdict == "resource-limited"
            assert [s.name for s in report.stages] == ["orbit-certificate"]
            assert "exceeds the cap" in report.stages[-1].detail, report.stages[-1]

    @pytest.mark.parametrize("verify, n", [(verify_conjecture1, 2), (verify_conjecture2, 4)])
    def test_raw_source_rewrite_meets_the_cap_in_the_stage(self, verify, n):
        # A raw symmetric input is rewritten in the power sums inside the
        # stage: a cap met by an expansion in x_1..x_3 on the way makes a
        # resource-limited report whose detail is the cap's message, and the
        # same input verifies under the default cap afterwards.  The basis
        # products the rewrite expands are made afresh, so the cap meets the
        # same expansion after they were made once in the process.
        poly = family_polynomial("laguerre", n, 3)
        for key in exponent_vectors(n, 3):
            power_sum_product(key, 3)
        cap = get_term_cap()
        set_term_cap(3)
        try:
            report = verify(poly, n, 3)
        finally:
            set_term_cap(cap)
        assert report.verdict == "resource-limited"
        assert report.source_label == "raw"
        terms = {2: 6, 4: 15}[n]  # of p_1^n in x_1..x_3, the first basis product
        assert [(stage.name, stage.detail) for stage in report.stages] == [
            ("orbit-certificate", f"expansion in x_1..x_3 of {terms} terms exceeds the cap of 3")
        ]
        assert verify(poly, n, 3).verdict == "verified"

    def test_nonzero_residual_takes_the_kernel_witness(self, monkeypatch):
        # A nonzero residual falsifies the relation in its one stage, and is
        # the witness over the source's denominator: each coefficient times
        # its sorted representative monomial and its monomial in the a_k.
        # Its keys have width n + m = 5: bit 5x + y is the pair (x, y).
        a1, x3, y3 = MultiPoly.a(1), MultiPoly.x(3), MultiPoly.y(3)
        residual = {
            (1 << 10 | 1 << 6 | 1 << 2, ((VarId(KIND_A, 1), 1),)): 3,  # (2, 0), (1, 1), (0, 2)
            (1 << 7 | 1 << 1 | 1 << 0, ()): F(-1, 2),  # (1, 2), (0, 1), (0, 0)
        }
        monkeypatch.setattr(relations, "_certificate", lambda source, m, residue: (0, residual))
        denominator = _make_source("bernoulli", 2).denominator
        assert denominator > 1
        report = verify_conjecture1("bernoulli", 2, 3)
        expected = (3 * x1**2 * x2 * y2 * y3**2 * a1 - F(1, 2) * x1 * y1**2 * y2) / denominator
        assert report.verdict == "falsified"
        assert report.witness == expected
        assert report.to_json()["witness"] == str(expected)
        assert [(s.name, s.detail) for s in report.stages] == [
            ("orbit-certificate", "2 orbit representatives left")
        ]

    def test_nonzero_residual_hands_a_symmetric_source_to_the_expansion(self, monkeypatch):
        # No reference route follows a nonzero residual: in both relations
        # the one stage falsifies the case, u_function never runs, and no
        # residue is returned.
        def refuse(*args, **kwargs):
            raise AssertionError("u_function called")

        monkeypatch.setattr(
            relations, "_certificate", lambda source, m, residue: (0, {(0, ()): 1})
        )
        monkeypatch.setattr(relations, "u_function", refuse)
        expansion = PowerSumExpansion(2, 3, {(2, 0): F(1, 2) * MultiPoly.a(1), (0, 1): -3})
        for verify, n, m in [(verify_conjecture1, 2, 3), (verify_conjecture2, 2, 2)]:
            report = verify(expansion, n, m)
            assert report.verdict == "falsified", (n, m)
            assert report.witness == MultiPoly.constant(F(1, 2))
            assert report.extracted is None
            names = [stage.name for stage in report.stages]
            assert names == ["orbit-certificate"], names
            assert report.stages[0].detail == "1 orbit representatives left"

    def test_asymmetric_input_is_falsified_by_its_numerator(self):
        # x_1 is not symmetric: both relations refuse it, as they refuse a
        # bad (n, m), with PreconditionError.  Its U_n is not 0: the
        # numerator of u_function, the reference form, is nonzero.
        with pytest.raises(PreconditionError, match="not symmetric in x_1..x_2"):
            verify_conjecture1(x1, 1, 2)
        with pytest.raises(PreconditionError, match="not symmetric in x_1..x_2"):
            verify_conjecture2(x1**2, 2, 2)
        assert not u_function(x1, 1, 2).numerator.is_zero()

    def test_differential_random_cases(self):
        # The exact verdict against U_n from its definition at a random
        # point: expansions, and raw polynomials symmetric in x_1..x_m, are
        # verified by the orbit certificate alone and read 0 there; a raw
        # polynomial that is not symmetric is refused.
        rng = random.Random(11)
        verdicts = set()
        for i in range(25):
            m = rng.choice((2, 3))
            n = rng.randrange(0, m)
            if i % 2:
                keys = exponent_vectors(n, max(n, 1))
                spec = PowerSumExpansion(n, m, {k: F(rng.randint(-4, 4)) for k in keys})
            else:
                spec = sum(
                    (rng.randint(-3, 3) * _product(rng.choices(_x_vars(m), k=n)) for _ in range(3)),
                    MultiPoly.zero(),
                )
            if not i % 2 and not symmfunc.is_symmetric(spec, m):
                with pytest.raises(PreconditionError, match="not symmetric"):
                    verify_conjecture1(spec, n, m)
                verdicts.add("refused")
                continue
            report = verify_conjecture1(spec, n, m)
            poly = _instantiate(_held(spec, n), _x_vars(m))
            value = u_at_point(poly, n, m, *_nonsingular_point(rng, m), {})
            assert report.verified and value == 0, (spec, n, m)
            assert [stage.name for stage in report.stages] == ["orbit-certificate"]
            verdicts.add(report.verdict)
        assert verdicts == {"verified", "refused"}

    def test_cli_cases_against_the_definition(self):
        # Every zero-relation case the CLI can build is verified by the
        # orbit certificate alone, and U_n from its definition reads 0 at
        # three random points.  Inputs that are not symmetric, which the CLI
        # cannot build, are refused, and U_n is nonzero at one of three.
        rng = random.Random(21)
        grids = [(1, name, "2..5") for name in FAMILY_NAMES] + [(1, "symbolic", "2..4")]
        grids.append((3, None, "1..4"))
        cases = []
        for conjecture, family, m_range in grids:
            args = Namespace(
                conjecture=conjecture, family=family, key=None, m=m_range,
                n=None if family else "0..3", allow_large=True,
            )
            cases += [case for case in cli._build_cases(args) if case[0] == "zero"]
        assert len(cases) == 8 * 14 + 9 + 14
        for _, spec, n, m in cases:
            report = verify_conjecture1(spec, n, m)
            assert report.verified and [s.name for s in report.stages] == ["orbit-certificate"]
            poly = _instantiate(_make_source(spec, n), _x_vars(m))
            for _ in range(3):
                a_values = dict(enumerate(_random_rationals(rng, n), 1))
                value = u_at_point(poly, n, m, *_nonsingular_point(rng, m), a_values)
                assert value == 0, (spec, n, m)
        raw = x1**2 - F(1, 3) * x1 * x2 + 2 * MultiPoly.x(3) ** 2
        for poly, n, m in [(x1, 1, 2), (x1 * MultiPoly.a(1), 1, 2), (raw, 2, 3)]:
            with pytest.raises(PreconditionError, match="not symmetric"):
                verify_conjecture1(poly, n, m)
            values = [
                u_at_point(poly, n, m, *_nonsingular_point(rng, m), {1: F(rng.randint(1, 9))})
                for _ in range(3)
            ]
            assert any(values), poly


class TestResidueRelation:
    def test_t_family_cubic(self):
        report = verify_conjecture2("t", 3, 2)
        assert report.verdict == "verified"
        assert report.conjecture_id == "C2"
        assert report.extracted.weight == 1
        assert not report.extracted.is_zero()

    def test_bernoulli_residues_vanish(self):
        report = verify_conjecture2("bernoulli", 4, 2)
        assert report.verdict == "verified"
        assert report.extracted.is_zero()

    def test_basis_square(self):
        report = verify_conjecture2((2, 0), 2, 2)
        assert report.verdict == "verified"
        assert report.conjecture_id == "C3-poly"
        assert report.extracted.coefficients == {(): F(1)}

    def test_regime_check(self):
        with pytest.raises(PreconditionError):
            verify_conjecture2("bernoulli", 1, 2)

    def test_falsification_carries_remainder_witness(self, monkeypatch):
        # A wrong G leaves a residual: the case is falsified, and the
        # witness, the residual over the source's denominator, alternates to
        # pi(x) * W * (U_n - G), as H formed in full by the oracle does.
        source = _make_source("bernoulli", 5)
        residue = _y_one_residue(source, 3)
        coefficients = dict(residue.coefficients)
        coefficients[(2, 0)] += F(1, 3)
        wrong = PowerSumExpansion(2, 3, coefficients)
        monkeypatch.setattr(relations, "_y_one_residue", lambda source, m: wrong)
        report = verify_conjecture2("bernoulli", 5, 3)
        assert report.verdict == "falsified" and report.extracted is None
        assert isinstance(report.witness, MultiPoly)
        assert not report.witness.is_zero()
        h = certified_term(source, 3, wrong)
        assert alternate(report.witness, 3) == alternate(h, 3) / source.denominator

    def test_quotient_that_is_not_symmetric(self):
        # These raw sources are not symmetric, so the residue relation
        # refuses them before any stage runs.  Their U_n at y = 1 is a
        # polynomial that is not symmetric: the numerator of the reference
        # form u_function divides exactly, with that quotient.
        x3 = MultiPoly.x(3)
        for poly, n, m, quotient in [
            (x1 * x2**2, 3, 2, x1 - x2),
            (x1 * x2 * x3**2, 4, 3, x1 + x2 - 2 * x3),
        ]:
            with pytest.raises(PreconditionError, match=f"not symmetric in x_1..x_{m}"):
                verify_conjecture2(poly, n, m)
            u = u_function(poly, n, m, specialize_y=True)
            assert u.numerator.exact_divide(u.denominator) == quotient

    def test_scale_covariance(self):
        # A raw symmetric source is rewritten in the power sums, so it takes
        # the certificate route, and its residue scales with it.
        base = verify_conjecture2((2, 1, 0, 0), 4, 2)
        scaled_poly = power_sum_product((2, 1, 0, 0), 2) * F(7, 3)
        scaled = verify_conjecture2(scaled_poly, 4, 2)
        assert scaled.verified and [s.name for s in scaled.stages] == ["orbit-certificate"]
        assert not base.extracted.is_zero()
        for key, c in base.extracted.coefficients.items():
            assert scaled.extracted.coefficients[key] == c * F(7, 3), key


class TestResidueCertificate:
    """The closed-form residue certified on orbit representatives, and the
    verdict a residual that is not empty gives."""

    @pytest.mark.parametrize("n, m", [(4, 2), (5, 3)])
    def test_perturbed_residue_leaves_a_residual(self, monkeypatch, n, m):
        # G plus one symmetric term: the residual is no longer empty, and the
        # case is falsified in its one stage, with that residual over the
        # source's denominator as the witness, whose alternant is that of H
        # formed in full by the oracle.
        for spec in ("symbolic", "bernoulli", (n,) + (0,) * (n - 1)):
            source = _make_source(spec, n)
            residue = _y_one_residue(source, m)
            assert _certificate(source, m, residue)[1] == {}
            key = exponent_vectors(n - m, m)[0]
            coefficients = dict(residue.coefficients)
            coefficients[key] = coefficients[key] + 1
            perturbed = PowerSumExpansion(n - m, m, coefficients)
            residual = _certificate(source, m, perturbed)[1]
            assert residual, (spec, n, m)

            with monkeypatch.context() as patch:
                patch.setattr(relations, "_y_one_residue", lambda source, m: perturbed)
                report = verify_conjecture2(spec, n, m)
            assert report.verdict == "falsified" and report.extracted is None
            assert len(report.witness) == len(residual)
            h = certified_term(source, m, perturbed)
            assert alternate(report.witness, m) == alternate(h, m) / source.denominator
            stages = [(stage.name, stage.detail) for stage in report.stages]
            assert stages == [("orbit-certificate", f"{len(residual)} orbit representatives left")]

    def test_power_sum_source_takes_no_reference_layer(self, monkeypatch):
        # A source held in the power sums is decided by the closed form and
        # the certificate alone: no u_function, division, basis conversion or
        # elimination runs.
        def refuse(name):
            def spy(*args, **kwargs):
                raise AssertionError(f"{name} called for a power-sum source")

            return spy

        monkeypatch.setattr(relations, "u_function", refuse("u_function"))
        monkeypatch.setattr(MultiPoly, "exact_divide", refuse("exact_divide"))
        for module, name in [
            (relations, "to_power_sum_basis"),
            (symmfunc, "to_power_sum_basis"),
            (symmfunc, "_certified_rref"),
        ]:
            monkeypatch.setattr(module, name, refuse(name))
        expansion = PowerSumExpansion(4, 3, {(4, 0, 0, 0): F(1, 2), (1, 0, 1, 0): -3})
        for spec, n, m in [("symbolic", 6, 3), ("laguerre", 5, 2), ((0, 2, 0, 0), 4, 4), (expansion, 4, 3)]:
            report = verify_conjecture2(spec, n, m)
            assert report.verified, (spec, n, m)
            assert [stage.name for stage in report.stages] == ["orbit-certificate"]
            assert report.stages[0].detail.startswith("closed-form residue G; Alt(H - M*pi(x)*G) = 0")

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_raw_family_polynomial_matches_its_name(self, name):
        # Written out in x, a family member is rewritten in the power sums
        # and gives the verdict and residue of the family, key order included.
        for m in range(2, 5):
            for n in range(m, 9):
                by_name = verify_conjecture2(name, n, m)
                raw = verify_conjecture2(family_polynomial(name, n, m), n, m)
                assert (raw.conjecture_id, raw.source_label) == ("C3-poly", "raw")
                assert raw.verdict == by_name.verdict == "verified", (name, n, m)
                assert raw.extracted == by_name.extracted, (name, n, m)
                assert list(raw.extracted.coefficients) == list(by_name.extracted.coefficients)
                assert [s.to_json() for s in raw.stages] == [s.to_json() for s in by_name.stages]


class TestExtractZ:
    def test_degree_zero(self):
        expansion = extract_z(0, 2)
        assert expansion.coefficient(()) == MultiPoly.a(1) ** 2 + 3 * MultiPoly.a(2)

    def test_quadratic_key(self):
        expected = z_table()[(2, 2)][(2, 0)]
        assert extract_z(2, 2).coefficient((2, 0)) == expected

    def test_dependent_products_zero(self):
        assert extract_z(3, 2).coefficient((0, 0, 1)) == 0

    def test_m_one_rejected(self):
        with pytest.raises(PreconditionError):
            extract_z(2, 1)

    def test_coefficients_are_canonical(self):
        # A coefficient is built from the engine's buckets without the
        # checking constructor; rebuilding it by that constructor changes
        # nothing: the same terms in the same order, each an int where it is
        # integral, and a constant is a Fraction, not a MultiPoly.
        def stored(poly):
            return [(mono, c, type(c)) for mono, c in poly.terms.items()]

        for n in range(5):
            for m in range(2, 5):
                for key, coeff in extract_z(n, m).coefficients.items():
                    if isinstance(coeff, MultiPoly):
                        assert not coeff.terms.keys() <= {()}, (n, m, key)
                        assert stored(coeff) == stored(MultiPoly(coeff.terms)), (n, m, key)
                    else:
                        assert type(coeff) is F, (n, m, key)

    def test_keys_cover_unrestricted_set(self):
        expansion = extract_z(3, 2)
        assert list(expansion.coefficients) == exponent_vectors(3, 3)

    def test_flagged_entry_dual_pipeline(self):
        # The published value of this entry disagrees with the recomputation;
        # certify the recomputed value with the independent full-product
        # route and record that the published variant differs.
        computed = extract_z(3, 3).coefficient(Z3_FLAGGED_KEY)
        symbolic = MultiPoly.zero()
        for key, coeff in extract_z(3, 3).coefficients.items():
            symbolic = symbolic + coeff * power_sum_product(key, 3)
        from symmrel.families import symbolic_family_polynomial

        rf = u_function(symbolic_family_polynomial(6, 3), 6, 3, specialize_y=True)
        assert (rf.numerator - symbolic * rf.denominator).is_zero()
        printed = z3_flagged_printed()
        assert computed != printed
        difference = computed - printed
        a2 = MultiPoly.a(2)
        assert difference == F(9605 - 960, 3) * a2**3


class TestExtractYBasis:
    def test_constant_entry(self):
        expansion = extract_y_basis(2, 2, (0, 1))
        assert expansion.coefficients == {(): F(3)}

    def test_m3_quadratic_entry(self):
        expansion = extract_y_basis(5, 3, (1, 2, 0, 0, 0))
        expected = y_tables()[3][(5, (1, 2, 0, 0, 0))]
        assert expansion.to_polynomial() == expected

    def test_zero_entry(self):
        assert extract_y_basis(8, 3, (0, 2, 0, 1, 0, 0, 0, 0)).is_zero()

    def test_single_variable_always_zero(self):
        for n in (1, 2, 4, 6):
            assert extract_y_basis(n, 1, exponent_vectors(n, max(n, 1))[0]).is_zero()

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            extract_y_basis(4, 2, (1, 1, 0))

    def test_linearity(self):
        rng = random.Random(5)
        for m in (2, 3):
            for n in range(m, 7):
                keys = exponent_vectors(n, n)
                coeffs = {k: F(rng.randint(-5, 5)) for k in keys}
                combined = PowerSumExpansion(n, m, coeffs)
                report = verify_conjecture2(combined, n, m)
                assert report.verdict == "verified"
                total = {}
                for key, c in coeffs.items():
                    for bk, v in extract_y_basis(n, m, key).coefficients.items():
                        total[bk] = total.get(bk, F(0)) + c * F(v)
                for bk, v in report.extracted.coefficients.items():
                    assert total.get(bk, F(0)) == v

    def test_bernoulli_values_kill_residues(self):
        values = symbolic_coefficient_values("bernoulli", 8)
        for m in (2, 3):
            for n in range(0, 7 - m):
                expansion = extract_z(n, m)
                for coeff in expansion.coefficients.values():
                    if isinstance(coeff, MultiPoly):
                        assert coeff.substitute(values) == MultiPoly.zero()
                    else:
                        assert coeff == 0


class TestPowerSumVariables:
    """The oracle that reads an expansion off a polynomial in the p_k."""

    def test_read_off(self):
        a1 = MultiPoly.a(1)
        poly = 3 * power_sum_monomial((2, 0)) - a1 * power_sum_monomial((0, 1)) / 2
        expansion = read_power_sums(poly, 2, 2)
        assert list(expansion.coefficients) == exponent_vectors(2, 2)
        assert expansion.coefficients == {(2, 0): F(3), (0, 1): -a1 / 2}
        assert type(expansion.coefficients[(2, 0)]) is F
        assert read_power_sums(MultiPoly.zero(), 3, 2).coefficients == {(2, 0): F(0), (0, 1): F(0)}

    def test_rejects_terms_outside_the_keys(self):
        for poly, m, weight in [
            (power_sum_monomial((0, 0, 1)), 2, 3),  # part 3 > m
            (power_sum_monomial((0, 1)), 2, 1),  # weight 2, stated 1
            (power_sum_monomial((2, 0, 1)), 3, 2),  # p_1^2 p_3: p_3 past the stated weight
        ]:
            with pytest.raises(NotRepresentableError):
                read_power_sums(poly, m, weight)


def _mono_weight(mono) -> int:
    """The p-weight of a monomial: r * e summed over its factors p_r^e."""
    return sum(v.index * e for v, e in mono if v.kind == KIND_P)


def _packed(engine, poly: MultiPoly) -> dict:
    """A MultiPoly in p_1..p_d of weight <= d in the engine's graded packed form."""
    graded: dict = {}
    for mono, c in poly.terms.items():
        vector = [0] * engine.d
        for v, e in mono:
            vector[v.index - 1] = e
        graded.setdefault(_mono_weight(mono), {})[engine._pack(vector)] = c
    return graded


def _unpacked(engine, graded: dict, denominator=1) -> MultiPoly:
    """The MultiPoly of the engine's graded packed polynomial over denominator,
    checking that each term sits at its own weight."""
    d = engine.d
    decode = {
        engine._pack(v): v + (0,) * (d - len(v)) for w in range(d + 1) for v in exponent_vectors(w, max(w, 1))
    }
    terms = {}
    for w, part in graded.items():
        for packed, c in part.items():
            vector = decode[packed]
            assert sum(r * e for r, e in enumerate(vector, 1)) == w, (vector, w)
            terms[tuple((VarId(KIND_P, r), e) for r, e in enumerate(vector, 1) if e)] = F(c, denominator)
    return MultiPoly(terms)


class TestClosedFormResidue:
    """The divided-difference residue against the expansion over pi(x) * W,
    exact division and basis solve of ``oracles.lcd_residue``, and the
    power-sum engine against the same closed form in the x variables."""

    def test_power_sums_match_x_variables(self):
        count = 0
        for n in range(1, 9):
            for m in range(1, n + 1):
                for key in exponent_vectors(n, n):
                    expected = x_variable_residue(_make_source(key, n), m)
                    got = extract_y_basis(n, m, key)
                    assert list(got.coefficients) == list(expected.coefficients), (n, m, key)
                    for k, c in got.coefficients.items():
                        assert c == expected.coefficients[k], (n, m, key, k)
                        assert type(c) is type(expected.coefficients[k]), (n, m, key, k)
                    count += 1
        assert count == 416
        for m in range(2, 5):
            for n in range(m, 11):
                source = _make_source("symbolic", n)
                assert _y_one_residue(source, m) == x_variable_residue(source, m), (n, m)

    def test_every_key(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                for key in exponent_vectors(n, n):
                    expected = lcd_residue(_make_source(key, n), m)
                    got = extract_y_basis(n, m, key)
                    assert got == expected, (n, m, key)
                    assert list(got.coefficients) == list(expected.coefficients)

    def test_symbolic(self):
        for m in range(2, 5):
            for n in range(m, 9):
                expected = lcd_residue(_make_source("symbolic", n), m)
                assert verify_conjecture2("symbolic", n, m).extracted == expected, (n, m)
                assert _y_one_residue(_make_source("symbolic", n), m) == expected, (n, m)
                z = extract_z(n - m, m)
                for key in exponent_vectors(n - m, max(n - m, 1)):
                    assert z.coefficient(key) == expected.coefficient(key), (n, m, key)

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_families(self, name):
        for n in range(1, 7):
            for m in range(1, n + 1):
                expected = lcd_residue(_make_source(name, n), m)
                assert _y_one_residue(_make_source(name, n), m) == expected, (n, m)
                assert verify_conjecture2(name, n, m).extracted == expected, (n, m)

    def test_truncation_matches_untruncated_form(self):
        def check(source, m):
            got = _y_one_residue(source, m)
            expected = untruncated_residue(source, m)
            assert got == expected, (source.label, source.n, m)
            for key, c in got.coefficients.items():
                assert type(c) is type(expected.coefficients[key]), (source.label, m, key)
            assert list(got.coefficients) == list(expected.coefficients)

        count = 0
        for n in range(1, 9):
            for m in range(1, n + 1):
                for key in exponent_vectors(n, n):
                    check(_make_source(key, n), m)
                    count += 1
        assert count == 416
        for m in range(2, 5):
            for n in range(m, m + 5):
                check(_make_source("symbolic", n), m)
        for name in FAMILY_NAMES:
            for m in range(1, 5):
                for n in range(m, m + 5):
                    check(_make_source(name, n), m)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_expansion_sources_with_large_parts(self, data):
        # Rational combinations of power-sum keys, some with parts above m.
        n = data.draw(st.integers(2, 8), label="n")
        m = data.draw(st.integers(1, n - 1), label="m")
        pool = [key for key in exponent_vectors(n, n) if any(key[m:])]
        keys = data.draw(st.lists(st.sampled_from(exponent_vectors(n, n)), max_size=4), label="keys")
        keys.append(data.draw(st.sampled_from(pool), label="large"))
        coefficients = {
            key: data.draw(st.fractions(-20, 20, max_denominator=9), label=str(key)) for key in keys
        }
        source = _make_source(PowerSumExpansion(n, n, coefficients), n)
        assert _y_one_residue(source, m) == untruncated_residue(source, m)

    @pytest.mark.parametrize("spec, n, m", [
        ((0, 0, 0, 0, 0, 0, 0, 1), 8, 3),
        ((8,) + (0,) * 7, 8, 5),
        ((0, 1, 1, 0, 1, 0, 0, 0, 0, 0), 10, 4),
        ("symbolic", 7, 3),
        ("bernoulli", 8, 2),
    ])
    def test_no_product_forms_a_discarded_part(self, monkeypatch, spec, n, m):
        # Both factors of every product inside the extraction, the Newton
        # tables' included, have p-weight at most d = n - m.
        source = _make_source(spec, n)
        d = n - m
        heaviest = []

        def weighed(run, owner, name, weight):
            heaviest.clear()
            multiply = getattr(owner, name)

            def spy(*args):
                a, b = args[-2:]
                if isinstance(b, (dict, MultiPoly)):
                    heaviest.append(max((weight(f) for f in (a, b)), default=0))
                return multiply(*args)

            with monkeypatch.context() as patch:
                patch.setattr(owner, name, spy)
                if owner is MultiPoly:
                    patch.setattr(MultiPoly, "__rmul__", spy)
                result = run()
            return result, max(heaviest)

        got, got_heaviest = weighed(
            lambda: _y_one_residue(source, m), _ResidueEngine, "_product", lambda f: max(f, default=0)
        )
        expected, untruncated_heaviest = weighed(
            lambda: untruncated_residue(source, m),
            MultiPoly,
            "__mul__",
            lambda f: max(map(_mono_weight, f.terms), default=0),
        )
        assert got == expected
        assert got_heaviest <= d, (got_heaviest, d)
        # Negative control: the untruncated form multiplies heavier factors
        # except where every factor of p_2 p_3 p_5 stays within d = 6.
        assert (untruncated_heaviest > d) == (spec != (0, 1, 1, 0, 1, 0, 0, 0, 0, 0)), (
            untruncated_heaviest, d
        )

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_truncated_product_is_the_filtered_product(self, data):
        # The graded product equals MultiPoly's product with its terms above
        # weight d dropped.
        d = data.draw(st.integers(0, 9), label="d")
        engine = _ResidueEngine(data.draw(st.integers(1, 5), label="m"), d)
        vectors = [v + (0,) * (d - len(v)) for w in range(d + 1) for v in exponent_vectors(w, max(w, 1))]

        def poly(label):
            chosen = data.draw(st.lists(st.sampled_from(vectors), max_size=8), label=label)
            return MultiPoly(
                {
                    tuple((VarId(KIND_P, r), e) for r, e in enumerate(v, 1) if e): data.draw(
                        st.integers(-30, 30), label=f"{label}{v}"
                    )
                    for v in chosen
                }
            )

        f, g = poly("f"), poly("g")
        expected = MultiPoly({mono: c for mono, c in (f * g).terms.items() if _mono_weight(mono) <= d})
        got = engine._product(_packed(engine, f), _packed(engine, g))
        assert _unpacked(engine, got) == expected
        assert all(part for part in got.values())

    @pytest.mark.parametrize("name", ["bernoulli", "euler"])
    def test_numeric_residues_match_the_untruncated_form(self, name):
        for m in range(2, 5):
            for n in range(m, 15):
                source = _make_source(name, n)
                got = _y_one_residue(source, m)
                expected = untruncated_residue(source, m)
                assert got == expected, (name, n, m)
                assert list(got.coefficients) == list(expected.coefficients)

    def test_the_kernel_meets_the_cap_as_multipoly_does(self):
        # At the cap the graded product refuses the same operands with the
        # same message as MultiPoly.__mul__, and a residue meets it with the
        # same message cold and warm.
        engine = _ResidueEngine(3, 6)
        f = MultiPoly.p(1) + MultiPoly.p(2) + 1
        g = MultiPoly.p(1) ** 2 + MultiPoly.p(3) - MultiPoly.p(2) + 2
        cap = get_term_cap()
        try:
            set_term_cap(11)
            messages = []
            for a, b in ((f, g), (g, f)):
                for run in (lambda: a * b, lambda: engine._product(_packed(engine, a), _packed(engine, b))):
                    with pytest.raises(TermCapExceeded) as caught:
                        run()
                    messages.append(str(caught.value))
            assert messages == ["product of 3 x 4 terms exceeds the cap of 11"] * 4
            set_term_cap(12)
            assert _unpacked(engine, engine._product(_packed(engine, f), _packed(engine, g))) == f * g
            source = _make_source("symbolic", 9)
            residues = []
            for warm in (False, True):
                set_term_cap(cap)
                if warm:
                    _y_one_residue(source, 3)
                    extract_z(6, 3)
                set_term_cap(40)
                with pytest.raises(TermCapExceeded) as caught:
                    _y_one_residue(source, 3)
                residues.append(str(caught.value))
        finally:
            set_term_cap(cap)
            extract_z.cache_clear()
        assert residues[0] == residues[1]
        assert residues[0].startswith("product of ") and residues[0].endswith(" exceeds the cap of 40")

    def test_residue_system_matches_the_untruncated_form_per_key(self):
        for n in range(2, 8):
            rows, keys = residue_system(n)
            expected = []
            for m in range(2, n + 1):
                residues = [untruncated_residue(_make_source(k, n), m) for k in keys]
                for basis_key in exponent_vectors(n - m, m):
                    expected.append([F(r.coefficient(basis_key)) for r in residues])
            assert rows == expected, n

    def test_a_shared_engine_keeps_nothing_of_earlier_sources(self):
        # One engine serves every key in reverse listing order; each residue
        # equals the one of an engine of its own.
        engine = _ResidueEngine(3, 5)
        for key in reversed(exponent_vectors(8, 8)):
            source = _make_source(key, 8)
            got = engine.residue(source)
            expected = _y_one_residue(source, 3)
            assert got == expected, key
            assert list(got.coefficients) == list(expected.coefficients)

    @pytest.mark.parametrize("spec, n, m", [((1, 1, 0, 0, 1, 0, 0, 0), 8, 2), ("symbolic", 7, 3)])
    def test_forming_f_multiplies_only_ints(self, monkeypatch, spec, n, m):
        # F is formed in the free power sums, so p_5 (or p_7) is never
        # rewritten in p_1..p_m before a product.
        source = _make_source(spec, n)
        formed = []
        factors = []
        product = _ResidueEngine._product
        multiply = MultiPoly.__mul__

        def engine_spy(engine, a, b):
            formed.extend((a, b))
            return product(engine, a, b)

        def spy(a, b):
            if isinstance(b, MultiPoly):
                factors.extend((a, b))
            return multiply(a, b)

        def integral(f):
            return all(type(c) is int for c in f.terms.values())

        with monkeypatch.context() as patch:
            patch.setattr(_ResidueEngine, "_product", engine_spy)
            _ResidueEngine(m, n - m).free_form(source)
        with monkeypatch.context() as patch:
            patch.setattr(MultiPoly, "__mul__", spy)
            patch.setattr(MultiPoly, "__rmul__", spy)
            untruncated_residue(source, m)
        assert formed and all(type(c) is int for f in formed for part in f.values() for c in part.values())
        # Negative control: with p_r rewritten in p_1..p_m first, a product
        # has a Fraction factor.
        assert not all(integral(f) for f in factors)

    def test_newton_tables(self):
        # p_r and h_j in p_1..p_m, written out in x_1..x_m.
        for m in range(1, 6):
            engine = _ResidueEngine(m, 8)
            p, h = (
                [_unpacked(engine, poly, denominator) for poly, denominator in table]
                for table in engine._newton_tables()
            )
            assert p[0] == MultiPoly.constant(m)
            sums = {VarId(KIND_P, k): power_sum(k, m) for k in range(1, m + 1)}
            for r in range(1, 9):
                assert p[r].substitute(sums) == power_sum(r, m), (m, r)
            for j in range(9):
                assert h[j].substitute(sums) == complete_homogeneous(j, m), (m, j)
            for d in range(8):
                smaller = _ResidueEngine(m, d)
                tables = [
                    [_unpacked(smaller, poly, denominator) for poly, denominator in table]
                    for table in smaller._newton_tables()
                ]
                assert tables == [p[: d + 1], h[: d + 1]], (m, d)

    def test_newton_tables_meet_a_term_cap_no_sooner_than_the_residue(self, monkeypatch):
        # Each engine builds its tables for its first image.  Their largest
        # product is no larger than the residue's own, so a cap the tables
        # would meet stops the residue either way.
        largest = []
        product = _ResidueEngine._product

        def spy(engine, a, b):
            largest.append(sum(map(len, a.values())) * sum(map(len, b.values())))
            return product(engine, a, b)

        monkeypatch.setattr(_ResidueEngine, "_product", spy)
        for m in range(2, 5):
            for n in range(m, m + 7):
                largest.clear()
                _ResidueEngine(m, n - m)._newton_tables()
                tables = max(largest, default=0)
                sources = [_make_source("symbolic", n)]
                if n <= 8:
                    sources += [_make_source(key, n) for key in exponent_vectors(n, n)]
                for source in sources:
                    largest.clear()
                    _y_one_residue(source, m)
                    assert tables <= max(largest), (source.label, n, m)

    def test_extraction_does_not_expand_the_numerator(self, monkeypatch):
        calls = []

        def refuse(name):
            def spy(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called during extraction")

            return spy

        y_expected = y_tables()[3][(5, (1, 2, 0, 0, 0))]
        z_expected = z_table()[(2, 2)][(2, 0)]
        monkeypatch.setattr(relations, "u_function", refuse("u_function"))
        monkeypatch.setattr(MultiPoly, "exact_divide", refuse("exact_divide"))
        for module, name in [
            (relations, "to_power_sum_basis"),
            (relations, "is_symmetric"),
            (symmfunc, "to_power_sum_basis"),
            (symmfunc, "is_symmetric"),
            (symmfunc, "_certified_rref"),
        ]:
            monkeypatch.setattr(module, name, refuse(name))
        extract_z.cache_clear()
        try:
            assert extract_y_basis(5, 3, (1, 2, 0, 0, 0)).to_polynomial() == y_expected
            assert extract_z(2, 2).coefficient((2, 0)) == z_expected
        finally:
            extract_z.cache_clear()
        assert calls == []
