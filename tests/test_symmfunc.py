import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmrel import relations, symmfunc
from symmrel.exactnum import bernoulli_numbers
from symmrel.families import (
    FAMILY_NAMES,
    SYMBOLIC_NAME,
    family_polynomial,
    symbolic_family_polynomial,
)
from symmrel.polyring import (
    KIND_A,
    KIND_P,
    MultiPoly,
    TermCapExceeded,
    VarId,
    get_term_cap,
    set_term_cap,
)
from symmrel.partitions import exponent_vectors
from symmrel.symmfunc import (
    NotHomogeneousError,
    NotSymmetricError,
    PowerSumExpansion,
    in_variables,
    is_symmetric,
    monomial_expansion,
    power_sum,
    power_sum_product,
    to_power_sum_basis,
)

from oracles import (
    complete_bell,
    complete_bell_sequence,
    decoded,
    orbit_certificate,
    series_exp,
    substituted_in_variables,
    x_monomial_basis,
)

x1, x2, x3 = MultiPoly.x(1), MultiPoly.x(2), MultiPoly.x(3)


class TestPowerSums:
    def test_examples(self):
        assert power_sum(1, 2) == x1 + x2
        assert power_sum(2, 3) == x1**2 + x2**2 + x3**2
        assert power_sum(3, 1) == x1**3

    def test_products(self):
        assert power_sum_product((2, 0), 2) == x1**2 + 2 * x1 * x2 + x2**2
        assert power_sum_product((0, 1), 2) == x1**2 + x2**2
        assert power_sum_product((), 2) == MultiPoly.one()

    def test_products_homogeneous(self):
        for k in exponent_vectors(6, 6):
            product = power_sum_product(k, 3)
            degrees = {sum(e for _, e in mono) for mono in product.terms}
            assert degrees == {6}


@st.composite
def power_sum_forms(draw):
    """(form, m): a polynomial in p_1..p_6 over Q[a] with int, Fraction and
    a-monomial coefficients, parts above m included, and m = 1..4."""
    m = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        powers = draw(st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=3))
        if sum(k * e for k, e in powers.items()) > 8:
            continue
        numerator = draw(st.integers(-9, 9))
        coeff = draw(st.sampled_from([numerator, F(numerator, 2), F(numerator, 6)]))
        a_part = draw(st.dictionaries(st.integers(1, 3), st.integers(1, 2), max_size=2))
        mono = [(VarId(KIND_A, k), e) for k, e in a_part.items()]
        mono += [(VarId(KIND_P, k), e) for k, e in powers.items()]
        terms.append((mono, coeff))
    return MultiPoly(terms), m


class TestMonomialKernel:
    """``in_variables`` takes a form in the power sums to x_1..x_m through
    the monomial basis, against substituting the power sums."""

    @settings(max_examples=150, deadline=None)
    @given(power_sum_forms(), st.data())
    def test_matches_the_substitution_route(self, case, data):
        form, m = case
        got = in_variables(form, m)
        assert got == substituted_in_variables(form, m)
        # An integral Fraction is stored as the int it equals.
        assert not any(type(c) is F and c.denominator == 1 for c in got.terms.values())
        # At y = 1 the orbit certificate reads S(s_1) off the same monomial
        # expansion, s_1 = (x_1, x_2 - x_1, ...): its residual for
        # H = M (S(x) - S(s_1) - pi(x) G) equals that of H with S(s_1)
        # substituted, for a random G.
        weight = data.draw(st.integers(0, 3), label="weight of G")
        fractions = st.fractions(-5, 5, max_denominator=3)
        keys = exponent_vectors(weight, m)
        g = PowerSumExpansion(weight, m, {k: data.draw(fractions, label=str(k)) for k in keys})
        source = relations._Source(0, "form", lambda: form)
        residual = relations._certificate(source, m, g)[1]
        assert decoded(residual, 1) == orbit_certificate(source, m, g)[1]

    @pytest.mark.parametrize(
        "form, m, vanishes",
        [
            (MultiPoly.zero(), 3, True),  # the zero form
            (MultiPoly.constant(F(5, 3)), 2, False),  # degree 0
            (MultiPoly.p(4) * MultiPoly.p(1) ** 2 * F(1, 2), 1, False),  # one variable
            (MultiPoly.p(5) * MultiPoly.a(2), 2, False),  # a part above m
            ((MultiPoly.p(1) ** 2 - MultiPoly.p(2)) * MultiPoly.a(1), 1, True),  # 2 e_2 of one variable
        ],
    )
    def test_edge_forms(self, form, m, vanishes):
        got = in_variables(form, m)
        assert got == substituted_in_variables(form, m)
        assert got.is_zero() == vanishes

    def test_coefficients_are_the_p_to_m_transition(self):
        # p_1^3 = m_3 + 3 m_21 + 6 m_111, and p_2 p_1 = m_3 + m_21 in three
        # variables (Macdonald 1995, I.6).
        p1, p2 = MultiPoly.p(1), MultiPoly.p(2)
        assert monomial_expansion(p1**3, 3) == {(): {(3, 0, 0): 1, (2, 1, 0): 3, (1, 1, 1): 6}}
        assert monomial_expansion(p2 * p1, 3) == {(): {(3, 0, 0): 1, (2, 1, 0): 1}}
        assert monomial_expansion(p1**3, 2) == {(): {(3, 0): 1, (2, 1): 3}}

    def test_the_x_terms_are_held_to_the_cap(self):
        # p_1^3 in three variables has 3 + 6 + 1 = 10 terms.
        cap = get_term_cap()
        try:
            set_term_cap(9)
            message = "^expansion in x_1..x_3 of 10 terms exceeds the cap of 9$"
            with pytest.raises(TermCapExceeded, match=message):
                in_variables(MultiPoly.p(1) ** 3, 3)
            set_term_cap(10)
            assert len(in_variables(MultiPoly.p(1) ** 3, 3)) == 10
        finally:
            set_term_cap(cap)

    def test_rejects_variables_outside_the_power_sums(self):
        with pytest.raises(ValueError, match="got variable x_1"):
            monomial_expansion(MultiPoly.x(1) * MultiPoly.p(1), 2)


class TestCompleteBell:
    def test_low_orders_symbolic(self):
        b = [MultiPoly.a(i) for i in range(1, 6)]
        seq = complete_bell_sequence(5, b)
        b1, b2, b3, b4, b5 = b
        assert seq[0] == MultiPoly.one() or seq[0] == 1
        assert seq[1] == b1
        assert seq[2] == b1**2 + b2
        assert seq[3] == b1**3 + 3 * b1 * b2 + b3
        assert seq[4] == b1**4 + 6 * b1**2 * b2 + 4 * b1 * b3 + 3 * b2**2 + b4
        assert seq[5] == (
            b1**5 + 10 * b1**3 * b2 + 10 * b1**2 * b3 + 15 * b1 * b2**2
            + 5 * b1 * b4 + 10 * b2 * b3 + b5
        )

    def test_vanishing_odd_entries(self):
        # With b_3 = 0 the quartic collapses to b_1^4 + 6 b_1^2 b_2 + 3 b_2^2 + b_4.
        b1, b2, b4 = MultiPoly.a(1), MultiPoly.a(2), MultiPoly.a(4)
        value = complete_bell(4, [b1, b2, MultiPoly.zero(), b4])
        assert value == b1**4 + 6 * b1**2 * b2 + 3 * b2**2 + b4

    def test_generating_function_oracle(self):
        # exp(sum b_i t^i / i!) coefficients must reproduce the recurrence.
        rng = random.Random(3)
        n = 7
        b = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        series = series_exp([F(0)] + [b[i] / _fact(i + 1) for i in range(n)])
        seq = complete_bell_sequence(n, b)
        for k in range(n + 1):
            assert series[k] * _fact(k) == seq[k]

    def test_insufficient_entries(self):
        with pytest.raises(ValueError):
            complete_bell(3, [F(1), F(2)])

    def test_substitution_evaluation_commute(self):
        # Bell over symbolic a_r * p_r, specialized at the Bernoulli stream,
        # equals Bell computed directly with numeric coefficients.
        m, n = 3, 6
        bern = bernoulli_numbers(n)
        stream = [F((-1) ** (r - 1)) * bern[r] / r for r in range(1, n + 1)]
        symbolic = complete_bell(
            n, [MultiPoly.a(r) * power_sum(r, m) for r in range(1, n + 1)]
        )
        assignment = {VarId(KIND_A, r): stream[r - 1] for r in range(1, n + 1)}
        numeric = complete_bell(
            n, [stream[r - 1] * power_sum(r, m) for r in range(1, n + 1)]
        )
        assert symbolic.substitute(assignment) == numeric


class TestSymmetryCheck:
    def test_symmetric(self):
        assert is_symmetric(power_sum(3, 3) + 2 * power_sum(1, 3) ** 3, 3)

    def test_not_symmetric(self):
        assert not is_symmetric(x1**2 + x2, 2)
        assert not is_symmetric(x1 * x2**2 + x2 * x3**2 + x3 * x1**2, 3)


class TestBasisConversion:
    def test_examples(self):
        assert to_power_sum_basis(x1**2 + x2**2, 2, 2).coefficients == {
            (2, 0): F(0),
            (0, 1): F(1),
        }
        assert to_power_sum_basis((x1 + x2) ** 2, 2, 2).coefficients == {
            (2, 0): F(1),
            (0, 1): F(0),
        }
        assert to_power_sum_basis(2 * x1 * x2, 2, 2).coefficients == {
            (2, 0): F(1),
            (0, 1): F(-1),
        }

    def test_round_trip_restricted(self):
        for m in (2, 3, 4):
            for weight in range(1, 9):
                for key in exponent_vectors(weight, m):
                    expansion = to_power_sum_basis(power_sum_product(key, m), m, m)
                    expected = {k: F(1 if k == key else 0) for k in exponent_vectors(weight, m)}
                    assert expansion.coefficients == expected

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetricError):
            to_power_sum_basis(x1**2 + x1 * x2, 2, 2)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(NotHomogeneousError):
            to_power_sum_basis(x1 + x2 + x1 * x2, 2, 2)
        with pytest.raises(NotHomogeneousError):  # homogeneous, not of the stated weight
            to_power_sum_basis(x1 * x2, 2, 2, weight=3)

    def test_rejects_out_of_span(self):
        from symmrel.symmfunc import NotRepresentableError

        with pytest.raises(
            NotRepresentableError, match="^polynomial is outside the span of the requested basis$"
        ):
            to_power_sum_basis(power_sum(3, 3), 3, 2)

    def test_rejects_dependent_basis(self):
        from symmrel.symmfunc import NotRepresentableError

        # parts <= 3 products are linearly dependent in two variables
        with pytest.raises(
            NotRepresentableError, match="^basis is not independent: underdetermined column$"
        ):
            to_power_sum_basis(power_sum(1, 2) ** 3, 2, 3)

    @pytest.mark.parametrize("m", [0, -1])
    def test_rejects_no_variables(self, m):
        with pytest.raises(ValueError, match="^need at least one variable$"):
            to_power_sum_basis(x1 + x2, m, 2)

    def test_rejects_other_variables_by_name(self):
        with pytest.raises(ValueError, match="variable p_1"):
            to_power_sum_basis(MultiPoly.p(1), 1, 1)
        with pytest.raises(ValueError, match="variable y_2"):
            to_power_sum_basis(MultiPoly.y(2) * (x1 + x2), 2, 2)

    def test_zero_needs_weight(self):
        with pytest.raises(ValueError):
            to_power_sum_basis(MultiPoly.zero(), 2, 2)
        expansion = to_power_sum_basis(MultiPoly.zero(), 2, 2, weight=3)
        assert expansion.is_zero()
        assert set(expansion.coefficients) == set(exponent_vectors(3, 2))

    def test_symbolic_coefficients(self):
        a1, a2 = MultiPoly.a(1), MultiPoly.a(2)
        poly = a1 * power_sum_product((2, 0), 2) + (a2**2 - a1) * power_sum_product((0, 1), 2)
        expansion = to_power_sum_basis(poly, 2, 2)
        assert expansion.coefficient((2, 0)) == a1
        assert expansion.coefficient((0, 1)) == a2**2 - a1

    def test_to_polynomial_round_trip(self):
        poly = 3 * power_sum_product((1, 1, 0), 3) - power_sum_product((0, 0, 1), 3) / 2
        expansion = to_power_sum_basis(poly, 3, 3)
        assert expansion.to_polynomial() == poly

    @pytest.mark.parametrize("name", FAMILY_NAMES + (SYMBOLIC_NAME,))
    def test_family_members_round_trip(self, name):
        for m in range(1, 5):
            for n in range(0, 7):
                if name == SYMBOLIC_NAME:
                    poly = symbolic_family_polynomial(n, m)
                else:
                    poly = family_polynomial(name, n, m)
                expansion = to_power_sum_basis(poly, m, m, weight=n)
                assert expansion.to_polynomial() == poly, (n, m)
                for coeff in expansion.coefficients.values():
                    if isinstance(coeff, MultiPoly):
                        assert coeff.variables(), (n, m)
                    else:
                        assert type(coeff) is F, (n, m)

    def test_right_hand_side_needing_crt(self, monkeypatch):
        # Numerator and denominator near 2^80 need a modulus above 2^161:
        # three 62-bit primes.
        big = F(2**80 + 1, 3**50)
        poly = big * power_sum(2, 2) + MultiPoly.a(3) * power_sum(1, 2) ** 2
        kernel = symmfunc._certified_rref
        primes = []

        def spy(matrix, columns):
            forms, count = kernel(matrix, columns)
            primes.append(count)
            return forms, count

        monkeypatch.setattr(symmfunc, "_certified_rref", spy)
        expansion = to_power_sum_basis(poly, 2, 2)
        assert primes == [3]
        assert list(expansion.coefficients) == [(2, 0), (0, 1)]
        assert expansion.coefficient((2, 0)) == MultiPoly.a(3)
        assert type(expansion.coefficient((0, 1))) is F
        assert expansion.coefficient((0, 1)) == big


def _outcome(convert, poly, m, max_part, weight=None):
    """What a basis conversion returns, every key and coefficient in order
    with the coefficient's type, or the type and message of what it raises."""
    try:
        expansion = convert(poly, m, max_part, weight)
    except Exception as error:
        return type(error), str(error)
    items = [(key, type(c), c) for key, c in expansion.coefficients.items()]
    return expansion.weight, expansion.num_vars, items


class TestBasisConversionOracle:
    """``to_power_sum_basis`` solves on the monomial symmetric functions; the
    oracle's ``x_monomial_basis`` solves the system on every x-monomial, each
    basis product expanded by substitution, by ``Fraction`` Gauss-Jordan
    elimination.  Results, exceptions and messages agree."""

    @pytest.mark.parametrize("name", FAMILY_NAMES + (SYMBOLIC_NAME,))
    def test_family_members(self, name):
        for m in range(1, 5):
            for n in range(0, 7):
                if name == SYMBOLIC_NAME:
                    poly = symbolic_family_polynomial(n, m)
                else:
                    poly = family_polynomial(name, n, m)
                for max_part in (m, m + 1):
                    got = _outcome(to_power_sum_basis, poly, m, max_part, n)
                    assert got == _outcome(x_monomial_basis, poly, m, max_part, n), (n, m, max_part)

    def test_edge_cases(self):
        x4, x5 = MultiPoly.x(4), MultiPoly.x(5)
        y1, p1, a1 = MultiPoly.y(1), MultiPoly.p(1), MultiPoly.a(1)
        cases = [
            # max_part below the weight: in the span, and outside it
            (power_sum_product((2, 1, 0, 0), 3), 3, 2, None),
            (family_polynomial("bernoulli", 4, 4), 4, 2, None),
            (a1 * power_sum_product((1, 0, 1, 0), 3), 3, 3, None),
            # an x_j with j > m, alone, with a dependent basis, and in a's
            (x1**2 + x2**2 + x5**2, 2, 2, None),
            (x4 * (x1 + x2), 2, 2, None),
            (x4**3 + power_sum(3, 2), 2, 3, None),
            (a1 * (x1**2 + x2**2) + MultiPoly.a(2) * x3**2, 2, 2, None),
            # y and p variables
            (y1 * (x1 + x2), 2, 2, None),
            (p1 * (x1 + x2) + x1 + x2, 2, 2, None),
            (MultiPoly.p(2), 2, 2, None),
            (y1 * a1, 2, 2, None),
            # the zero polynomial
            (MultiPoly.zero(), 2, 2, None),
            (MultiPoly.zero(), 2, 2, 0),
            (MultiPoly.zero(), 3, 2, 4),
            # a constant, and the precondition checks
            (3 * a1, 3, 2, None),
            (x1**2 + 2 * x2**2, 2, 2, None),
            (x1**2 + x2, 2, 2, None),
            (x1 * x2, 2, 2, 3),
            (x1 + x2, 0, 2, None),
        ]
        outcomes = set()
        for poly, m, max_part, weight in cases:
            got = _outcome(to_power_sum_basis, poly, m, max_part, weight)
            assert got == _outcome(x_monomial_basis, poly, m, max_part, weight), (poly, m)
            outcomes.add(got[0] if isinstance(got[0], type) else "expansion")
        assert outcomes == {
            "expansion",
            ValueError,
            NotHomogeneousError,
            NotSymmetricError,
            symmfunc.NotRepresentableError,
        }

    def test_builds_no_x_polynomial(self, monkeypatch):
        # The inputs are built first; then the conversion runs with every
        # route into x refused, and solves one equation per partition of the
        # degree into at most m parts: 9 for degree 6 and m = 4.
        poly = family_polynomial("bernoulli", 6, 4)
        symbolic = symbolic_family_polynomial(5, 3)
        expected = [_outcome(x_monomial_basis, p, m, m) for p, m in ((poly, 4), (symbolic, 3))]

        def refuse(*args):
            raise AssertionError("a symmetric polynomial was expanded in x")

        kernel = symmfunc._certified_rref
        rows = []

        def spy(matrix, columns):
            rows.append(len(matrix))
            return kernel(matrix, columns)

        monkeypatch.setattr(symmfunc, "power_sum_product", refuse)
        monkeypatch.setattr(symmfunc, "in_variables", refuse)
        monkeypatch.setattr(symmfunc, "_certified_rref", spy)
        got = [_outcome(to_power_sum_basis, p, m, m) for p, m in ((poly, 4), (symbolic, 3))]
        assert got == expected
        assert rows == [9, 5]


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out
