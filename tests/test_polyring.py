from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symmrel import polyring, relations
from symmrel.families import family_polynomial
from symmrel.polyring import (
    KIND_A,
    KIND_X,
    KIND_Y,
    MissingVariableError,
    MultiPoly,
    NonDivisibleError,
    TermCapExceeded,
    VarId,
    get_term_cap,
    set_term_cap,
)
from symmrel.relations import _symbolic_rows

import oracles
from oracles import sequential_ratfunc_combine

x1, x2, x3 = MultiPoly.x(1), MultiPoly.x(2), MultiPoly.x(3)
y1, y2 = MultiPoly.y(1), MultiPoly.y(2)
a1, a2 = MultiPoly.a(1), MultiPoly.a(2)


def rationals():
    return st.builds(F, st.integers(-30, 30), st.integers(1, 7))


@st.composite
def polys(draw, max_vars=5, max_degree=4, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = []
    for _ in range(n_terms):
        n_factors = draw(st.integers(0, max_degree))
        mono = {}
        for _ in range(n_factors):
            var = VarId(KIND_X, draw(st.integers(1, max_vars)))
            mono[var] = mono.get(var, 0) + 1
        coeff = draw(rationals())
        terms.append((tuple(mono.items()), coeff))
    return MultiPoly(terms)


def _nonzero_rationals():
    return rationals().filter(bool)


# Divisors of the four shapes exact_divide tells apart.
DIVISORS = {
    "monomial": st.builds(
        lambda c, e: c * x1 ** e[0] * x2 ** e[1] * x3 ** e[2],
        _nonzero_rationals(),
        st.tuples(*[st.integers(0, 2)] * 3),
    ),
    "rational": st.builds(MultiPoly.constant, _nonzero_rationals()),
    "difference": st.tuples(st.integers(1, 5), st.integers(1, 5))
    .filter(lambda ij: ij[0] < ij[1])
    .map(lambda ij: MultiPoly.x(ij[1]) - MultiPoly.x(ij[0])),
    # Linear in x_3 over a non-constant leading coefficient in x_1, x_2.
    "nonconstant_lead": st.one_of(
        st.just(x1 * x3 + x2),
        st.builds(
            lambda lead, low: lead * x3 + low,
            polys(max_vars=2, max_terms=3).filter(lambda a: a.degree() > 0),
            polys(max_vars=2, max_terms=3),
        ),
    ),
}


class TestArithmetic:
    def test_product_of_conjugates(self):
        assert (x1 + x2) * (x1 - x2) == x1**2 - x2**2

    def test_multiply_by_zero(self):
        p = x1**2 + 3 * x2
        assert (p * MultiPoly.zero()).terms == {}
        assert p * 0 == 0

    def test_square_identity(self):
        assert (x1 + x2) ** 2 - (x1**2 + x2**2) == 2 * x1 * x2

    def test_scalar_mixing(self):
        assert F(1, 2) * (x1 + x1) == x1
        assert (3 * x1) / 3 == x1
        assert 1 + x1 - 1 == x1

    def test_canonical_equality(self):
        assert x1 * x2 == x2 * x1
        assert x1 + x2 - x2 == x1
        assert MultiPoly.constant(F(4, 2)) == 2

    @given(polys(), polys(), polys())
    @settings(max_examples=120, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(polys(max_terms=4))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_repeated_products(self, p):
        expected = MultiPoly.one()
        for e in range(6):
            assert p**e == expected, e
            expected = expected * p

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_neutral_elements(self, p):
        assert p + MultiPoly.zero() == p
        assert p * MultiPoly.one() == p
        assert p - p == MultiPoly.zero()


class TestEvaluation:
    def test_square_at_rational(self):
        assert (x1**2).evaluate({VarId(KIND_X, 1): F(3, 2)}) == F(9, 4)

    def test_zero_polynomial(self):
        assert MultiPoly.zero().evaluate({}) == 0

    def test_commutator_is_zero(self):
        p = x1 * x2 - x2 * x1
        assert p.evaluate({}) == 0

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            (x1 + x2).evaluate({VarId(KIND_X, 1): F(1)})


class TestSubstitution:
    def test_linear_expansion(self):
        assert (x1**2).substitute({VarId(KIND_X, 1): x1 + x2}) == x1**2 + 2 * x1 * x2 + x2**2

    def test_identity_map(self):
        p = x1**3 - 4 * x2 * x1
        assert p.substitute({}) == p
        assert p.substitute({VarId(KIND_X, 1): x1}) == p

    def test_matrix_row_substitution(self):
        # x_j -> second row of the 2x2 substitution matrix, applied to p_1.
        p1 = x1 + x2
        rows = {
            VarId(KIND_X, 1): y2 * x1 - y1 * x2,
            VarId(KIND_X, 2): x2,
        }
        assert p1.substitute(rows) == y2 * x1 - y1 * x2 + x2

    @given(
        polys(max_vars=3, max_degree=3),
        polys(max_vars=3, max_degree=2, max_terms=3),
        polys(max_vars=3, max_degree=2, max_terms=3),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_substitute_evaluate_commute(self, p, q, r, cancel):
        # Rational coefficients, two mapped variables and, with ``cancel``,
        # an input whose term products cancel: x_1 and x_2 both map to q, so
        # p * (x_1 - x_2) substitutes to zero.
        if cancel:
            p, r = p * (x1 - x2), q
        point = {VarId(KIND_X, i): F(i, i + 2) + 1 for i in range(1, 4)}
        replaced = p.substitute({VarId(KIND_X, 1): q, VarId(KIND_X, 2): r})
        assert_canonical(replaced)
        inner = dict(point)
        inner[VarId(KIND_X, 1)] = q.evaluate(point)
        inner[VarId(KIND_X, 2)] = r.evaluate(point)
        assert replaced.evaluate(point) == p.evaluate(inner)
        if cancel:
            assert replaced.is_zero()


class TestExactDivision:
    def test_difference_of_squares(self):
        assert (x1**2 - x2**2).exact_divide(x1 - x2) == x1 + x2

    def test_divide_by_one(self):
        p = 5 * x1 * x2 - x3**3
        assert p.exact_divide(MultiPoly.one()) == p

    def test_monomial_division(self):
        assert (x1**2 * x2 - x1 * x2**2).exact_divide(x1 * x2) == x1 - x2

    def test_non_divisible(self):
        with pytest.raises(NonDivisibleError):
            (x1 + x2).exact_divide(x1 * x2)

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            x1.exact_divide(MultiPoly.zero())

    @given(polys(max_terms=4), polys(max_terms=3))
    @settings(max_examples=120, deadline=None)
    def test_product_round_trip(self, p, q):
        if q.is_zero():
            return
        assert (p * q).exact_divide(q) == p

    def test_linear_helpers_match_generic(self):
        # The linear divisors of the residue check: a difference and a variable.
        p = (x1 + 2 * x2 + x3) * (x2 - x1) * x3
        assert p.exact_divide(x2 - x1) == (x1 + 2 * x2 + x3) * x3
        assert p.exact_divide(x3) == (x1 + 2 * x2 + x3) * (x2 - x1)

    def test_linear_division_nonzero_remainder(self):
        for p, d in [(x1 * x2 + 1, x1), (x1**2 + x2, x1 - x2)]:
            with pytest.raises(NonDivisibleError) as info:
                p.exact_divide(d)
            assert_remainder_of(info.value, p, d)

    @given(polys(max_vars=3, max_terms=4))
    @settings(max_examples=80, deadline=None)
    def test_linear_difference_round_trip(self, p):
        d = x2 - x1
        assert (p * d).exact_divide(d) == p

    @pytest.mark.parametrize("kind", sorted(DIVISORS))
    @given(p=polys(max_terms=4), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_by_divisor_kind(self, kind, p, data):
        q = data.draw(DIVISORS[kind])
        assert (p * q).exact_divide(q) == p
        if q.degree() > 0:
            bad = p * q + 1
            with pytest.raises(NonDivisibleError) as info:
                bad.exact_divide(q)
            assert_remainder_of(info.value, bad, q)

    def test_non_constant_leading_coefficient(self):
        # In u = x_3 the divisor x_1 x_3 + x_2 leads with x_1, not a constant.
        d = x1 * x3 + x2
        p = x3**2 - F(1, 2) * x1 * x2 + x2 * x3
        assert (p * d).exact_divide(d) == p
        with pytest.raises(NonDivisibleError) as info:
            (x3 * x2).exact_divide(d)
        assert_remainder_of(info.value, x3 * x2, d)


def assert_remainder_of(error: NonDivisibleError, p: MultiPoly, d: MultiPoly) -> None:
    """The remainder is nonzero, and p minus it is a multiple of d."""
    assert isinstance(error.remainder, MultiPoly) and not error.remainder.is_zero()
    (p - error.remainder).exact_divide(d)


class TestRationalFunctions:
    """U_n over the full product of denominators, as ``u_function`` forms it."""

    def test_cancellation_to_zero(self):
        # S = x_1 at m = 1 and y = 1: x_1/x_1 - x_1/x_1 over x_1 * x_1.
        u = relations.u_function(x1, 1, 1, specialize_y=True)
        assert u.numerator.is_zero()
        assert u.denominator == x1**2

    def test_weighted_three_term_zero(self):
        # 1/(x1 x2) - y1/(x1 (y1 x2 - y2 x1)) - y2/(x2 (y2 x1 - y1 x2)) == 0
        w = y1 * x2 - y2 * x1
        u = relations.u_function(MultiPoly.one(), 0, 2)
        assert u.numerator.is_zero()
        assert u.denominator == -(x1 * x2 * x1 * w * x2 * (-w))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_sequential_products(self, m):
        # A raw polynomial that is not symmetric, at y = 1 and, where
        # n <= m - 1, at general y.
        xs = [MultiPoly.x(j) for j in range(1, m + 1)]
        s_poly = xs[0] ** 2 - xs[0] * xs[-1] / 3 + 2 * xs[-1] ** 2
        for y_one in (True, False) if m >= 3 else (True,):
            u = relations.u_function(s_poly, 2, m, specialize_y=y_one)
            numerator, denominator = sequential_ratfunc_combine(_u_parts(s_poly, 2, m, y_one))
            sign = 1 if u.denominator == denominator else -1
            assert (u.numerator, u.denominator) == (sign * numerator, sign * denominator)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("y_one", [False, True])
    def test_denominator_lead_is_positive(self, m, y_one):
        den = relations.u_function(MultiPoly.one(), 0, m, specialize_y=y_one).denominator
        assert den.terms[den.leading_monomial()] > 0

    def test_denominator_sign_normalized(self):
        # The product pi(x) * pi(s_1) * pi(s_2) leads with -1 at m = 2, so
        # u_function negates both numerator and denominator.
        s_poly = x1**2 + 3 * x2**2
        parts = _u_parts(s_poly, 2, 2, True)
        numerator, denominator = sequential_ratfunc_combine(parts)
        assert denominator.terms[denominator.leading_monomial()] == -1
        u = relations.u_function(s_poly, 2, 2, specialize_y=True)
        assert u.denominator == -denominator
        assert u.numerator == -numerator


def _u_parts(s_poly, n, m, y_one):
    """The fractions of U_n from its definition, as (weight, (S(v), pi(v)))
    for v = x, s_1, ..., s_m."""
    xs, ys, rows = _symbolic_rows(m, y_one)
    parts = [(1, (s_poly, prod(xs, start=MultiPoly.one())))]
    for y, row in zip(ys, rows):
        on_row = s_poly.substitute({VarId(KIND_X, j): c for j, c in enumerate(row, 1)})
        weight = -1 if y_one else -(y ** (m - n - 1))
        parts.append((weight, (on_row, prod(row, start=MultiPoly.one()))))
    return parts


class TestTermCap:
    def test_cap_triggers(self):
        old = get_term_cap()
        try:
            set_term_cap(10)
            big = sum((x1**i for i in range(1, 6)), MultiPoly.zero())
            with pytest.raises(TermCapExceeded):
                _ = big * (big + x2)
        finally:
            set_term_cap(old)

    def test_cap_checked_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the product did work before checking the cap")

        for name in ("_max_exponents", "_field_shifts", "_mono_mul"):
            monkeypatch.setattr(polyring, name, no_work)
        monkeypatch.setattr(polyring, "_term_cap", 5)
        with pytest.raises(TermCapExceeded):
            _ = (x1 + x2 + x3) * (x1 + y1)
        with pytest.raises(TermCapExceeded):
            _ = x1 * (x1 + x2 + x3 + y1 + y2 + a1)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            set_term_cap(0)


# -- the multiplication kernel against a naive oracle -------------------------

WIDE_VARS = [VarId(kind, i) for kind in (KIND_X, KIND_Y, KIND_A) for i in (1, 2, 3)]


def naive_product(p: MultiPoly, q: MultiPoly) -> dict:
    """Every pair of terms merged on its own and summed into a dict."""
    out: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exponents = dict(m1)
            for v, e in m2:
                exponents[v] = exponents.get(v, 0) + e
            mono = tuple(sorted(exponents.items()))
            out[mono] = out.get(mono, 0) + c1 * c2
    return {mono: c for mono, c in out.items() if c}


def assert_canonical(poly: MultiPoly) -> None:
    for mono, coeff in poly.terms.items():
        assert coeff != 0
        assert all(e > 0 for _, e in mono)
        variables = [v for v, _ in mono]
        assert variables == sorted(set(variables))
        assert all(type(v) is VarId for v in variables)


@st.composite
def wide_polys(draw, min_terms=0, max_terms=6, variables=WIDE_VARS):
    """x, y and a variables; exponents up to 70, so the packed fields of a
    product are up to 8 bits wide and nine of them pass 64 bits; int and
    Fraction coefficients."""
    exponents = st.one_of(st.integers(1, 3), st.integers(60, 70))
    coeffs = st.one_of(st.integers(-4, 4), rationals()).filter(bool)
    terms = draw(
        st.lists(
            st.tuples(st.dictionaries(st.sampled_from(variables), exponents, max_size=5), coeffs),
            min_size=min_terms,
            max_size=max_terms,
        )
    )
    return MultiPoly([(tuple(mono.items()), c) for mono, c in terms])


def dict_monomial_product(m1, m2) -> tuple:
    """m1 * m2 by adding exponents in a dict and sorting the variables."""
    exponents = dict(m1)
    for v, e in m2:
        exponents[v] = exponents.get(v, 0) + e
    return tuple(sorted(exponents.items()))


@st.composite
def monomial_pairs(draw):
    """Two canonical monomials over WIDE_VARS, possibly empty: drawn freely
    (usually interleaved), one wholly before the other, or meeting at one
    variable that is the last of the first and the first of the second."""
    exps = st.integers(1, 5)

    def mono(variables):
        chosen = draw(st.lists(st.sampled_from(variables), unique=True)) if variables else []
        return tuple(sorted((v, draw(exps)) for v in chosen))

    shape = draw(st.sampled_from(["free", "apart", "boundary"]))
    if shape == "free":
        first, second = mono(WIDE_VARS), mono(WIDE_VARS)
    elif shape == "apart":
        cut = draw(st.integers(0, len(WIDE_VARS)))
        first, second = mono(WIDE_VARS[:cut]), mono(WIDE_VARS[cut:])
    else:
        cut = draw(st.integers(0, len(WIDE_VARS) - 1))
        pivot = WIDE_VARS[cut]
        first = mono(WIDE_VARS[:cut]) + ((pivot, draw(exps)),)
        second = ((pivot, draw(exps)),) + mono(WIDE_VARS[cut + 1 :])
    return (second, first) if draw(st.booleans()) else (first, second)


class TestMonomialProduct:
    @settings(max_examples=300, deadline=None)
    @given(monomial_pairs())
    @example(((), ()))
    @example((((VarId(KIND_A, 1), 2),), ()))
    @example(((), ((VarId(KIND_X, 3), 1),)))
    # Boundary-equal: the last variable of one is the first of the other.
    @example((((VarId(KIND_X, 1), 1), (VarId(KIND_Y, 2), 2)), ((VarId(KIND_Y, 2), 3), (VarId(KIND_A, 1), 1))))
    @example((((VarId(KIND_Y, 2), 3), (VarId(KIND_A, 1), 1)), ((VarId(KIND_X, 1), 1), (VarId(KIND_Y, 2), 2))))
    # An a-monomial joined to an x/y product, in both orders.
    @example((((VarId(KIND_A, 1), 2), (VarId(KIND_A, 3), 1)), ((VarId(KIND_X, 2), 1), (VarId(KIND_Y, 1), 4))))
    @example((((VarId(KIND_X, 2), 1), (VarId(KIND_Y, 1), 4)), ((VarId(KIND_A, 1), 2),)))
    def test_matches_dict_product(self, pair):
        m1, m2 = pair
        product = polyring._mono_mul(m1, m2)
        assert type(product) is tuple
        assert product == dict_monomial_product(m1, m2)
        assert polyring._mono_mul(m2, m1) == product


class TestMultiplicationKernel:
    @settings(max_examples=200, deadline=None)
    @given(wide_polys(), wide_polys())
    def test_matches_naive_product(self, p, q):
        product = p * q
        assert product.terms == naive_product(p, q)
        assert_canonical(product)

    @settings(deadline=None)
    @given(wide_polys(min_terms=1, max_terms=1), wide_polys())
    def test_single_term_factor(self, p, q):
        assert len(p) == 1
        for product in (p * q, q * p):
            assert product.terms == naive_product(p, q)
            assert_canonical(product)

    @settings(deadline=None)
    @given(wide_polys(min_terms=1), wide_polys(min_terms=1))
    def test_cancelling_products(self, p, q):
        # (p + q)(p - q): the cross terms cancel pairwise.
        product = (p + q) * (p - q)
        assert product.terms == naive_product(p + q, p - q)
        assert product == p * p - q * q
        assert_canonical(product)
        assert (p - p) * q == 0

    def test_exponent_fields_past_64_bits(self):
        p = MultiPoly([(tuple((v, 70) for v in WIDE_VARS), 3), (((WIDE_VARS[0], 1),), F(1, 2))])
        q = MultiPoly([(tuple((v, 70) for v in WIDE_VARS), -1), (((WIDE_VARS[-1], 69),), 5)])
        product = p * q
        assert product.terms == naive_product(p, q)
        assert product.coefficient(tuple((v, 140) for v in WIDE_VARS)) == -3

    def test_integer_inputs_give_integer_coefficients(self):
        for m in range(2, 6):
            for row in _symbolic_rows(m, True)[2]:
                for entry in row:
                    assert all(type(c) is int for c in entry.terms.values())
        for name in ("hermite", "laguerre", "bell"):
            for n in range(0, 7):
                poly = family_polynomial(name, n, 3)
                assert all(type(c) is int for c in poly.terms.values()), (name, n)

    def test_integral_form(self):
        integral, d = (F(1, 2) * x1 + F(2, 3) * x1**2 - 5).integral_form()
        assert d == 6 and integral == 3 * x1 + 4 * x1**2 - 30
        assert all(type(c) is int for c in integral.terms.values())
        assert MultiPoly.zero().integral_form() == (MultiPoly.zero(), 1)

    def test_integral_fractions_stored_as_int(self):
        p = MultiPoly([(((VarId(KIND_X, 1), 1),), F(4, 2))]) + MultiPoly.constant(F(3))
        assert all(type(c) is int for c in p.terms.values())
        assert all(type(c) is int for c in (F(1, 2) * (2 * x1 + 4)).terms.values())
        assert hash(MultiPoly.constant(F(2))) == hash(2)


def scalars():
    """ints and Fractions: zero, +-1, integral Fractions, large numerators."""
    big = st.integers(-(2**200), 2**200)
    return st.one_of(
        st.sampled_from([0, 1, -1, F(0), F(1), F(-1), F(4, 2), F(-6, 3)]),
        st.integers(-30, 30),
        big,
        st.builds(F, st.integers(-30, 30), st.integers(1, 7)),
        st.builds(F, big, st.integers(1, 2**70)),
    )


BODIES = st.sampled_from(["", "x_1", "a_1^2*x_3", "p_1*p_2^3", "C_{4,{1, 0, 1, 0}}"])


class TestFormatting:
    @settings(max_examples=300, deadline=None)
    @given(scalars())
    def test_rational_matches_the_fraction_oracle(self, coeff):
        assert polyring.format_rational(coeff) == oracles.format_rational(coeff)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(BODIES, scalars()), max_size=6))
    def test_terms_match_the_fraction_oracle(self, terms):
        assert polyring.format_terms(terms) == oracles.format_terms(terms)

    @settings(max_examples=100, deadline=None)
    @given(polys())
    def test_poly_text_matches_the_fraction_oracle(self, p):
        expected = oracles.format_terms(
            (polyring._format_monomial(mono), c) for mono, c in p.sorted_terms()
        )
        assert str(p) == expected

    def test_fixed_cases(self):
        assert polyring.format_terms([]) == "0"
        assert polyring.format_terms([("x_1", 0), ("", F(0))]) == "0"
        assert polyring.format_terms([("x_1", -1), ("", F(6, 3)), ("y_1", F(-3, 2))]) == (
            "-x_1 + 2 - 3/2*y_1"
        )
        assert polyring.format_terms([("", -1), ("x_1", 1)]) == "-1 + x_1"
        assert polyring.format_rational(F(-10, 4)) == "-5/2"
        assert polyring.format_rational(-(10**30)) == f"-{10**30}"
