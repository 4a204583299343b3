from fractions import Fraction as F
from math import factorial

import pytest

from symmrel.exactnum import FormalSeries
from symmrel.families import (
    FAMILY_NAMES,
    family_coefficients,
    family_polynomial,
    get_family,
    symbolic_coefficient_values,
    symbolic_family_polynomial,
)
from symmrel.polyring import MultiPoly
from symmrel.symmfunc import is_symmetric, power_sum

from reference_tables import BERNOULLI_EXPANSIONS


def expansion_poly(coeffs, m):
    from symmrel.symmfunc import power_sum_product

    out = MultiPoly.zero()
    for key, value in coeffs.items():
        out = out + value * power_sum_product(key, m)
    return out


class TestCoefficientStreams:
    def test_laguerre(self):
        assert family_coefficients("laguerre", 3) == [F(1), F(1), F(2)]

    def test_hermite(self):
        assert family_coefficients("hermite", 4) == [F(0), F(-2), F(0), F(0)]

    def test_legendre(self):
        assert family_coefficients("legendre", 4) == [F(0), F(-1, 2), F(0), F(-3, 8)]

    def test_fibonacci(self):
        assert family_coefficients("fibonacci", 6) == [
            F(0), F(2), F(0), F(12), F(0), F(240),
        ]

    def test_bernoulli_and_t_are_opposite(self):
        bern = family_coefficients("bernoulli", 10)
        t = family_coefficients("t", 10)
        assert all(tb == -bb for tb, bb in zip(t, bern))

    def test_euler(self):
        assert family_coefficients("euler", 4) == [F(-1, 2), F(-1, 4), F(0), F(1, 8)]

    def test_bell(self):
        assert family_coefficients("bell", 5) == [F(1)] * 5

    def test_case_insensitive_lookup(self):
        assert get_family("Bernoulli") is get_family("bernoulli")
        with pytest.raises(KeyError):
            get_family("chebyshev")


class TestFamilyPolynomials:
    def test_degree_zero(self):
        for name in FAMILY_NAMES:
            assert family_polynomial(name, 0, 3) == MultiPoly.one()

    def test_bernoulli_quadratic(self):
        for m in (1, 2, 3, 4):
            p1, p2 = power_sum(1, m), power_sum(2, m)
            assert family_polynomial("bernoulli", 2, m) == (3 * p1**2 - p2) / 12

    @pytest.mark.parametrize("n", range(0, 7))
    def test_bernoulli_expansions(self, n):
        for m in (2, 3):
            expected = expansion_poly(BERNOULLI_EXPANSIONS[n], m)
            assert family_polynomial("bernoulli", n, m) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_generating_function_oracle(self, m):
        # Coefficients of prod_i [x_i t / (e^{x_i t} - 1)] expanded as a
        # series with polynomial coefficients; independent of the Bell route.
        n = 8
        product = FormalSeries.one(n)
        for i in range(1, m + 1):
            xi = MultiPoly.x(i)
            denom = FormalSeries(
                [MultiPoly.one()]
                + [xi**k * F(1, factorial(k + 1)) for k in range(1, n + 1)]
            )
            product = product * denom.inverse()
        for k in range(n + 1):
            expected = product.coefficients[k] * factorial(k)
            if not isinstance(expected, MultiPoly):
                expected = MultiPoly.constant(expected)
            assert family_polynomial("bernoulli", k, m) == expected

    def test_all_families_symmetric_homogeneous(self):
        for name in FAMILY_NAMES:
            for n in range(0, 5):
                for m in (2, 3):
                    poly = family_polynomial(name, n, m)
                    assert is_symmetric(poly, m)
                    degrees = {sum(e for _, e in mono) for mono in poly.terms}
                    assert degrees <= {n}

    def test_laguerre_normalization(self):
        # b_n = 1/n! scales the Bell value.
        spec = get_family("laguerre")
        n, m = 3, 2
        from oracles import complete_bell

        f = [spec.a_coeff(k) * power_sum(k, m) for k in range(1, n + 1)]
        assert family_polynomial("laguerre", n, m) == complete_bell(n, f) / 6


class TestSymbolicFamily:
    def test_linear(self):
        for m in (1, 2, 4):
            assert symbolic_family_polynomial(1, m) == MultiPoly.a(1) * power_sum(1, m)

    def test_quadratic_one_variable(self):
        x1, a1, a2 = MultiPoly.x(1), MultiPoly.a(1), MultiPoly.a(2)
        assert symbolic_family_polynomial(2, 1) == a1**2 * x1**2 + a2 * x1**2

    def test_cubic_two_variables(self):
        a = [None] + [MultiPoly.a(k) for k in range(1, 4)]
        f = [a[k] * power_sum(k, 2) for k in range(1, 4)]
        expected = f[0] ** 3 + 3 * f[0] * f[1] + f[2]
        assert symbolic_family_polynomial(3, 2) == expected

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_specialization_matches_family(self, name):
        for n in range(0, 7):
            for m in (1, 2, 3):
                symbolic = symbolic_family_polynomial(n, m)
                values = symbolic_coefficient_values(name, max(n, 1))
                specialized = symbolic.substitute(values)
                expected = family_polynomial(name, n, m)
                b_n = get_family(name).b_norm(n)
                assert specialized * b_n == expected
