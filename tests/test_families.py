from fractions import Fraction as F
from math import comb, factorial

import pytest

from symmrel import exactnum
from symmrel.families import (
    FAMILY_NAMES,
    family_polynomial,
    get_family,
    symbolic_coefficient_values,
    symbolic_family_polynomial,
)
from symmrel.polyring import MultiPoly
from symmrel.symmfunc import is_symmetric, power_sum

from oracles import complete_bell, euler_poly_at_zero, series_exp, series_inverse, series_mul
from reference_tables import BERNOULLI_EXPANSIONS


def expansion_poly(coeffs, m):
    from symmrel.symmfunc import power_sum_product

    out = MultiPoly.zero()
    for key, value in coeffs.items():
        out = out + value * power_sum_product(key, m)
    return out


class TestCoefficientStreams:
    def test_bernoulli_recurrence_runs_once(self, monkeypatch):
        # From a cold list, the 60-term bernoulli and euler streams share one
        # run of the recurrence: no term C(n + 1, k) B_k is formed twice.
        steps = []

        def spy(n, k):
            steps.append((n, k))
            return comb(n, k)

        expected = {name: get_family(name).coefficients(60) for name in ("bernoulli", "euler")}
        monkeypatch.setattr(exactnum, "_bernoulli", [F(1)])
        monkeypatch.setattr(exactnum, "comb", spy)
        for name, values in expected.items():
            assert get_family(name).coefficients(60) == values
        assert len(steps) == len(set(steps))
        assert max(n for n, _ in steps) == 61  # B_60 was reached

    def test_laguerre(self):
        assert get_family("laguerre").coefficients(3) == [F(1), F(1), F(2)]

    def test_hermite(self):
        assert get_family("hermite").coefficients(4) == [F(0), F(-2), F(0), F(0)]

    def test_legendre(self):
        assert get_family("legendre").coefficients(4) == [F(0), F(-1, 2), F(0), F(-3, 8)]

    def test_fibonacci(self):
        assert get_family("fibonacci").coefficients(6) == [
            F(0), F(2), F(0), F(12), F(0), F(240),
        ]

    def test_bernoulli_and_t_are_opposite(self):
        bern = get_family("bernoulli").coefficients(10)
        t = get_family("t").coefficients(10)
        assert all(tb == -bb for tb, bb in zip(t, bern))

    def test_euler(self):
        assert get_family("euler").coefficients(4) == [F(-1, 2), F(-1, 4), F(0), F(1, 8)]
        # a_k = E_(k-1)(0) / 2 for k >= 2, against the DLMF §24.4 oracle.
        a = get_family("euler").coefficients(30)
        assert a[1:] == [e / 2 for e in euler_poly_at_zero(29)[1:]]

    def test_bell(self):
        assert get_family("bell").coefficients(5) == [F(1)] * 5

    def test_closed_forms_match_generating_functions(self):
        n = 40
        # Legendre: exp(sum a_k t^k / k!) = J_0(t) = sum (-1)^j (t/2)^(2j) / (j!)^2.
        a = get_family("legendre").coefficients(n)
        exponent = [F(0)] + [a[k - 1] / factorial(k) for k in range(1, n + 1)]
        j0 = [
            F(0) if k % 2 else F((-1) ** (k // 2), 4 ** (k // 2) * factorial(k // 2) ** 2)
            for k in range(n + 1)
        ]
        assert series_exp(exponent) == j0
        # Euler: a_1 = -1/2, a_k = E_(k-1)(0) / 2 with sum E_j(0) t^j / j! = 2 / (e^t + 1).
        a = get_family("euler").coefficients(n)
        half_sum = [F(1)] + [F(1, 2 * factorial(k)) for k in range(1, n)]
        e_at_zero = [c * factorial(j) for j, c in enumerate(series_inverse(half_sum))]
        assert a[0] == F(-1, 2)
        assert a[1:] == [e / 2 for e in e_at_zero[1:]]

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
        product = [F(1)] + [F(0)] * n
        for i in range(1, m + 1):
            xi = MultiPoly.x(i)
            denom = [MultiPoly.one()] + [xi**k * F(1, factorial(k + 1)) for k in range(1, n + 1)]
            product = series_mul(product, series_inverse(denom))
        for k in range(n + 1):
            expected = product[k] * factorial(k)
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
