from fractions import Fraction as F

import pytest

from symmrel.exactnum import bernoulli_numbers

from oracles import euler_poly_at_zero, series_inverse, series_mul


class TestBernoulliNumbers:
    def test_first_values(self):
        assert bernoulli_numbers(0) == [F(1)]
        assert bernoulli_numbers(2) == [F(1), F(-1, 2), F(1, 6)]

    def test_odd_values_vanish(self):
        values = bernoulli_numbers(9)
        assert values[3] == values[5] == values[7] == values[9] == 0

    def test_frozen_inversion_oracle(self):
        # Expected values derived by inverting (e^t - 1)/t term by term.
        inv = series_inverse([F(1, _fact(k + 1)) for k in range(9)])
        expected = [inv[k] * _fact(k) for k in range(9)]
        assert bernoulli_numbers(8) == expected

    def test_defining_series_identity(self):
        # t/(e^t - 1) * (e^t - 1)/t == 1 with B_n/n! as the left coefficients.
        n = 12
        values = bernoulli_numbers(n)
        left = [values[k] / _fact(k) for k in range(n + 1)]
        right = [F(1, _fact(k + 1)) for k in range(n + 1)]
        assert series_mul(left, right) == [1] + [0] * n

    def test_classical_recurrence(self):
        from math import comb

        values = bernoulli_numbers(20)
        for n in range(1, 20):
            assert sum(comb(n + 1, k) * values[k] for k in range(n + 1)) == 0

    def test_deterministic(self):
        assert bernoulli_numbers(15) == bernoulli_numbers(15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_numbers(-1)


class TestEulerValues:
    """The DLMF §24.4 oracle on the Bernoulli numbers, at frozen values."""

    def test_first_values(self):
        values = euler_poly_at_zero(2)
        assert values[0] == 1
        assert values[1] == F(-1, 2)
        assert values[2] == 0

    def test_longer_stream(self):
        values = euler_poly_at_zero(7)
        assert values[3] == F(1, 4)
        assert values[5] == F(-1, 2)
        assert values[7] == F(17, 8)
        assert values[4] == values[6] == 0


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out
