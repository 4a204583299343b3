"""Exact rational scalars, Bernoulli/Euler numbers, and truncated power series.

Every scalar in this package is a :class:`fractions.Fraction` (re-exported as
``ExactRational``): arbitrary precision, always in lowest terms, positive
denominator, constructed eagerly in canonical form.  No floating point is
used anywhere.

Sign convention: B_1 = -1/2, i.e. the Bernoulli numbers are the Taylor
coefficients of ``t / (exp(t) - 1)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Sequence

ExactRational = Fraction

__all__ = [
    "ExactRational",
    "FormalSeries",
    "bernoulli_numbers",
    "euler_poly_at_zero",
]


class FormalSeries:
    """A formal power series truncated at a fixed order.

    Coefficients are indexed from degree 0 and there are exactly
    ``truncation_order + 1`` of them.  Arithmetic never reads or produces
    coefficients beyond the truncation order.  Coefficients are normally
    Fractions but any commutative-ring element supporting ``+``, ``*`` and
    multiplication by Fraction works (this is used to expand generating
    functions with polynomial coefficients in tests).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence):
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        self.coefficients = coeffs

    @classmethod
    def zero(cls, order: int) -> "FormalSeries":
        return cls([Fraction(0)] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "FormalSeries":
        return cls([Fraction(1)] + [Fraction(0)] * order)

    @classmethod
    def exponential(cls, order: int) -> "FormalSeries":
        """The series of exp(t): sum t^n / n!."""
        return cls([Fraction(1, _factorial(k)) for k in range(order + 1)])

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self) -> str:
        return f"FormalSeries({list(self.coefficients)!r})"

    def _check_order(self, other: "FormalSeries") -> None:
        if self.truncation_order != other.truncation_order:
            raise ValueError(
                "truncation orders differ: "
                f"{self.truncation_order} vs {other.truncation_order}"
            )

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_order(other)
        return FormalSeries([a + b for a, b in zip(self.coefficients, other.coefficients)])

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        self._check_order(other)
        return FormalSeries([a - b for a, b in zip(self.coefficients, other.coefficients)])

    def __neg__(self) -> "FormalSeries":
        return FormalSeries([-a for a in self.coefficients])

    def scale(self, factor) -> "FormalSeries":
        return FormalSeries([factor * a for a in self.coefficients])

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        """Cauchy product truncated to the shared order."""
        self._check_order(other)
        n = self.truncation_order
        a, b = self.coefficients, other.coefficients
        out = []
        for k in range(n + 1):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                acc = acc + a[i] * b[k - i]
            out.append(acc)
        return FormalSeries(out)

    def differentiate(self) -> "FormalSeries":
        """Term-by-term derivative; the order drops by one."""
        if self.truncation_order == 0:
            return FormalSeries([0 * self.coefficients[0]])
        return FormalSeries(
            [k * self.coefficients[k] for k in range(1, self.truncation_order + 1)]
        )

    def integrate(self) -> "FormalSeries":
        """Antiderivative with zero constant term; the order rises by one."""
        out = [Fraction(0)]
        for k, c in enumerate(self.coefficients):
            out.append(c * Fraction(1, k + 1))
        return FormalSeries(out)

    def truncate(self, order: int) -> "FormalSeries":
        if order > self.truncation_order:
            raise ValueError("cannot extend a truncated series")
        return FormalSeries(self.coefficients[: order + 1])

    def inverse(self) -> "FormalSeries":
        """Multiplicative inverse; requires an invertible constant term.

        Ring-element coefficients are supported when the constant term is 1
        or a nonzero rational (constant polynomials included).
        """
        c0 = self.coefficients[0]
        if c0 == 0:
            raise ValueError("series with zero constant term is not invertible")
        if c0 == 1:
            inv0 = 1
        elif isinstance(c0, (int, Fraction)):
            inv0 = Fraction(1) / Fraction(c0)
        elif hasattr(c0, "constant_term") and c0 == c0.constant_term():
            inv0 = Fraction(1) / Fraction(c0.constant_term())
        else:
            raise ValueError("series constant term is not invertible")
        n = self.truncation_order
        out = [inv0]
        for k in range(1, n + 1):
            acc = self.coefficients[1] * out[k - 1]
            for i in range(2, k + 1):
                acc = acc + self.coefficients[i] * out[k - i]
            out.append(-inv0 * acc)
        return FormalSeries(out)

    def log(self) -> "FormalSeries":
        """Logarithm of a series with constant term 1, via L' = a'/a."""
        if self.coefficients[0] != 1:
            raise ValueError("series logarithm requires constant term 1")
        if self.truncation_order == 0:
            return FormalSeries([Fraction(0)])
        deriv = self.differentiate()
        quotient = deriv * self.truncate(self.truncation_order - 1).inverse()
        return quotient.integrate()

    def exp(self) -> "FormalSeries":
        """Exponential of a series with constant term 0, via E' = E * a'."""
        if self.coefficients[0] != 0:
            raise ValueError("series exponential requires constant term 0")
        n = self.truncation_order
        a = self.coefficients
        out = [Fraction(1)]
        # E'_k = sum_{i>=1} i*a_i*E_{k-i}  =>  (k+1) E_{k+1} = sum i*a_i*E_{k+1-i}
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc = acc + i * a[i] * out[k - i]
            out.append(acc * Fraction(1, k))
        return FormalSeries(out)


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_n_max with B_1 = -1/2.

    Uses the classical recurrence ``sum_{k=0}^{n} C(n+1, k) B_k = 0`` for
    n >= 1; the result is deterministic and exact.  Odd-index numbers beyond
    B_1 are zero.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        if n > 1 and n % 2 == 1:
            values.append(Fraction(0))
            continue
        acc = Fraction(0)
        for k in range(n):
            acc += comb(n + 1, k) * values[k]
        values.append(-acc / (n + 1))
    return values


def euler_poly_at_zero(n_max: int) -> list[Fraction]:
    """Values E_0(0)..E_n_max(0) of the Euler polynomials at 0.

    Extracted from the expansion ``2 / (exp(t) + 1) = sum E_n(0) t^n / n!``
    by exact series inversion.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    exp_t = FormalSeries.exponential(n_max)
    denom = FormalSeries([exp_t.coefficients[0] + 1] + list(exp_t.coefficients[1:]))
    series = denom.inverse().scale(Fraction(2))
    return [series.coefficients[k] * _factorial(k) for k in range(n_max + 1)]
