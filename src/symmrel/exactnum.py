"""Bernoulli numbers, exact.

Every scalar in this package is a :class:`fractions.Fraction`: arbitrary
precision, always in lowest terms, positive denominator.  No floating point
is used anywhere.

Sign convention: B_1 = -1/2, i.e. the Bernoulli numbers are the Taylor
coefficients of ``t / (exp(t) - 1)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

__all__ = [
    "bernoulli_numbers",
]


_bernoulli = [Fraction(1)]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_n_max with B_1 = -1/2.

    Uses the classical recurrence ``sum_{k=0}^{n} C(n+1, k) B_k = 0`` for
    n >= 1; the result is deterministic and exact.  Odd-index numbers beyond
    B_1 are zero.  A shared list keeps the values found so far; a call that
    needs more grows a copy and swaps it in, and returns a copy of a prefix.
    """
    global _bernoulli
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    values = list(_bernoulli)
    for n in range(len(values), n_max + 1):
        if n > 1 and n % 2 == 1:
            values.append(Fraction(0))
            continue
        acc = Fraction(0)
        for k in range(n):
            acc += comb(n + 1, k) * values[k]
        values.append(-acc / (n + 1))
    _bernoulli = max(_bernoulli, values, key=len)
    return values[: n_max + 1]
