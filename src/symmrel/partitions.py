"""Integer partitions encoded as exponent vectors.

An exponent vector k = (k_1, ..., k_n) with sum(i * k_i) = n indexes the
power-sum product p_1^k_1 * p_2^k_2 * ... * p_n^k_n.  Vectors are plain
tuples of ints, padded with trailing zeros to length n so they can be used
as positional table keys; the empty tuple is the single vector of weight 0.

Listing order is the table order used throughout: ascending lexicographic
on the reversed vector, which puts p_1-dominant products first, e.g. for
n = 4: (4,0,0,0), (2,1,0,0), (0,2,0,0), (1,0,1,0), (0,0,0,1).
"""

from __future__ import annotations

from collections import deque

ExponentVector = tuple[int, ...]

__all__ = [
    "ExponentVector",
    "exponent_vectors",
    "partition_count",
    "equation_count",
    "vector_weight",
    "check_vector",
]


def vector_weight(k: ExponentVector) -> int:
    return sum((i + 1) * e for i, e in enumerate(k))


def check_vector(k: ExponentVector, weight: int) -> None:
    """Validate that k is a weight-`weight` exponent vector of full length."""
    if len(k) != weight:
        raise ValueError(f"exponent vector {k} must have length {weight}")
    if any(e < 0 for e in k):
        raise ValueError(f"exponent vector {k} has negative entries")
    if vector_weight(k) != weight:
        raise ValueError(f"exponent vector {k} has weight {vector_weight(k)}, expected {weight}")


def exponent_vectors(n: int, max_part: int) -> list[ExponentVector]:
    """All exponent vectors of weight n with parts <= max_part, in listing order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_part < 1:
        raise ValueError("max_part must be >= 1")
    vectors = [tuple(v) for v in _gather(n, min(max_part, n))]
    if n == 0:
        return [()]
    out = []
    for v in vectors:
        padded = v + (0,) * (n - len(v))
        assert vector_weight(padded) == n
        out.append(padded)
    out.sort(key=lambda k: tuple(reversed(k)))
    return out


def _gather(remaining: int, max_part: int) -> list[list[int]]:
    """Exponent prefixes (k_1..k_max_part) for partitions of `remaining`."""
    if remaining == 0:
        return [[]]
    if max_part == 0:
        return []
    out = []
    if max_part == 1:
        return [[remaining]]
    for count in range(remaining // max_part + 1):
        for head in _gather(remaining - count * max_part, max_part - 1):
            head = head + [0] * (max_part - 1 - len(head))
            out.append(head + [count])
    return out


def partition_count(n: int, max_part: int) -> int:
    """Number of partitions of n into parts <= max_part.

    Implements the recurrence P_m(n) = P_{m-1}(n) + P_m(n - m) bottom up,
    with no recursion and no cache; partition_count(n, n) is the
    unrestricted count P(n).
    """
    if n < 0:
        return 0
    if max_part < 0:
        raise ValueError("max_part must be >= 0")
    for count in _rising_counts(n, max_part):
        pass
    return count


def _rising_counts(n: int, max_part: int):
    """P_max_part(s) for s = 0, 1, ..., n in turn.  Row s holds P_j(s) for
    j <= min(max_part, s) and is built from the rows of the max_part weights
    below it, the only ones kept."""
    rows: deque = deque(maxlen=max(max_part, 1))
    for s in range(n + 1):
        row = [1 if s == 0 else 0]
        for j in range(1, min(max_part, s) + 1):
            below = rows[-j]  # row s - j; P_j(s - j) = P_min(j, s - j)(s - j)
            row.append(row[-1] + below[min(j, len(below) - 1)])
        rows.append(row)
        yield row[-1]


def _count_exceeds(n: int, max_part: int, limit: int) -> bool:
    """Whether more than ``limit`` partitions of n have parts <= max_part,
    decided without listing any.

    The count is nondecreasing in n, so the rows of :func:`_rising_counts`
    stop at the first weight whose count passes ``limit``.  With parts 1 and
    2 allowed the count is at least n // 2 + 1, exactly that when 2 is the
    largest part, which settles a large n at once.
    """
    if min(max_part, n) < 2:
        # One partition (into ones, or the empty one of 0), or none.
        return int(n == 0 or (n > 0 and max_part >= 1)) > limit
    if max_part == 2 or n // 2 + 1 > limit:
        return n // 2 + 1 > limit
    return any(count > limit for count in _rising_counts(n, max_part))


def equation_count(n: int) -> int:
    """sum_{m=2}^{n} P_m(n - m); telescopes to P(n) - 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return sum(partition_count(n - m, m) for m in range(2, n + 1))
