import pytest

from symmrel.partitions import (
    _count_exceeds,
    equation_count,
    exponent_vectors,
    partition_count,
    vector_weight,
)


def brute_force_partitions(n, max_part):
    """Independent enumeration: partitions of n as descending part lists."""
    if n == 0:
        return [[]]
    out = []
    for part in range(min(n, max_part), 0, -1):
        for rest in brute_force_partitions(n - part, part):
            out.append([part] + rest)
    return out


class TestExponentVectors:
    def test_weight_two(self):
        assert exponent_vectors(2, 2) == [(2, 0), (0, 1)]

    def test_weight_zero(self):
        assert exponent_vectors(0, 1) == [()]

    def test_weight_four_listing_order(self):
        assert exponent_vectors(4, 4) == [
            (4, 0, 0, 0),
            (2, 1, 0, 0),
            (0, 2, 0, 0),
            (1, 0, 1, 0),
            (0, 0, 0, 1),
        ]

    def test_restricted_parts(self):
        vectors = exponent_vectors(5, 2)
        assert all(all(k == 0 for k in v[2:]) for v in vectors)
        assert len(vectors) == partition_count(5, 2)

    @pytest.mark.parametrize("n", range(0, 13))
    def test_full_length_and_weight(self, n):
        vectors = exponent_vectors(n, max(n, 1))
        assert len(vectors) == partition_count(n, n)
        for v in vectors:
            assert len(v) == n
            assert vector_weight(v) == n

    def test_matches_brute_force(self):
        for n in range(0, 10):
            for max_part in range(1, n + 2):
                assert len(exponent_vectors(n, max_part)) == len(
                    brute_force_partitions(n, max_part)
                )


class TestPartitionCount:
    def test_unrestricted_small(self):
        assert partition_count(4, 4) == 5
        assert partition_count(6, 6) == 11

    def test_restricted(self):
        assert partition_count(2, 2) == 2
        assert all(partition_count(n, 1) == 1 for n in range(0, 20))

    def test_recurrence(self):
        for n in range(1, 25):
            for m in range(1, n + 1):
                assert partition_count(n, m) == partition_count(n, m - 1) + partition_count(
                    n - m, m
                )


    def test_counts_without_recursion(self):
        # One part size: the old memoised recursion went n levels deep.
        assert partition_count(5000, 1) == 1
        assert partition_count(3000, 2) == 1501
        assert partition_count(100, 100) == 190569292

    def test_count_exceeds_matches_the_count(self):
        for n in range(0, 26):
            for max_part in range(0, 28):
                count = partition_count(n, max_part)
                for limit in (0, count - 1, count, count + 1):
                    assert _count_exceeds(n, max_part, limit) == (count > limit), (n, max_part, limit)

    def test_count_exceeds_settles_huge_degrees(self):
        assert _count_exceeds(10**20, 10**20, 10**7)
        assert _count_exceeds(1000, 1000, 10**7)
        assert _count_exceeds(10**20, 2, 10**7)
        assert not _count_exceeds(10**20, 1, 10**7)
        assert not _count_exceeds(30, 30, partition_count(30, 30))


class TestEquationCount:
    def test_examples(self):
        assert equation_count(2) == 1
        assert equation_count(4) == 4  # P_2(2) + P_3(1) + P_4(0)
        assert equation_count(6) == 10

    def test_telescoping_identity(self):
        for n in range(2, 31):
            assert equation_count(n) == partition_count(n, n) - 1

    def test_precondition(self):
        with pytest.raises(ValueError):
            equation_count(1)
