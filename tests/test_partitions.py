"""Tests for partition enumeration and the excludant statistics."""

import pytest

from qmex.partitions import (
    CountKind,
    Partition,
    StatKind,
    enum_partitions,
    maex,
    mex,
    moex,
    refined_count_oracle,
    stat_sum_oracle,
    two_colored_distinct_count,
)
from qmex.qfunctions import distinct_gen
from qmex.series import INFINITE, poch


def P(*parts, distinct=False):
    return Partition(tuple(parts), distinct)


class TestPartitionType:
    def test_weight_and_largest(self):
        assert P(4, 2, 1).weight == 7
        assert P(4, 2, 1).largest == 4
        assert P().weight == 0
        assert P().largest == 0

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            P(1, 2)
        with pytest.raises(ValueError):
            Partition((2, 2), distinct=True)
        with pytest.raises(ValueError):
            P(3, 0)

    def test_repetition_allowed_when_not_distinct(self):
        assert P(2, 2, 1).parts == (2, 2, 1)


class TestEnumeration:
    def test_reverse_lex_order_all(self):
        got = [p.parts for p in enum_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_reverse_lex_order_distinct(self):
        got = [p.parts for p in enum_partitions(6, True)]
        assert got == [(6,), (5, 1), (4, 2), (3, 2, 1)]

    def test_zero_yields_empty(self):
        got = list(enum_partitions(0))
        assert len(got) == 1 and got[0].parts == ()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(enum_partitions(-1))

    def test_distinct_counts_match_generating_function(self):
        d = distinct_gen(60)
        for n in range(61):
            assert sum(1 for _ in enum_partitions(n, True)) == d.coefficient(n)

    def test_all_counts_match_generating_function(self):
        p = poch(-1, 1, 1, INFINITE, 40).invert()
        for n in range(41):
            assert sum(1 for _ in enum_partitions(n)) == p.coefficient(n)


class TestStatistics:
    def test_empty_partition_conventions(self):
        assert mex(P()) == 1
        assert moex(P()) == 1
        assert maex(P()) == 0

    def test_mex_examples(self):
        assert mex(P(3, 2, 1)) == 4
        assert mex(P(4, 2, 1)) == 3
        assert mex(P(2)) == 1
        assert mex(P(5, 3, 1, 1)) == 2

    def test_moex_examples(self):
        assert moex(P(1)) == 3
        assert moex(P(2)) == 1
        assert moex(P(3, 1)) == 5
        assert moex(P(5, 3, 1)) == 7

    def test_maex_examples(self):
        assert maex(P(8, 1)) == 7
        assert maex(P(2)) == 1
        assert maex(P(2, 1)) == 0
        assert maex(P(5, 4, 1)) == 3
        assert maex(P(1)) == 0

    def test_statistic_invariants_all_partitions(self):
        for n in range(21):
            for p in enum_partitions(n):
                parts = set(p.parts)
                m = mex(p)
                assert m not in parts
                assert all(i in parts for i in range(1, m))
                mo = moex(p)
                assert mo % 2 == 1 and mo not in parts
                assert all(i in parts for i in range(1, mo, 2))
                mx = maex(p)
                assert mx not in parts or mx == 0
                assert mx < p.largest or (mx == 0 and p.largest <= 1)
                if mx:
                    assert all(g in parts for g in range(mx + 1, p.largest))

    def test_mex_bounded_on_distinct(self):
        # a distinct partition of n has at most ~sqrt(2n) parts, so mex is small
        for n in range(26):
            for p in enum_partitions(n, True):
                assert mex(p) <= len(p.parts) + 1


class TestOracles:
    def test_stat_sum_examples(self):
        assert stat_sum_oracle(StatKind.MEX, 3, True) == 4
        assert stat_sum_oracle(StatKind.MEX, 3) == 6
        assert stat_sum_oracle(StatKind.MOEX, 4, True) == 6
        assert stat_sum_oracle(StatKind.MAEX, 5, True) == 8
        assert stat_sum_oracle(StatKind.MAEX, 4) == 6
        assert stat_sum_oracle(StatKind.LARGEST, 4) == 12
        assert stat_sum_oracle(StatKind.LARGEST, 0) == 0

    def test_refined_count_examples(self):
        assert refined_count_oracle(CountKind.MEX_EQ, 1, 5, True) == 2
        assert refined_count_oracle(CountKind.MEX_GT, 1, 5, True) == 1
        assert refined_count_oracle(CountKind.ODD_MEX, 0, 1) == 0
        assert refined_count_oracle(CountKind.ODD_MEX, 0, 0) == 1
        # smallest-gt is vacuous for the empty partition
        assert refined_count_oracle(CountKind.SMALLEST_GT, 3, 0, True) == 1

    def test_mex_eq_counts_partition_the_stream(self):
        for n in range(16):
            total = sum(
                refined_count_oracle(CountKind.MEX_EQ, m, n, True) for m in range(1, n + 3)
            )
            assert total == sum(1 for _ in enum_partitions(n, True))

    def test_staircase_bijection(self):
        # distinct partitions with mex > i vs shifted all-parts-above-i
        for i in range(5):
            t = i * (i + 1) // 2
            for n in range(t, 26):
                lhs = refined_count_oracle(CountKind.MEX_GT, i, n, True)
                rhs = refined_count_oracle(CountKind.SMALLEST_GT, i, n - t, True)
                assert lhs == rhs, (i, n)

    def test_proof_device_refinement(self):
        # distinct partitions with mex > i, minus those with mex > i+1,
        # leave exactly the mex = i+1 slice
        for n in range(8, 41):
            for i in range(4):
                gt_i = refined_count_oracle(CountKind.MEX_GT, i, n, True)
                gt_next = refined_count_oracle(CountKind.MEX_GT, i + 1, n, True)
                eq = refined_count_oracle(CountKind.MEX_EQ, i + 1, n, True)
                assert gt_i - gt_next == eq

    def test_two_colored_counts(self):
        assert two_colored_distinct_count(0) == 1
        assert two_colored_distinct_count(1) == 2
        assert two_colored_distinct_count(2) == 3
        assert two_colored_distinct_count(3) == 6
        for n in range(20):
            assert two_colored_distinct_count(n) == stat_sum_oracle(StatKind.MEX, n)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            stat_sum_oracle(StatKind.MEX, -3)
        with pytest.raises(ValueError):
            refined_count_oracle(CountKind.MEX_EQ, 1, -1)
        with pytest.raises(ValueError):
            two_colored_distinct_count(-2)
