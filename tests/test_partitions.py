"""Tests for partition enumeration and the excludant statistics."""

import itertools
import math
import random
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import census_oracle
from census_oracle import maex, mex, moex
from qmex import partitions
from qmex.cli import run
from qmex.identities import verify
from qmex.partitions import (
    CENSUS_BUDGET,
    CountKind,
    StatKind,
    _Census,
    _census,
    _stream_sizes,
    enum_partitions,
    refined_count_oracle,
    stat_sum_oracle,
    two_colored_distinct_count,
)
from qmex.qfunctions import distinct_gen
from qmex.series import INFINITE, poch


# ----------------------------------------------------------------------
# references for the census, built on the per-partition stream


REFERENCE_STATS = {
    StatKind.MEX: mex,
    StatKind.MOEX: moex,
    StatKind.MAEX: maex,
    StatKind.LARGEST: lambda p: p[0] if p else 0,
}


def reference_stat_sum(kind, n, distinct_only):
    return sum(REFERENCE_STATS[kind](p) for p in enum_partitions(n, distinct_only))


def reference_refined_count(kind, index, n, distinct_only):
    predicate = {
        CountKind.MEX_EQ: lambda p: mex(p) == index,
        CountKind.MEX_GT: lambda p: mex(p) > index,
        CountKind.SMALLEST_GT: lambda p: all(part > index for part in p),
        CountKind.ODD_MEX: lambda p: mex(p) % 2 == 1,
    }[kind]
    return sum(1 for p in enum_partitions(n, distinct_only) if predicate(p))


def reference_census(n, distinct_only):
    """The census as one pass over enum_partitions, five statistics per partition."""
    census = _Census({}, {}, {}, {}, {})
    for p in enum_partitions(n, distinct_only):
        values = (mex(p), moex(p), maex(p), p[0] if p else 0, p[-1] if p else math.inf)
        for counts, value in zip(census, values):
            counts[value] = counts.get(value, 0) + 1
    return _Census(*map(MappingProxyType, census))


def assert_census_equals_reference(n, distinct_only):
    got = _census(n, distinct_only)
    for want in (census_oracle.census(n, distinct_only), reference_census(n, distinct_only)):
        for field, g, w in zip(_Census._fields, got, want):
            assert g == w, (n, distinct_only, field)


def largest_n_within_budget(distinct_only):
    return len(_stream_sizes(distinct_only)) - 2


def reference_two_colored(n):
    d = [sum(1 for _ in enum_partitions(j, True)) for j in range(n + 1)]
    return sum(d[j] * d[n - j] for j in range(n + 1))


class TestEnumeration:
    def test_reverse_lex_order_all(self):
        got = list(enum_partitions(4))
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_reverse_lex_order_distinct(self):
        got = list(enum_partitions(6, True))
        assert got == [(6,), (5, 1), (4, 2), (3, 2, 1)]

    def test_zero_yields_empty(self):
        assert list(enum_partitions(0)) == [()]

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

    @pytest.mark.parametrize("distinct_only", [False, True])
    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(0, 30))
    @example(n=30)
    def test_stream_shape(self, distinct_only, n):
        # each tuple is a partition of n in the basis's order, once, reverse-lex
        got = list(enum_partitions(n, distinct_only))
        for p in got:
            assert type(p) is tuple and sum(p) == n, p
            assert all(type(part) is int and part >= 1 for part in p), p
            pairs = zip(p, p[1:])
            assert all(a > b if distinct_only else a >= b for a, b in pairs), p
        assert len(set(got)) == len(got)
        assert all(a > b for a, b in zip(got, got[1:]))


class TestStatistics:
    def test_empty_partition_conventions(self):
        assert mex(()) == 1
        assert moex(()) == 1
        assert maex(()) == 0

    def test_mex_examples(self):
        assert mex((3, 2, 1)) == 4
        assert mex((4, 2, 1)) == 3
        assert mex((2,)) == 1
        assert mex((5, 3, 1, 1)) == 2

    def test_moex_examples(self):
        assert moex((1,)) == 3
        assert moex((2,)) == 1
        assert moex((3, 1)) == 5
        assert moex((5, 3, 1)) == 7

    def test_maex_examples(self):
        assert maex((8, 1)) == 7
        assert maex((2,)) == 1
        assert maex((2, 1)) == 0
        assert maex((5, 4, 1)) == 3
        assert maex((1,)) == 0

    def test_statistic_invariants_all_partitions(self):
        for n in range(21):
            for p in enum_partitions(n):
                parts = set(p)
                m = mex(p)
                assert m not in parts
                assert all(i in parts for i in range(1, m))
                mo = moex(p)
                assert mo % 2 == 1 and mo not in parts
                assert all(i in parts for i in range(1, mo, 2))
                mx = maex(p)
                assert mx not in parts or mx == 0
                largest = p[0] if p else 0
                assert mx < largest or (mx == 0 and largest <= 1)
                if mx:
                    assert all(g in parts for g in range(mx + 1, largest))

    def test_mex_bounded_on_distinct(self):
        # a distinct partition of n has at most ~sqrt(2n) parts, so mex is small
        for n in range(26):
            for p in enum_partitions(n, True):
                assert mex(p) <= len(p) + 1


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


class TestCensus:
    @pytest.mark.parametrize("distinct_only", [False, True])
    def test_walk_equals_reference_census(self, distinct_only):
        partitions._CENSUSES.clear()  # ascending, so every n is a new walk
        for n in range(31):
            assert_census_equals_reference(n, distinct_only)

    @pytest.mark.parametrize(("distinct_only", "top"), [(False, 45), (True, 40)])
    def test_request_order_does_not_change_the_census(self, distinct_only, top):
        # the store serves a lower n from the longest walk; every order must agree
        shuffled = list(range(top + 1))
        random.Random(20).shuffle(shuffled)
        results = []
        for order in (range(top + 1), range(top, -1, -1), shuffled):
            partitions._CENSUSES.clear()
            got = {n: _census(n, distinct_only) for n in order}
            results.append([got[n] for n in range(top + 1)])
        assert results[0] == results[1] == results[2]

    @settings(max_examples=25, deadline=None)
    @given(
        reads=st.lists(
            st.one_of(
                st.tuples(st.integers(0, 30), st.just(False)),
                st.tuples(st.integers(0, 40), st.just(True)),
            ),
            max_size=8,
        )
    )
    def test_one_store_walks_only_what_it_lacks(self, reads):
        # from an empty store, mixed reads walk each kind only above the largest
        # n of that kind read so far
        walks, want_walks, tops = [], [], {False: -1, True: -1}
        all_censuses, distinct_census = partitions._all_censuses, partitions._distinct_census
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "_CENSUSES", {})
            mp.setattr(partitions, "_all_censuses", lambda n: walks.append((n, False)) or all_censuses(n))
            mp.setattr(partitions, "_distinct_census", lambda n: walks.append((n, True)) or distinct_census(n))
            for n, distinct_only in reads:
                assert _census(n, distinct_only) == census_oracle.census(n, distinct_only), (n, distinct_only)
                if n > tops[distinct_only]:
                    tops[distinct_only] = n
                    want_walks.append((n, distinct_only))
                assert walks == want_walks, reads

    @pytest.mark.parametrize(
        ("distinct_only", "n", "reads"),
        [(True, 0, 1), (True, 1, 2), (True, 2, 3), (True, 40, 41), (False, 0, 2), (False, 30, 2)],
    )
    def test_one_read_per_distinct_census_and_two_per_all_parts_walk(self, monkeypatch, distinct_only, n, reads):
        # a distinct walk at n reads the census of each m <= n once, the sets of weight m
        # and of m - 1 plus part 1 in one list; the all-parts sets are read for S and S
        # with part 1, which serves every m <= n
        calls = []
        read = partitions._read
        monkeypatch.setattr(partitions, "_CENSUSES", {})
        monkeypatch.setattr(partitions, "_read", lambda *args: calls.append(args) or read(*args))
        assert _census(n, distinct_only) == census_oracle.census(n, distinct_only)
        assert len(calls) == reads

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(0, 25))
    @example(n=0)
    @example(n=25)
    def test_sets_list_each_set_once_with_its_partitions(self, n):
        # every set of distinct parts >= 2 of weight w <= n once, under w, from both
        # censuses' enumerations; a set's all-parts count holds, in the slot of each
        # weight m, its partitions of m with no part 1 and exactly its parts
        listed = {}
        sets = partitions._sets
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(partitions, "_sets", lambda *args: listed.setdefault(len(listed), sets(*args)))
            partitions._all_censuses(n)
            partitions._distinct_census(n)
        want_masks = [[] for _ in range(n + 1)]
        # r distinct parts >= 2 weigh at least 2 + 3 + ... + (r + 1) = r(r + 3)/2
        for r in itertools.takewhile(lambda r: r * (r + 3) // 2 <= n, itertools.count()):
            for parts in itertools.combinations(range(2, n + 1), r):
                if sum(parts) <= n:
                    want_masks[sum(parts)].append(sum(1 << k for k in parts))
        for by_weight in listed.values():
            assert len(by_weight) == n + 1
            for w, pairs in enumerate(by_weight):
                masks = [mask for mask, _ in pairs]
                assert len(masks) == len(set(masks)), (n, w)
                assert sorted(masks) == sorted(want_masks[w]), (n, w)
        want_counts = {}
        for m in range(n + 1):
            for p in enum_partitions(m):
                if 1 not in p:
                    slots = want_counts.setdefault(sum(1 << k for k in set(p)), [0] * (n + 1))
                    slots[m] += 1
        all_parts, distinct = listed[0], listed[1]
        width = _stream_sizes(False)[n].bit_length()
        for pairs in all_parts:
            for mask, count in pairs:
                got = [count >> width * m & (1 << width) - 1 for m in range(n + 1)]
                assert got == want_counts[mask] and count >> width * (n + 1) == 0, (n, mask)
        assert all(count == 1 for pairs in distinct for _, count in pairs)

    @pytest.mark.parametrize("distinct_only", [False, True])
    def test_walk_equals_reference_census_at_budget_top(self, distinct_only):
        top = largest_n_within_budget(distinct_only)
        assert top == (82 if distinct_only else 45)
        assert_census_equals_reference(top, distinct_only)

    @pytest.mark.parametrize("distinct_only", [False, True])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_walk_equals_reference_census_property(self, distinct_only, data):
        n = data.draw(st.integers(0, largest_n_within_budget(distinct_only)), label="n")
        assert_census_equals_reference(n, distinct_only)

    @pytest.mark.parametrize("distinct_only", [False, True])
    def test_stat_sums_equal_reference(self, distinct_only):
        for n in range(25):
            for kind in StatKind:
                want = reference_stat_sum(kind, n, distinct_only)
                assert stat_sum_oracle(kind, n, distinct_only) == want, (kind, n)

    @pytest.mark.parametrize("distinct_only", [False, True])
    def test_refined_counts_equal_reference(self, distinct_only):
        for n in range(25):
            for kind in CountKind:
                for index in range(7):
                    want = reference_refined_count(kind, index, n, distinct_only)
                    got = refined_count_oracle(kind, index, n, distinct_only)
                    assert got == want, (kind, index, n)

    def test_two_colored_equals_reference(self):
        for n in range(26):
            assert two_colored_distinct_count(n) == reference_two_colored(n), n

    def test_stream_sizes_match_generating_functions(self):
        for distinct_only, gf in ((False, lambda o: poch(-1, 1, 1, INFINITE, o).invert()),
                                  (True, distinct_gen)):
            sizes = _stream_sizes(distinct_only)
            assert sizes[-2] <= CENSUS_BUDGET < sizes[-1]
            assert list(sizes) == list(gf(len(sizes) - 1).coefficients())

    def test_budget_boundary(self):
        for distinct_only in (False, True):
            over = len(_stream_sizes(distinct_only)) - 1
            with pytest.raises(ValueError, match="budget"):
                stat_sum_oracle(StatKind.MEX, over, distinct_only)


class TestOverBudgetRefused:
    """Over-budget ranges exit 2 with empty stdout and enumerate nothing."""

    @pytest.fixture(autouse=True)
    def no_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"enumerated {args}")

        partitions._CENSUSES.clear()
        monkeypatch.setattr(partitions, "enum_partitions", refuse)
        monkeypatch.setattr(partitions, "_sets", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--all", "--oracle-max", "300"],
            ["oracle", "mex", "--n", "300"],
            ["verify", "--identity", "a-d-oracle", "--oracle-max", "300"],
        ],
    )
    def test_cli_exits_2(self, capsys, argv):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "budget" in captured.err

    def test_library_raises(self):
        with pytest.raises(ValueError, match="budget"):
            verify("a-d-oracle", 300)
        with pytest.raises(ValueError, match="budget"):
            two_colored_distinct_count(300)
