"""Partition enumeration and excludant statistics.

Everything in this module works by exhaustive enumeration. It is the
slow, obviously-correct half of the package: the generating-function
builders are checked coefficient by coefficient against these counts.

enum_partitions is the per-partition stream: one recursive generator,
which adds the ones of a partition in one step, yields each partition
as a plain tuple of parts in reverse-lexicographic order, for all or
distinct parts. Nothing in the package reads the stream; the tests read
it with their own per-tuple mex, moex and maex to build reference counts.

The census of n is the package's only definition of each statistic and
the only path from partitions to an oracle value; it does not go
through that stream. It holds one map per statistic (mex, moex, maex,
the largest and the smallest part), each from a value to the number of
partitions of n that take it; every sum and count an oracle gives is
read off those maps. A partition of n is a partition with no part 1 of
weight n - j plus j ones, where j = 0 or 1 for distinct parts; so
p(n) - p(n-1) partitions of n have no part 1 (Andrews, The Theory of
Partitions, 1976). Every statistic depends only on the set of parts S,
an int bitmask, and is read with bit operations. One enumerator lists
every set of parts >= 2 with weight at most n by weight, as a 0/1
knapsack over the parts, each set with a count. Each set is read once,
as it is for its own weight and plus part 1 (bit 1) for the next. For
distinct parts the census of each m <= n adds the sets of weight m to
those of weight m - 1 plus part 1. For all parts a set's count packs
one slot per weight up to n, wide enough for p(n): its number of
partitions with no part 1 and exactly the parts S, one big-int product
per part joined, and its one read gives the census of every m <= n:
the p(45) = 89134 partitions with no part 1 and weight at most 45
share 8971 sets. One store keeps every census enumerated, by n and
kind: an enumeration at n stores the census of every m <= n.
The tests check the census field by field, value count by value count,
against one built from enum_partitions and the tests' per-tuple
statistics, and against the per-n walk it replaced. A census refuses
with ValueError, before enumerating anything, when n has more than
CENSUS_BUDGET partitions: p(n) for unrestricted partitions (n <= 45)
and q(n) for distinct parts (n <= 82), both taken exactly from Euler's
pentagonal recurrence. The enumeration at n lists the sets of every
weight up to n: 8971 at 45, the all-parts top, and 526385 at 82, the
distinct top.

Conventions for the empty partition: mex = 1, smallest odd excludant
= 1, largest is 0, and the maximal excludant is 0 (there is no
non-negative integer below the largest part that is missing, so the
statistic contributes nothing). Its smallest part counts as +infinity,
so "every part > i" holds vacuously.
"""

from __future__ import annotations

import enum
import math
from functools import cache
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

# Most partitions of n one census may count. At the top, n = 45, the
# census of every m <= 45, all parts, takes about 0.03 s, one
# enumeration for them all; for distinct parts, n = 82 takes about
# 1.0 s and a 69 MB peak, and serves every m <= 82 (medians of five
# fresh processes on a 2-core x86 VM with CPython 3.11). Every registry
# default range fits: p(35) = 14883 and q(40) = 1113.
CENSUS_BUDGET = 100_000


class StatKind(enum.Enum):
    """Statistics summed over partitions by stat_sum_oracle."""

    MEX = "mex"
    MOEX = "moex"
    MAEX = "maex"
    LARGEST = "largest"


class CountKind(enum.Enum):
    """Predicates counted by refined_count_oracle."""

    MEX_EQ = "mex-eq"
    MEX_GT = "mex-gt"
    SMALLEST_GT = "smallest-gt"
    ODD_MEX = "odd-mex"


def enum_partitions(n: int, distinct_only: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of n as tuples of parts in reverse-lexicographic order.

    Parts are non-increasing, strictly decreasing for distinct parts.
    Largest first part first; ties broken recursively the same way, so
    for n = 4: (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1). n = 0
    yields the empty tuple once. The stream is generated lazily.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    return _finish((), n, n, distinct_only)


def _finish(
    prefix: tuple[int, ...], rest: int, top: int, distinct_only: bool
) -> Iterator[tuple[int, ...]]:
    """Yield prefix extended by each partition of rest into parts of at most top."""
    if rest == 0 or top == 1:  # only ones are left; for distinct parts rest is 0 or 1
        yield prefix + (1,) * rest
        return
    for part in range(min(rest, top), 0, -1):
        if distinct_only and part * (part + 1) // 2 < rest:
            break  # parts part, part-1, ..., 1 cannot fill rest
        below = part - 1 if distinct_only else part
        yield from _finish(prefix + (part,), rest - part, below, distinct_only)


# ----------------------------------------------------------------------
# the census behind every oracle


class _Census(NamedTuple):
    """How many partitions of n take each value of each statistic.

    Each field maps a value to its number of partitions of n (into
    distinct parts for a distinct census); a value no partition takes is
    left out. The first four fields are named by the StatKind values.
    """

    mex: Mapping[int, int]
    moex: Mapping[int, int]
    maex: Mapping[int, int]
    largest: Mapping[int, int]
    smallest: Mapping[float, int]  # inf for the empty partition


def _pentagonal(limit: int) -> Iterator[tuple[int, int]]:
    """(g, sign) for each term sign * q^g, 1 <= g <= limit, of (q;q)_inf."""
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        sign = -1 if k % 2 else 1
        yield k * (3 * k - 1) // 2, sign
        if k * (3 * k + 1) // 2 <= limit:
            yield k * (3 * k + 1) // 2, sign
        k += 1


@cache
def _stream_sizes(distinct_only: bool) -> tuple[int, ...]:
    """p(0), p(1), ... (q(...) when distinct_only) up to the first value above CENSUS_BUDGET.

    (q;q)_inf P(q) = 1 and (q;q)_inf Q(q) = (q^2;q^2)_inf, so both follow
    Euler's pentagonal recurrence; Q's right side has the same terms as
    (q;q)_inf at doubled exponents. Both sequences are non-decreasing,
    so every n past the table is over budget too.
    """
    sizes = [1]
    while sizes[-1] <= CENSUS_BUDGET:
        n = len(sizes)
        terms = dict(_pentagonal(n))
        size = -sum(sign * sizes[n - g] for g, sign in terms.items())
        if distinct_only and n % 2 == 0:
            size += terms.get(n // 2, 0)
        sizes.append(size)
    return tuple(sizes)


def _sets(n: int, step: Callable[[int, int], int]) -> list[list[tuple[int, int]]]:
    """Every set of parts >= 2 of weight at most n, as (mask, count) pairs by weight.

    A 0/1 knapsack over parts k = 2..n: the sets of weight w whose
    largest part is k are those of weight w - k with parts below k, each
    with bit k set and its count passed through step(k, count). Weights
    are taken downward, so no set takes k twice. The empty set, weight 0,
    counts 1.
    """
    by_weight: list[list[tuple[int, int]]] = [[(0, 1)]] + [[] for _ in range(n)]
    for k in range(2, n + 1):
        bit = 1 << k
        for w in range(n, k - 1, -1):
            by_weight[w] += [(mask | bit, step(k, c)) for mask, c in by_weight[w - k]]
    return by_weight


def _read(pairs: list[tuple[int, int]]) -> tuple[_Census, _Census]:
    """The censuses of the sets in pairs, bit k for part k: as they are, and plus part 1.

    Each set is read once for both, its count times, so packed counts
    give packed censuses. Per set, bit operations read the largest part,
    the smallest part and maex of S, and mex and moex of S plus part 1
    (moex: the lowest clear bit of mask | evens, which has bit 1 and
    every even bit up to 2 past the largest part of S plus part 1). The
    rest follow in bulk: S has mex and moex 1; S plus part 1 has
    smallest part 1, the largest part of S (1 for the empty set), and
    the maex of S, but 0 for 1, as part 1 fills the only gap.
    """
    # 1 past the largest part of S plus part 1
    top = max(max((mask for mask, _ in pairs), default=0).bit_length(), 2)
    evens = 2 | sum(1 << i for i in range(0, top + 2, 2))
    # mex and moex of S plus part 1, the rest of S
    mexes, moexes, maexes, largests, smallests = tallies = _Census({}, {}, {}, {}, {})
    for mask, c in pairs:
        # ~x & (x + 1) is the lowest clear bit of x; bit 0 is never a part
        x = mask | 3
        m = (~x & (x + 1)).bit_length() - 1
        x = mask | evens
        mo = (~x & (x + 1)).bit_length() - 1
        largest = (mask | 1).bit_length() - 1
        # bit 0 of ~mask stands for the excludant 0, the floor of maex
        ma = ((~mask & ((1 << largest) - 1)) | 1).bit_length() - 1
        smallest = (mask & -mask).bit_length() - 1 if mask else math.inf
        mexes[m] = mexes.get(m, 0) + c
        moexes[mo] = moexes.get(mo, 0) + c
        maexes[ma] = maexes.get(ma, 0) + c
        largests[largest] = largests.get(largest, 0) + c
        smallests[smallest] = smallests.get(smallest, 0) + c
    ones = {1: sum(smallests.values())} if pairs else {}  # every set has one smallest part
    plain = tallies._replace(mex=ones, moex=ones)
    with_one = _Census(mexes, moexes, _moved(maexes, 1, 0), _moved(largests, 0, 1), ones)
    return plain, with_one


def _moved(counts: dict[int, int], old: int, new: int) -> dict[int, int]:
    """A copy of counts with the count of value old added to that of value new."""
    moved = dict(counts)
    if old in moved:
        moved[new] = moved.get(new, 0) + moved.pop(old)
    return moved


def _added(a: _Census, b: _Census, times: int) -> _Census:
    """a + times * b, count by count."""
    return _Census(
        *({k: x.get(k, 0) + times * y.get(k, 0) for k in {**x, **y}} for x, y in zip(a, b))
    )


def _frozen(census: _Census, shift: int = 0, low: int = -1) -> _Census:
    """The read-only census in bits shift and up of every count, cut by low.

    A count that comes out 0 is left out, as no partition takes its value.
    """
    cut = ({k: c for k, x in counts.items() if (c := x >> shift & low)} for counts in census)
    return _Census(*map(MappingProxyType, cut))


def _all_censuses(n: int) -> list[_Census]:
    """The census of every m <= n, all parts, by m.

    Each set of parts S >= 2 counts its partitions with no part 1 as an
    int with one slot of width bits per weight w <= n: part k multiplies
    the count by runs[k] = q^k + q^2k + ..., cut at q^n. The partitions
    of m are those with no part 1 of weight m, and those of each lower
    weight plus ones: times runs[1], the second kind moves to every slot
    above its own. No slot overflows: each counts partitions with no
    part 1 and weight at most n, no two alike, and those number p(n).
    """
    width = _stream_sizes(False)[n].bit_length()
    low = (1 << width * (n + 1)) - 1  # the slots of weights 0..n
    runs = {k: sum(1 << width * w for w in range(k, n + 1, k)) for k in range(1, n + 1)}
    pairs = [pair for sets in _sets(n, lambda k, c: c * runs[k] & low) for pair in sets]
    packed = _added(*_read(pairs), runs.get(1, 0))  # no ones at n = 0
    return [_frozen(packed, width * m, (1 << width) - 1) for m in range(n + 1)]


def _distinct_census(n: int) -> list[_Census]:
    """The census of every m <= n, distinct parts, by m.

    The partitions of m are the sets of weight m, and those of weight
    m - 1 plus part 1; every count is 1.
    """
    censuses: list[_Census] = []
    below = _Census({}, {}, {}, {}, {})  # the sets of weight m - 1 plus part 1
    for sets in _sets(n, lambda k, c: c):
        plain, with_one = _read(sets)
        censuses.append(_frozen(_added(plain, below, 1)))
        below = with_one
    return censuses


# The censuses enumerated so far, by (n, distinct_only). An enumeration
# at n stores the census of every m <= n, of either kind, so one is
# needed only above the largest n of its kind stored, as the series
# store serves lower orders.
_CENSUSES: dict[tuple[int, bool], _Census] = {}


def _census(n: int, distinct_only: bool) -> _Census:
    """Every statistic of the partitions of n, from the store or a new enumeration.

    A partition of n is a partition with no part 1 of weight n - j plus
    j ones, where j is 0 or 1 for distinct parts. The sets of parts >= 2
    are listed by weight, bit k for part k, and every statistic is read
    off them with bit operations.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    limit = len(_stream_sizes(distinct_only)) - 2
    if n > limit:
        kind = "partitions into distinct parts" if distinct_only else "partitions"
        raise ValueError(
            f"the {kind} of {n} exceed the enumeration budget of {CENSUS_BUDGET}"
            f" partitions; the largest n within it is {limit}"
        )
    key = n, distinct_only
    if key not in _CENSUSES:
        censuses = _distinct_census(n) if distinct_only else _all_censuses(n)
        _CENSUSES.update(((m, distinct_only), census) for m, census in enumerate(censuses))
    return _CENSUSES[key]


def stat_sum_oracle(kind: StatKind, n: int, distinct_only: bool = False) -> int:
    """Sum a statistic over all partitions of n, read from the census of n."""
    counts = getattr(_census(n, distinct_only), kind.value)
    return sum(value * c for value, c in counts.items())


def refined_count_oracle(
    kind: CountKind, index: int, n: int, distinct_only: bool = False
) -> int:
    """Count partitions of n satisfying a predicate, read from the census of n.

    MEX_EQ counts mex == index, MEX_GT counts mex > index, SMALLEST_GT
    counts every part > index (vacuously true for the empty partition),
    ODD_MEX counts partitions whose mex is odd and ignores index.
    """
    census = _census(n, distinct_only)
    if kind is CountKind.MEX_EQ:
        return census.mex.get(index, 0)
    if kind is CountKind.MEX_GT:
        return sum(c for m, c in census.mex.items() if m > index)
    if kind is CountKind.SMALLEST_GT:
        return sum(c for s, c in census.smallest.items() if s > index)
    if kind is CountKind.ODD_MEX:
        return sum(c for m, c in census.mex.items() if m % 2 == 1)
    raise ValueError(f"unknown count kind {kind!r}")


def two_colored_distinct_count(n: int) -> int:
    """Number of pairs of distinct-part partitions with weights summing to n.

    Convolves the distinct-partition counts d(0..n) with themselves,
    where each d(j) is the number of partitions in the distinct census of j.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    # d[j] holds d(n - j), top first so that an over-budget n refuses
    # before any enumeration; the convolution is symmetric in j <-> n - j.
    d = [sum(_census(j, True).mex.values()) for j in range(n, -1, -1)]
    return sum(d[j] * d[n - j] for j in range(n + 1))
