"""Partition enumeration and excludant statistics.

Everything in this module works by exhaustive enumeration. It is the
slow, obviously-correct half of the package: the generating-function
builders are checked coefficient by coefficient against these counts.

enum_partitions is the per-partition stream: one recursive generator,
which adds the ones of a partition in one step, yields each partition
as a plain tuple of parts in reverse-lexicographic order, for all or
distinct parts. mex, moex and maex read such a tuple. Nothing in the
package reads the stream; the tests build their reference counts on it.

The census of n is the only path from partitions to an oracle value,
and it does not go through that stream. A partition of n is a
partition with no part 1 of weight n - j plus j ones, where j = 0 or
1 for distinct parts; so p(n) - p(n-1) partitions of n have no part 1
(Andrews, The Theory of Partitions, 1976). One walk visits the
partitions with no part 1 depth first by (part k, multiplicity j),
parts in decreasing order, and tallies them by their set of parts S as
an int bitmask. mex, moex, maex, the largest and the smallest part
depend only on the set, so each is read once for S and once for S
with part 1, with bit operations. For all parts the walk covers every
weight up to n, each count an int with one slot per weight, and gives
the census of every m <= n: the p(45) = 89134
partitions with no part 1 and weight at most 45 share 8971 sets. The
censuses of the longest such walk are kept and serve every lower n;
distinct parts keep one census per n, from the weights n - 1 and n.
The tests check the census field by field against one built from
enum_partitions and the per-partition statistics below, and against
the per-n walk it replaced. A census refuses with ValueError, before
walking anything, when n has more than CENSUS_BUDGET partitions: p(n)
for unrestricted partitions (n <= 45) and q(n) for distinct parts
(n <= 82), both taken exactly from Euler's pentagonal recurrence. The
walk for all parts counts p(n) partitions, the walk for distinct parts
q(n).

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
from typing import Iterator, Mapping, NamedTuple

# Most partitions one census may walk. At the top, n = 45, the census
# of all partitions takes about 0.10 s alone, and so does the census of
# every n <= 45, as one walk serves them all. For distinct parts, n = 82
# takes about 0.31 s alone and every n <= 82 about 3.5 s, one walk each
# (medians of five fresh processes on a 2-core x86 VM with CPython
# 3.11). Every registry default range fits: p(35) = 14883 and
# q(40) = 1113.
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


def mex(parts: tuple[int, ...]) -> int:
    """Smallest positive integer that is not a part."""
    have = set(parts)
    m = 1
    while m in have:
        m += 1
    return m


def moex(parts: tuple[int, ...]) -> int:
    """Smallest odd positive integer that is not a part."""
    have = set(parts)
    m = 1
    while m in have:
        m += 2
    return m


def maex(parts: tuple[int, ...]) -> int:
    """Largest non-negative integer below the largest part that is not a part.

    parts is non-increasing, so parts[0] is the largest. 0 when every
    candidate is present, in particular for the empty partition and for
    staircases like (2, 1) where 0 itself is the largest missing value.
    """
    if not parts:
        return 0
    have = set(parts)
    for g in range(parts[0] - 1, 0, -1):
        if g not in have:
            return g
    return 0


# ----------------------------------------------------------------------
# the census behind every oracle


class _Census(NamedTuple):
    """Every statistic of the partitions of n (distinct parts if distinct_only)."""

    count: int
    sums: Mapping[StatKind, int]
    mex_counts: Mapping[int, int]  # mex -> number of partitions
    smallest_counts: Mapping[float, int]  # smallest part (inf when empty) -> number


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


def _walk(
    rest: int, top: int, mask: int, distinct_only: bool, tallies: list[tuple[dict[int, int], int]]
) -> None:
    """Tally each way to add parts top >= k >= 2 to a partition with no part 1.

    mask holds the parts taken so far, all above top, and rest is what
    is left of n. Each part k from the top down is taken j = 1, 2, ...
    times (once for distinct parts), and each partition reached adds
    unit to tally[its set of parts], where (tally, unit) = tallies[left]
    for the left of n it leaves, before the walk goes on to parts below
    k. Distinct parts count only the partitions that leave 0 or 1.
    """
    for k in range(min(rest, top), 1, -1):
        if distinct_only and k * (k + 1) // 2 < rest:
            break  # parts k, k-1, ..., 2 cannot come within 1 of rest
        with_k = mask | 1 << k
        left = rest - k
        while left >= 0:
            if left <= 1 or not distinct_only:
                tally, unit = tallies[left]
                tally[with_k] = tally.get(with_k, 0) + unit
            if left > 1 and k > 2:
                _walk(left, k - 1, with_k, distinct_only, tallies)
            if distinct_only:
                break
            left -= k


def _read(tally: dict[int, int], one: int, evens: int) -> _Census:
    """The census of the sets in tally, each with part 1 added if one is 2, its bit.

    Each set counts tally[set] times and every number is a sum of those
    counts times a statistic, so counts that pack several weights into
    one int give a packed census. evens has every even bit up to 2 past
    the largest part, so that moex is the lowest bit clear in
    mask | evens.
    """
    count = mex_sum = moex_sum = maex_sum = largest_sum = 0
    mex_counts: dict[int, int] = {}
    smallest_counts: dict[float, int] = {}
    for mask, c in tally.items():
        mask |= one
        # ~x & (x + 1) is the lowest clear bit of x; bit 0 is never a part
        x = mask | 1
        m = (~x & (x + 1)).bit_length() - 1
        largest = x.bit_length() - 1
        x = mask | evens
        moex = (~x & (x + 1)).bit_length() - 1
        smallest = (mask & -mask).bit_length() - 1 if mask else math.inf
        count += c
        mex_sum += c * m
        moex_sum += c * moex
        # bit 0 of ~mask stands for the excludant 0, the floor of maex
        maex_sum += c * (((~mask & ((1 << largest) - 1)) | 1).bit_length() - 1)
        largest_sum += c * largest
        mex_counts[m] = mex_counts.get(m, 0) + c
        smallest_counts[smallest] = smallest_counts.get(smallest, 0) + c
    sums = {
        StatKind.MEX: mex_sum,
        StatKind.MOEX: moex_sum,
        StatKind.MAEX: maex_sum,
        StatKind.LARGEST: largest_sum,
    }
    return _Census(count, sums, mex_counts, smallest_counts)


def _added(a: _Census, b: _Census, times: int = 1) -> _Census:
    """a + times * b, number by number."""

    def add(x: Mapping, y: Mapping) -> dict:
        return {k: x.get(k, 0) + times * y.get(k, 0) for k in {**x, **y}}

    return _Census(
        a.count + times * b.count,
        add(a.sums, b.sums),
        add(a.mex_counts, b.mex_counts),
        add(a.smallest_counts, b.smallest_counts),
    )


def _frozen(census: _Census, shift: int = 0, low: int = -1) -> _Census:
    """The read-only census in bits shift and up of every number, cut by low.

    A count that comes out 0 is left out, as no partition has its key.
    """

    def cut(counts: Mapping) -> MappingProxyType:
        return MappingProxyType({k: c for k, x in counts.items() if (c := x >> shift & low)})

    return _Census(
        census.count >> shift & low,
        MappingProxyType({k: x >> shift & low for k, x in census.sums.items()}),
        cut(census.mex_counts),
        cut(census.smallest_counts),
    )


def _evens(n: int) -> int:
    """Every even bit up to n + 2, past the largest moex of a partition of n."""
    return sum(1 << i for i in range(0, n + 4, 2))


def _all_censuses(n: int) -> list[_Census]:
    """The census of every m <= n, all parts, from one walk.

    The walk tallies each set of parts with no part 1 once, its count
    an int with one slot of width bits per weight w <= n. The partitions
    of m are those with no part 1 of weight m, and those of each lower
    weight plus ones: times above, the second kind moves to every slot
    above its own. No slot overflows, as each holds a sum over at most
    p(n) partitions of a statistic at most n + 2.
    """
    width = ((n + 2) * _stream_sizes(False)[n]).bit_length()
    units = [1 << width * (n - left) for left in range(n + 1)]
    tally = {0: 1}  # the empty partition
    _walk(n, n, 0, False, [(tally, unit) for unit in units])
    evens = _evens(n)
    above = sum(units[:-1])  # slots 1..n
    packed = _added(_read(tally, 0, evens), _read(tally, 2, evens), above)
    low = (1 << width) - 1
    return [_frozen(packed, width * m, low) for m in range(n + 1)]


def _distinct_census(n: int) -> _Census:
    """The census of n, distinct parts: weight n with no part 1, and weight n - 1 plus a 1."""
    without: dict[int, int] = {0: 1} if n == 0 else {}  # the empty partition
    with_one: dict[int, int] = {0: 1} if n == 1 else {}  # and it plus a 1
    _walk(n, n, 0, True, [(without, 1), (with_one, 1)])
    evens = _evens(n)
    return _frozen(_added(_read(without, 0, evens), _read(with_one, 2, evens)))


# The censuses walked so far. All parts keep the census of every n up to
# that of the longest walk, which serves every lower n, as the series
# store does.
_ALL_PARTS: list[_Census] = []
# Distinct parts keep one census per n. One packed walk over a range
# tallies 526,385 sets at n = 82 against 92,864: a lone census there took
# 3.4-4.3 s and 183 MB against 0.2-0.35 s and 25 MB (fresh processes,
# 2-core x86-64 VM, Python 3.11), and the range up to 40 gained nothing.
_DISTINCT: dict[int, _Census] = {}


def _clear_censuses() -> None:
    """Empty the census store."""
    _ALL_PARTS.clear()
    _DISTINCT.clear()


def _census(n: int, distinct_only: bool) -> _Census:
    """Every statistic of the partitions of n, from the store or a new walk.

    A partition of n is a partition with no part 1 of weight n - j plus
    j ones, where j is 0 or 1 for distinct parts. The walk tallies the
    partitions with no part 1 by set of parts, bit k for part k, and
    each statistic of a set S and of S with part 1 is read once per set.
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
    if distinct_only:
        census = _DISTINCT.get(n)
        if census is None:
            census = _DISTINCT[n] = _distinct_census(n)
        return census
    if n >= len(_ALL_PARTS):
        _ALL_PARTS[:] = _all_censuses(n)
    return _ALL_PARTS[n]


def stat_sum_oracle(kind: StatKind, n: int, distinct_only: bool = False) -> int:
    """Sum a statistic over all partitions of n, read from the census of n."""
    return _census(n, distinct_only).sums[kind]


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
        return census.mex_counts.get(index, 0)
    if kind is CountKind.MEX_GT:
        return sum(c for m, c in census.mex_counts.items() if m > index)
    if kind is CountKind.SMALLEST_GT:
        return sum(c for s, c in census.smallest_counts.items() if s > index)
    if kind is CountKind.ODD_MEX:
        return sum(c for m, c in census.mex_counts.items() if m % 2 == 1)
    raise ValueError(f"unknown count kind {kind!r}")


def two_colored_distinct_count(n: int) -> int:
    """Number of pairs of distinct-part partitions with weights summing to n.

    Convolves the distinct-partition counts d(0..n) with themselves,
    where each d(j) is the count of the distinct census of j.
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    # d[j] holds d(n - j), top first so that an over-budget n refuses
    # before any enumeration; the convolution is symmetric in j <-> n - j.
    d = [_census(j, True).count for j in range(n, -1, -1)]
    return sum(d[j] * d[n - j] for j in range(n + 1))
