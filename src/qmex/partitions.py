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
Partitions, 1976). One walk visits the partitions with no part 1 depth
first by (part k, multiplicity j), parts in decreasing order, and
fills one tally keyed by their set of parts S, an int bitmask; every
statistic depends only on the set and is read with bit operations. For
all parts each count packs one slot per weight up to n, wide enough
for p(n), and each S is read as it is and with part 1: the census of
every m <= n, where the p(45) = 89134 partitions with no part 1 and
weight at most 45 share 8971 sets. For distinct parts the walk keeps
weight n as S and weight n - 1 as S plus part 1 (bit 1), and the tally
is read once. One store keeps every census walked, by n and kind: an
all-parts walk stores the census of every m <= n, and a distinct-parts
walk the one census of n.
The tests check the census field by field, value count by value count,
against one built from enum_partitions and the tests' per-tuple
statistics, and against the per-n walk it replaced. A census
refuses with ValueError, before walking anything, when n has more than
CENSUS_BUDGET partitions: p(n) for unrestricted partitions (n <= 45)
and q(n) for distinct parts (n <= 82), both taken exactly from Euler's
pentagonal recurrence. The walk for all parts counts p(n) partitions,
the walk for distinct parts q(n).

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
from typing import Iterator, Mapping, NamedTuple, Sequence

# Most partitions one census may walk. At the top, n = 45, the census
# of all partitions takes about 0.05 s alone, and so does the census of
# every n <= 45, as one walk serves them all. For distinct parts, n = 82
# takes about 0.19 s alone and every n <= 82 about 2.0 s, one walk each
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


def _walk(
    rest: int, top: int, mask: int, distinct_only: bool, tally: dict[int, int], units: Sequence[int]
) -> None:
    """Tally each way to add parts top >= k >= 2 to a partition with no part 1.

    mask holds the parts taken so far, all above top, and rest is what
    is left of n. Each part k from the top down is taken j = 1, 2, ...
    times (once for distinct parts), and each partition reached adds
    units[left] to tally[its set of parts], for the left of n it leaves,
    before the walk goes on to parts below k. Distinct parts count only
    the partitions that leave 0 or 1, each once, under its set plus
    part 1 (bit 1) when it leaves 1.
    """
    for k in range(min(rest, top), 1, -1):
        if distinct_only and k * (k + 1) // 2 < rest:
            break  # parts k, k-1, ..., 2 cannot come within 1 of rest
        with_k = mask | 1 << k
        left = rest - k
        while left >= 0:
            if not distinct_only:
                tally[with_k] = tally.get(with_k, 0) + units[left]
            elif left <= 1:
                tally[with_k | left << 1] = 1  # no other partition has this set
            if left > 1 and k > 2:
                _walk(left, k - 1, with_k, distinct_only, tally, units)
            if distinct_only:
                break
            left -= k


def _read(tally: dict[int, int], one: int = 0) -> _Census:
    """The census of the sets in tally, each with part 1 added if one is 2, its bit.

    Each set counts tally[set] times, so counts that pack several
    weights into one int give a packed census. moex is the lowest clear
    bit of mask | evens, with every even bit up to 2 past the largest part.
    """
    top = (max(tally, default=0) | one).bit_length()  # 1 past the largest part, part 1 too
    evens = sum(1 << i for i in range(0, top + 2, 2))
    census = _Census({}, {}, {}, {}, {})
    mexes, moexes, maexes, largests, smallests = census
    for mask, c in tally.items():
        mask |= one
        # ~x & (x + 1) is the lowest clear bit of x; bit 0 is never a part
        x = mask | 1
        m = (~x & (x + 1)).bit_length() - 1
        largest = x.bit_length() - 1
        x = mask | evens
        mo = (~x & (x + 1)).bit_length() - 1
        # bit 0 of ~mask stands for the excludant 0, the floor of maex
        ma = ((~mask & ((1 << largest) - 1)) | 1).bit_length() - 1
        smallest = (mask & -mask).bit_length() - 1 if mask else math.inf
        mexes[m] = mexes.get(m, 0) + c
        moexes[mo] = moexes.get(mo, 0) + c
        maexes[ma] = maexes.get(ma, 0) + c
        largests[largest] = largests.get(largest, 0) + c
        smallests[smallest] = smallests.get(smallest, 0) + c
    return census


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


def _all_censuses(n: int) -> dict[int, _Census]:
    """The census of every m <= n, all parts, by m, from one walk.

    The walk tallies each set of parts with no part 1 once, its count
    an int with one slot of width bits per weight w <= n. The partitions
    of m are those with no part 1 of weight m, and those of each lower
    weight plus ones: times above, the second kind moves to every slot
    above its own. No slot overflows: each counts partitions with no
    part 1 and weight at most n, no two alike, and those number p(n).
    """
    width = _stream_sizes(False)[n].bit_length()
    units = [1 << width * (n - left) for left in range(n + 1)]
    tally = {0: 1}  # the empty partition
    _walk(n, n, 0, False, tally, units)
    above = sum(units[:-1])  # slots 1..n
    packed = _added(_read(tally), _read(tally, 2), above)
    return {m: _frozen(packed, width * m, (1 << width) - 1) for m in range(n + 1)}


def _distinct_census(n: int) -> dict[int, _Census]:
    """The census of n, distinct parts, by n: weight n with no part 1, and weight n - 1 plus a 1."""
    tally = {n << 1: 1} if n <= 1 else {}  # the empty partition, plus part 1 when n is 1
    _walk(n, n, 0, True, tally, ())
    return {n: _frozen(_read(tally))}


# The censuses walked so far, by (n, distinct_only). An all-parts walk at n
# stores the census of every m <= n, so a walk is needed only above the
# largest n stored, as the series store serves lower orders. Distinct
# parts store one n per walk. One packed walk over a range tallies
# 526,385 sets at n = 82 against 92,864: a lone census there took 3.4-4.3 s
# and 183 MB against 0.2-0.35 s and 25 MB (fresh processes, 2-core x86-64
# VM, Python 3.11), and the range up to 40 gained nothing.
_CENSUSES: dict[tuple[int, bool], _Census] = {}


def _census(n: int, distinct_only: bool) -> _Census:
    """Every statistic of the partitions of n, from the store or a new walk.

    A partition of n is a partition with no part 1 of weight n - j plus
    j ones, where j is 0 or 1 for distinct parts. The walk fills one
    tally of the partitions with no part 1 by set of parts, bit k for
    part k, and every statistic is read off it with bit operations.
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
        walked = _distinct_census(n) if distinct_only else _all_censuses(n)
        _CENSUSES.update(((m, distinct_only), census) for m, census in walked.items())
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
