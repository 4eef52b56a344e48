"""The per-n census qmex.partitions used before its walk without part 1, as a test oracle.

qmex.partitions._census walks only the partitions with no part 1 and
adds the ones afterwards; for all parts, one walk packs every weight up
to n. The census here is the one it replaced: one walk per n over every
partition of n, part 1 included, tallied by set of parts and read once
per set.
"""

import math
from types import MappingProxyType

from qmex.partitions import StatKind, _Census


def walk(rest: int, top: int, mask: int, distinct_only: bool, tally: dict[int, int]) -> None:
    """Add to tally[mask | new parts] each way to fill rest with parts <= top.

    mask holds the parts taken so far, all above top. Each part k from
    the top down is taken j = 1, 2, ... times (once for distinct parts)
    before the walk goes on to parts below k, so every partition is one
    leaf. Part 1 closes a branch at once: it takes the whole rest, which
    for distinct parts must be 1.
    """
    for k in range(min(rest, top), 1, -1):
        if distinct_only and k * (k + 1) // 2 < rest:
            break  # parts k, k-1, ..., 1 cannot fill rest
        with_k = mask | 1 << k
        left = rest - k
        while left > 0:
            walk(left, k - 1, with_k, distinct_only, tally)
            if distinct_only:
                break
            left -= k
        if left == 0:
            tally[with_k] = tally.get(with_k, 0) + 1
    # rest is 0 only for the empty partition of n = 0
    if rest <= 1 or not distinct_only:
        leaf = mask | 2 if rest else mask
        tally[leaf] = tally.get(leaf, 0) + 1


def _lowest_clear(x: int) -> int:
    return (~x & (x + 1)).bit_length() - 1


def census(n: int, distinct_only: bool) -> _Census:
    """Every statistic of the partitions of n, from one walk over the partitions of n."""
    tally: dict[int, int] = {}
    walk(n, n, 0, distinct_only, tally)
    evens = sum(1 << i for i in range(0, n + 4, 2))  # moex <= n + 2 is odd
    count = mex_sum = moex_sum = maex_sum = largest_sum = 0
    mex_counts: dict[int, int] = {}
    smallest_counts: dict[float, int] = {}
    for mask, c in tally.items():
        m = _lowest_clear(mask | 1)
        largest = max(mask.bit_length() - 1, 0)
        smallest = (mask & -mask).bit_length() - 1 if mask else math.inf
        count += c
        mex_sum += c * m
        moex_sum += c * _lowest_clear(mask | evens)
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
    return _Census(
        count,
        MappingProxyType(sums),
        MappingProxyType(mex_counts),
        MappingProxyType(smallest_counts),
    )
