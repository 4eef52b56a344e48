"""The tests' own reads of partitions, as oracles for qmex.partitions.

qmex.partitions._census lists only the sets of parts with no part 1,
by weight, and adds the ones afterwards; for all parts, each set's count
packs every weight up to n. The census here is the walk it replaced:
one walk per n over every partition of n, part 1 included, tallied by
set of parts and read once per set by read_sets, the read of every
statistic of a set from its own bits that _read replaced.

mex, moex and maex read one partition, a tuple of parts as
enum_partitions yields it: the tests' own definition of each statistic,
against the census, which is the package's only one.
"""

import math
from types import MappingProxyType

from qmex.partitions import _Census


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


def read_sets(pairs: list[tuple[int, int]]) -> _Census:
    """The census of the sets in pairs, bit k for part k, each set read on its own.

    The read qmex.partitions._read replaced, which reads the sets with
    part 1 from their own list: every statistic of every set from its
    bits. Each set counts its count times, so packed counts give a
    packed census. moex is the lowest clear bit of mask | evens, with
    every even bit up to 2 past the largest part.
    """
    top = max((mask for mask, _ in pairs), default=0).bit_length()  # 1 past the largest part
    evens = sum(1 << i for i in range(0, top + 2, 2))
    census = _Census({}, {}, {}, {}, {})
    mexes, moexes, maexes, largests, smallests = census
    for mask, c in pairs:
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


def census(n: int, distinct_only: bool) -> _Census:
    """How many partitions of n take each value of each statistic, from one walk over them."""
    tally: dict[int, int] = {}
    walk(n, n, 0, distinct_only, tally)
    return _Census(*map(MappingProxyType, read_sets(list(tally.items()))))


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
