"""The Dedekind sum straight from its definition, as a test oracle.

qmex.asymptotics.dedekind_sum walks Euclid's algorithm by reciprocity;
the functions here sum the sawtooth products term by term instead, so
the two routes share no identity beyond the definition.
"""

import math
from fractions import Fraction


def sawtooth(x: Fraction | int) -> Fraction:
    """((x)): x - floor(x) - 1/2 for non-integral x, else 0. Exact."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def scaled_sawtooth(x: int, k: int) -> int:
    """2k ((x/k)) for an integer x: 2 (x mod k) - k, or 0 when k divides x."""
    rest = x % k
    return 2 * rest - k if rest else 0


def direct_dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)), summed term by term in O(k).

    Every term is an integer over 4k^2 (see scaled_sawtooth), so the
    numerators are summed as integers and divided once at the end.
    """
    if k < 1:
        raise ValueError("modulus k must be a positive integer")
    total = sum(scaled_sawtooth(r, k) * scaled_sawtooth(h * r, k) for r in range(1, k))
    return Fraction(total, 4 * k * k)
