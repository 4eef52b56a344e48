"""The Dedekind sum straight from its definition, as a test oracle.

qmex.asymptotics.dedekind_sum walks Euclid's algorithm by reciprocity
on the integer T(h, k) = 12k s(h, k); the functions here sum the
sawtooth products term by term in exact fractions instead, so the two
routes share no identity beyond the definition.
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


def scaled_direct_dedekind_sum(h: int, k: int) -> Fraction:
    """12k s(h, k) from the direct sum, left a Fraction so integrality is checked, not assumed."""
    return 12 * k * direct_dedekind_sum(h, k)


def fraction_kloosterman_A(k: int, n: int) -> tuple[float, float]:
    """qmex.asymptotics.kloosterman_A with the exact-fraction phase on the direct sum.

    The phase s(h,k) - s(2h,k) - hn/k is a Fraction, reduced to [0, 1)
    by subtracting its floor and only then turned into a float.
    """
    re = 0.0
    im = 0.0
    for h in range(k):
        if math.gcd(h, k) != 1:
            continue
        phase = direct_dedekind_sum(h, k) - direct_dedekind_sum(2 * h % k, k) - Fraction(h * n, k)
        angle = 2.0 * math.pi * float(phase - math.floor(phase))
        re += math.cos(angle)
        im += math.sin(angle)
    return re, abs(im)
