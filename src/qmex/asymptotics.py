"""Exact-arithmetic number theory and floating-point asymptotics.

The arithmetic that must be exact (Dedekind sums and the phases of the
Kloosterman-type sums) runs on int; floats appear only at the final
evaluation of cosines, Bessel values and exponentials. The Kloosterman
sums are mathematically real because the h and k-h terms are
conjugate, so the accumulated imaginary part is pure rounding noise;
it is measured and a blown tolerance raises instead of returning
garbage.
"""

from __future__ import annotations

import enum
import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .qfunctions import distinct_gen, sigma_d_mex_series
from .series import NumericalIntegrityError

# Euler-Mascheroni constant, double precision.
EULER_GAMMA = 0.5772156649015329

# Largest tolerated imaginary residue of a Kloosterman-type sum.
IMAG_TOLERANCE = 1e-9

# Relative size at which the Bessel power series stops adding terms.
_BESSEL_EPS = 1e-17

# Most terms hrr_sigma_mex accepts. Term k costs about 2k Dedekind sums
# of O(log k) integer steps each, so the cost grows about as
# terms^2 log(terms): cold at n = 30, 35 terms take 0.004 s, 100 terms
# 0.035-0.05 s and 200 terms 0.15 s (2-core x86-64 VM, Python 3.11).
HRR_MAX_TERMS = 100

# Largest |partial sum| hrr_sigma_mex rounds. Its terms are summed in
# doubles; against sigma_mex_series the first wrong rounding is at
# n = 222 (|partial| about 2^46.6, any term count from 5 to 100), and
# every n <= 208 stays below 2^45.
HRR_MAX_PARTIAL = 2.0**45


class AsymKind(enum.Enum):
    SIGMA_MEX = "sigma-mex"
    SIGMA_D_MEX = "sigma-d-mex"
    SIGMA_L = "sigma-l"


class HrrResult(NamedTuple):
    """A truncated Hardy-Ramanujan-Rademacher style evaluation."""

    n: int
    terms: int
    partial_sum: float
    rounded: int
    residual: float


@lru_cache(maxsize=None)
def dedekind_sum(h: int, k: int) -> int:
    """T(h, k) = 12k s(h, k) for the Dedekind sum s(h, k) = sum_{r<k} ((r/k)) ((hr/k)).

    6k s(h, k) is an integer for coprime h, k (Rademacher and Grosswald,
    Dedekind Sums, 1972); s only sees h mod k and the pair divided by its
    gcd g, so T(h, k) = g T(h/g, k/g) is an integer too. Reciprocity reads
    h T(h,k) = h^2 + k^2 + 1 - 3hk - k T(k mod h, h): the Euclid pairs are
    walked back from T(0, 1) = 0 by exact division, O(log k), no recursion.
    """
    if k < 1:
        raise ValueError("modulus k must be a positive integer")
    h %= k
    g = math.gcd(h, k)
    h, k = h // g, k // g
    pairs = []
    while h:
        pairs.append((h, k))
        h, k = k % h, h
    t = 0
    for h, k in reversed(pairs):
        t = (h * h + k * k + 1 - 3 * h * k - k * t) // h
    return g * t


def kloosterman_A(k: int, n: int) -> tuple[float, float]:
    """Kloosterman-type sum over residues h coprime to k.

    Each term is exp(2 pi i (s(h,k) - s(2h,k) - hn/k)); 12k times the
    phase is the integer T(h,k) - T(2h,k) - 12hn, reduced mod 12k before
    one correctly rounded division. Returns (real part, |imaginary part|);
    an imaginary part above IMAG_TOLERANCE raises NumericalIntegrityError.
    """
    if k < 1:
        raise ValueError("modulus k must be a positive integer")
    re = 0.0
    im = 0.0
    for h in range(k):
        if math.gcd(h, k) != 1:
            continue
        r = (dedekind_sum(h, k) - dedekind_sum(2 * h % k, k) - 12 * h * n) % (12 * k)
        angle = 2.0 * math.pi * (r / (12 * k))
        re += math.cos(angle)
        im += math.sin(angle)
    if abs(im) > IMAG_TOLERANCE:
        raise NumericalIntegrityError(
            f"imaginary residue {im:.3e} of A_{k}({n}) exceeds {IMAG_TOLERANCE:.1e}"
        )
    return re, abs(im)


def bessel_I1(x: float) -> float:
    """Modified Bessel function of the first kind, order one.

    Power series sum_j (x/2)^{2j+1} / (j! (j+1)!). All terms are
    positive, so there is no cancellation; summation stops once a term
    drops below 1e-17 of the running sum.
    """
    if x < 0:
        raise ValueError("argument must be non-negative")
    half = 0.5 * x
    term = half  # j = 0
    total = term
    j = 1
    while term > _BESSEL_EPS * total:
        term *= half * half / (j * (j + 1))
        total += term
        j += 1
    return total


def hrr_sigma_mex(n: int, terms: int) -> HrrResult:
    """Exact-phase Rademacher-style partial sum for the mex-sum over all partitions.

    partial = pi / (2 sqrt(6 (n + 1/12)))
              * sum_{k=1}^{terms} A_{2k-1}(n)/(2k-1)
              * I_1(pi sqrt(2 (n + 1/12)) / (sqrt(3) (2k-1)))

    The returned residual is the distance to the nearest integer, which
    for moderate n already identifies the exact coefficient. More than
    HRR_MAX_TERMS terms raise ValueError before any work; an n or a
    partial sum beyond float range, or a partial sum of HRR_MAX_PARTIAL
    or more, raises NumericalIntegrityError.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 1 <= terms <= HRR_MAX_TERMS:
        raise ValueError(f"terms must lie in 1..{HRR_MAX_TERMS}, got {terms}")
    if n > sys.float_info.max:
        raise NumericalIntegrityError("n is beyond float range")
    shifted = n + 1.0 / 12.0
    prefactor = math.pi / (2.0 * math.sqrt(6.0 * shifted))
    arg_top = math.pi * math.sqrt(2.0 * shifted) / math.sqrt(3.0)
    acc = 0.0
    for k in range(1, terms + 1):
        odd = 2 * k - 1
        a, _ = kloosterman_A(odd, n)
        acc += a / odd * bessel_I1(arg_top / odd)
    partial = prefactor * acc
    if not math.isfinite(partial):
        raise NumericalIntegrityError(f"partial sum for n = {n} is {partial!r}, not finite")
    if abs(partial) >= HRR_MAX_PARTIAL:
        raise NumericalIntegrityError(
            f"partial sum for n = {n} is {partial!r}, at least 2^45: too large to round exactly"
        )
    rounded = math.floor(partial + 0.5)
    return HrrResult(n, terms, partial, int(rounded), abs(partial - rounded))


# ----------------------------------------------------------------------
# leading-order asymptotics and series-side ratios


def asym_value(kind: AsymKind, n: int) -> float:
    """Leading-order growth of a statistic sum at n.

    SIGMA_MEX    exp(pi sqrt(2n/3)) / (4 (6 n^3)^(1/4))
    SIGMA_D_MEX  exp(pi sqrt(n/3)) / (2 (3 n^3)^(1/4))
    SIGMA_L      (log(6n/pi^2) + 2 gamma) / (4 pi sqrt(2n)) * exp(pi sqrt(2n/3))

    A value beyond float range raises NumericalIntegrityError.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    try:
        if kind is AsymKind.SIGMA_MEX:
            return math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) / (4.0 * (6.0 * n**3) ** 0.25)
        if kind is AsymKind.SIGMA_D_MEX:
            return math.exp(math.pi * math.sqrt(n / 3.0)) / (2.0 * (3.0 * n**3) ** 0.25)
        if kind is AsymKind.SIGMA_L:
            return (
                (math.log(6.0 * n / math.pi**2) + 2.0 * EULER_GAMMA)
                / (4.0 * math.pi * math.sqrt(2.0 * n))
                * math.exp(math.pi * math.sqrt(2.0 * n / 3.0))
            )
    except OverflowError:
        raise NumericalIntegrityError(f"{kind.value} growth exceeds float range") from None
    raise ValueError(f"unknown asymptotic kind {kind!r}")


# Taylor coefficients of the sigma series at q = exp(-t), ascending in t.
_ZAGIER_COEFFS = (2.0, -2.0, 5.0, -55.0 / 3.0, 1073.0 / 12.0, -32671.0 / 60.0)


def zagier_value(t: float) -> float:
    """Degree-five expansion of sigma(exp(-t)) around t = 0."""
    if t <= 0:
        raise ValueError("t must be positive")
    acc = 0.0
    for c in reversed(_ZAGIER_COEFFS):
        acc = acc * t + c
    return acc


def required_order(t: float) -> int:
    """Truncation order needed before an eval at exp(-t) is trusted.

    The summand peaks near pi^2/(6 t^2); 8/t^2 clears the peak with a
    tail that is exponentially negligible at the comparison precision.
    A t so small that 8/t^2 is not a finite float raises ValueError.
    """
    try:
        return math.ceil(8.0 / (t * t))
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"t = {t!r} is too small for a finite truncation order") from None


def _check_t_and_order(t: float, order: int) -> None:
    """Raise ValueError unless 0 < t <= 1/4 and order >= required_order(t)."""
    if not 0.0 < t <= 0.25:
        raise ValueError("t must lie in (0, 0.25]")
    need = required_order(t)
    if order < need:
        raise ValueError(f"order {order} too small: t = {t} needs at least {need}")


def tauberian_ratio(t: float, order: int) -> float:
    """Distinct-mex sum at q = exp(-t) against its exponential prediction.

    ratio = B(exp(-t)) / (sqrt(2) exp(pi^2/(12 t))) where B is the
    mex-sum series over distinct partitions; the ratio climbs toward 1
    as t drops. Requires 0 < t <= 1/4 and order >= ceil(8/t^2).
    """
    _check_t_and_order(t, order)
    value = sigma_d_mex_series(order).eval_at(math.exp(-t))
    return value / (math.sqrt(2.0) * math.exp(math.pi**2 / (12.0 * t)))


def eta_ratio(t: float, order: int) -> float:
    """(-exp(-t); exp(-t))_inf against exp(pi^2/(12 t)) / sqrt(2)."""
    _check_t_and_order(t, order)
    value = distinct_gen(order).eval_at(math.exp(-t))
    return value / (math.exp(math.pi**2 / (12.0 * t)) / math.sqrt(2.0))
