"""Generating functions for excludant statistics of partitions.

Each builder returns an IntSeries of exactly the requested order with
exact integer coefficients. Several families come in more than one
closed form (Form.CANONICAL, Form.ALT1, ...); the forms are computed
through genuinely different formulas and are compared coefficientwise
by the identity registry, so a bug in one route shows up as a mismatch
rather than silently agreeing with itself.

Every nested q-series sum, sum_n t_n A_n with the ratio t_n / t_{n-1}
a monomial times one or two binomial factors and A_n sparse, runs
through one kernel, _nested_sum, by Horner's rule from the innermost
term out: O(N) list work a step on a window of the coefficients the
outer terms can still reach. A_n is the sparse inner sum over parts
above the gap in the maex double sum over distinct parts, a constant
weight in the q-hypergeometric sums; four of those are one
residue-class mex sum, _mex_sum: sigma, the inner sums of a-d and
sigma-d-moex, and a.

The slices of the refined families come from one running quotient per
family (_slices): the tail (-q^{m+1};q)_inf of a mex slice is the
previous tail divided by (1 + q^m), O(order) a step. 1/(q;q)_inf is
stored once (partition_gen), the inverse of a series that Euler's
pentagonal theorem makes sparse (_euler_product); (-q;q)_inf, the
factor most builders end with, is (q^2;q^2)_inf times it, the
largest-part sum is it times the divisor-count series, and the maex sum
over all partitions it times that plus sigma_star / 2 (Chern, 2021).

Every builder takes the order first, f(order, *key), and is served from
one store: the longest series built per key serves each lower order by
slicing. clear_cache() empties it, and each builder's cache_info()
returns its CacheInfo(hits, misses). An order above MAX_ORDER raises
ValueError before the store is read.

Naming follows the statistics themselves: mex is the least missing
part, moex the least missing odd part, maex the largest missing value
below the largest part. The sigma_d_* builders sum a statistic over
partitions into distinct parts; sigma_mex sums mex over all
partitions.
"""

from __future__ import annotations

import enum
from functools import wraps
from itertools import count
from typing import Callable, Iterable, Iterator, NamedTuple

from .partitions import _pentagonal
from .series import (
    IntSeries,
    _div_binomial_inplace,
    _mul_binomial_inplace,
    _shift_inplace,
)


class Form(enum.Enum):
    """Which closed form of a series family to evaluate."""

    CANONICAL = "canonical"
    ALT1 = "alt1"
    ALT2 = "alt2"


class RefinedKind(enum.Enum):
    """Index families exposed by refined_series."""

    MEX = "mex"
    OMEX = "omex"
    MOEX = "moex"
    MAEX = "maex"


class NamedSeries(NamedTuple):
    """A built series together with the name and form that produced it."""

    name: str
    form: Form
    series: IntSeries


# Calls of one builder served from the store (hits) and built (misses).
class CacheInfo(NamedTuple):
    hits: int
    misses: int


# Largest order any builder accepts. Measured cold builds at MAX_ORDER
# take 0.9-1.2 s (sigma-d-maex, sigma-d-moex alt1), 0.30-0.38 s
# (chern-sigma-maex) and at most 0.40 s for every other route (two
# fresh processes each, 2-core x86-64 VM, Python 3.11).
MAX_ORDER = 8000

# The longest series built so far per (builder, positional arguments after order).
_STORE: dict[tuple, IntSeries] = {}
_COUNTS: dict[str, list[int]] = {}  # builder -> [hits, misses]
# Catalogued name -> (builder, forms); no forms means no form parameter.
_CATALOGUE: dict[str, tuple[Callable[..., IntSeries], tuple[Form, ...]]] = {}


def _bad_form(name: str, form) -> ValueError:
    return ValueError(f"{name} has no form {getattr(form, 'value', form)!r}")


def _check_order(order: int) -> None:
    """Raise ValueError for an order outside 0..MAX_ORDER."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order {order} is outside the supported range 0..{MAX_ORDER}")


def _builder(name: str | None = None, forms: tuple[Form, ...] = ()):
    """Serve a builder f(order, *key) from _STORE and catalogue it under name.

    The store keys on fn's name and the positional arguments after
    order, or fn's defaults when none are passed. An order outside
    0..MAX_ORDER or a form (the first of those arguments) outside forms
    raises before the store is read. A call at the stored order returns
    the stored series itself, a lower order a slice of it, and a higher
    order builds and replaces it.
    """

    def decorate(fn: Callable[..., IntSeries]) -> Callable[..., IntSeries]:
        defaults = fn.__defaults__ or ()
        counts = _COUNTS[fn.__name__] = [0, 0]

        @wraps(fn)
        def builder(order: int, *args) -> IntSeries:
            args = args or defaults
            _check_order(order)
            if forms and args[0] not in forms:
                raise _bad_form(name, args[0])
            key = (fn.__name__, *args)
            stored = _STORE.get(key)
            if stored is None or stored.order < order:
                counts[1] += 1
                stored = _STORE[key] = fn(order, *args)
            else:
                counts[0] += 1
            return stored if stored.order == order else IntSeries._trusted(stored.coefficients()[: order + 1])

        builder.cache_info = lambda: CacheInfo(*counts)
        if name is not None:
            _CATALOGUE[name] = (builder, forms)
        return builder

    return decorate


def clear_cache() -> None:
    """Empty the series store and zero every builder's hit and miss counts."""
    _STORE.clear()
    for counts in _COUNTS.values():
        counts[:] = [0, 0]


# One step (A_n, a_n, B_n) of a nested sum; see _nested_sum.
_Step = tuple[Iterable[tuple[int, int]], int, tuple[tuple[int, int, int], ...]]


def _nested_sum(order: int, step: Callable[[int], _Step], first: int) -> list[int]:
    """Coefficients 0..order of sum_{n>=first} t_n A_n, by Horner's rule.

    step(n) gives (A_n, a_n, B_n): the addend A_n as (exponent,
    coefficient) pairs in ascending exponent, a shift a_n >= 0 and the
    binomials B_n as (s, e, p), each the factor (1 + s q^e)^p with p = +1
    (multiply) or -1 (divide). The terms are t_n = q^{a_n} B_n t_{n-1}
    from t_{first-1} = 1. Every binomial has constant term 1, so
    low_n = a_first + ... + a_n is the lowest exponent of t_n; the shifts
    must pass order eventually, and the top n is the last with
    low_n <= order. From there down, acc <- q^{a_n} B_n (A_n + acc)
    keeps the order + 1 - low_{n-1} coefficients that t_{n-1} leaves
    room for, so the list grows by a_n a step and step(n) is called
    again rather than kept.
    """
    low = 0
    for stop in count(first):
        shift = step(stop)[1]
        if low + shift > order:
            break
        low += shift
    acc = [0] * (order + 1 - low)
    for n in range(stop - 1, first - 1, -1):
        addend, shift, binomials = step(n)
        width = len(acc)
        for e, c in addend:
            if e >= width:
                break
            acc[e] += c
        for sign, e, power in binomials:
            if power > 0:
                _mul_binomial_inplace(acc, sign, e)
            else:
                _div_binomial_inplace(acc, sign, e)
        _shift_inplace(acc, shift)
    return acc


def _mex_sum(order: int, A: int, a: int, s: int, distinct: bool) -> list[int]:
    """Coefficients 0..order of a + A sum_{k>=1} s^k q^{ka + Ak(k-1)/2} / (-q^a;q^A)_k.

    The denominator is kept on the distinct base only. With s = +1, the
    sum times (-q;q)_inf (distinct) or 1/(q;q)_inf (not) sums mex_{A,a},
    the least absent part = a mod A (Andrews and Newman, 2020), over that
    base: term k counts the partitions holding a, a + A, ..., a + A(k-1).
    """
    # term k is term k-1 times s q^e / (1 + q^e), e = a + A(k-1); no divisor off the distinct base
    step = lambda k, e: (((0, A * s**k),), e, ((1, e, -1),) if distinct else ())
    acc = _nested_sum(order, lambda k: step(k, a + A * (k - 1)), 1)
    acc[0] += a
    return acc


# ----------------------------------------------------------------------
# Ramanujan's sigma and sigma-star


@_builder("sigma", (Form.CANONICAL, Form.ALT1))
def sigma_series(order: int, form: Form = Form.CANONICAL) -> IntSeries:
    """Ramanujan's sigma series, truncated.

    CANONICAL is sum_{n>=0} q^{n(n+1)/2} / (-q;q)_n, ALT1 the m-weighted
    variant sum_{m>=1} m * q^{m(m-1)/2} / (-q;q)_m. Both open as
    1 + q - q^2 + 2q^3 - 2q^4 + q^5 + ...; their equality is one of the
    registered identities.
    """
    if form is Form.CANONICAL:
        return IntSeries._trusted(_mex_sum(order, 1, 1, 1, True))
    # t_m = q^{m(m-1)/2} / (-q;q)_m, ratio q^{m-1} / (1 + q^m)
    return IntSeries._trusted(_nested_sum(order, lambda m: (((0, m),), m - 1, ((1, m, -1),)), 1))


@_builder("sigma-star")
def sigma_star_series(order: int) -> IntSeries:
    """Companion series 2 * sum_{n>=1} (-1)^n q^{n^2} / (q;q^2)_n."""
    # t_n = q^{n^2} / (q;q^2)_n, ratio q^{2n-1} / (1 - q^{2n-1})
    step = lambda n: (((0, 2 * (-1) ** n),), 2 * n - 1, ((-1, 2 * n - 1, -1),))
    return IntSeries._trusted(_nested_sum(order, step, 1))


# ----------------------------------------------------------------------
# distinct-part machinery


def _euler_product(s: int, order: int) -> IntSeries:
    """(q^s;q^s)_inf up to order by Euler's pentagonal theorem, O(order).

    (q;q)_inf = sum_j (-1)^j q^{j(3j-1)/2} over all integers j, so only
    about 2 sqrt(2 order / 3s) coefficients are nonzero, each +1 or -1.
    """
    c = [1] + [0] * order
    for g, sign in _pentagonal(order // s):
        c[s * g] = sign
    return IntSeries._trusted(c)


@_builder()
def partition_gen(order: int) -> IntSeries:
    """1/(q;q)_inf prefix: coefficient n counts all partitions of n.

    The inverse of the sparse pentagonal series: the inversion walks
    O(sqrt(order)) terms per coefficient, O(order^1.5) in all.
    """
    return _euler_product(1, order).invert()


@_builder("distinct")
def distinct_gen(order: int) -> IntSeries:
    """(-q;q)_inf prefix: coefficient n counts partitions of n into distinct parts.

    Built as (q^2;q^2)_inf / (q;q)_inf: the Euler product is sparse, so
    the product with the stored partition_gen takes the sparse loop.
    """
    return _euler_product(2, order) * partition_gen(order)


@_builder("sigma-d-mex", (Form.CANONICAL, Form.ALT1))
def sigma_d_mex_series(order: int, form: Form = Form.CANONICAL) -> IntSeries:
    """Generating function of the mex-sum over distinct-part partitions.

    Both forms are (-q;q)_inf times a sigma form; they differ through
    the inner sum actually evaluated. Coefficient n equals the sum of
    mex over all partitions of n into distinct parts, which the oracle
    checks directly.
    """
    return distinct_gen(order) * sigma_series(order, form)


@_builder("sigma-mex")
def sigma_mex_series(order: int) -> IntSeries:
    """Mex-sum over all partitions: (-q;q)_inf squared.

    The same series counts pairs of distinct-part partitions by total
    weight, which is how the oracle cross-checks it.
    """
    d = distinct_gen(order)
    return d * d


@_builder("a-d", (Form.CANONICAL, Form.ALT1))
def a_d_series(order: int, form: Form = Form.CANONICAL) -> IntSeries:
    """Count of distinct-part partitions with odd mex.

    CANONICAL: (-q;q)_inf * sum_{n>=0} (-1)^n q^{n(n+1)/2} / (-q;q)_n.
    ALT1:      (-q;q)_inf * sum_{n>=0} q^{n(2n+1)} / (-q;q)_{2n+1}.
    """
    if form is Form.CANONICAL:
        inner = _mex_sum(order, 1, 1, -1, True)
    else:
        # t_0 = 1/(1+q), then ratio q^{4n-1} / ((1+q^{2n})(1+q^{2n+1}))
        def step(n: int) -> _Step:
            if n == 0:
                return ((0, 1),), 0, ((1, 1, -1),)
            return ((0, 1),), 4 * n - 1, ((1, 2 * n, -1), (1, 2 * n + 1, -1))

        inner = _nested_sum(order, step, 0)
    return distinct_gen(order) * IntSeries._trusted(inner)


@_builder("sigma-d-moex", (Form.CANONICAL, Form.ALT1, Form.ALT2))
def sigma_d_moex_series(order: int, form: Form = Form.CANONICAL) -> IntSeries:
    """Sum of the smallest odd excludant over distinct-part partitions.

    CANONICAL  (-q;q)_inf * (1 + 2 sum_{n>=1} q^{n^2} / (-q;q^2)_n)
    ALT1       (-q;q)_inf * (1 + 2 sum_{n>=1} (-1)^{n-1} q^n (q^2;q^2)_{n-1})
    ALT2       (-q;q)_inf * (1 + sigma_star(-q))

    ALT2 is CANONICAL under q -> -q, since (-1)^{n+n^2} = 1, so
    canonical-vs-alt2 checks that substitution and both binomial
    kernels; ALT1 is the independent route.
    """
    if form is Form.CANONICAL:
        inner = _mex_sum(order, 2, 1, 1, True)
    else:
        if form is Form.ALT1:
            # t_n = q^n (q^2;q^2)_{n-1}: shift by 1, then a new factor
            # (1 - q^{2(n-1)}) appears for n >= 2
            step = lambda n: (((0, -2 * (-1) ** n),), 1, ((-1, 2 * n - 2, 1),) if n > 1 else ())
            inner = _nested_sum(order, step, 1)
        else:
            star = sigma_star_series(order).coefficients()
            inner = [(-c if j % 2 else c) for j, c in enumerate(star)]  # q -> -q
        inner[0] += 1
    return distinct_gen(order) * IntSeries._trusted(inner)


def _maex_exponents(k: int, order: int) -> Iterator[int]:
    """Exponents m(m+1)/2 + km, m >= 1, of T_k up to order, ascending.

    T_k = sum_{m>=1} q^{m(m+1)/2 + km} counts the m distinct parts
    above a gap at k; its first exponent is k + 1.
    """
    m = 1
    e = 1 + k
    while e <= order:
        yield e
        m += 1
        e = m * (m + 1) // 2 + k * m


@_builder("sigma-d-maex")
def sigma_d_maex_series(order: int) -> IntSeries:
    """Sum of the maximal excludant over distinct-part partitions.

    Double sum  sum_{k>=1} k (-q;q)_{k-1} T_k,  T_k = sum_{m>=1} q^{m(m+1)/2 + km},
    grouping by maex value k and by the number m of parts above the
    gap. As a nested sum t_k = q^k (-q;q)_{k-1}, ratio q (1 + q^{k-1}),
    and A_k = k T_k / q^k, added sparsely: O(order^2). Constant and
    linear coefficients are zero.
    """

    def step(k: int) -> _Step:
        addend = ((e - k, k) for e in _maex_exponents(k, order))
        return addend, 1, ((1, k - 1, 1),) if k > 1 else ()

    return IntSeries._trusted(_nested_sum(order, step, 1))


def _divisor_counts(order: int) -> list[int]:
    """Divisor counts d(0..order), d(0) = 0, by a sieve: O(order log order)."""
    d = [0] * (order + 1)
    for k in range(1, order + 1):
        d[k::k] = [x + 1 for x in d[k::k]]
    return d


@_builder("chern-sigma-maex")
def chern_sigma_maex_series(order: int) -> IntSeries:
    """Sum of the maximal excludant over all partitions.

    Chern ("Partitions and the maximal excludant", 2021) ties it to
    Andrews, Dyson and Hickerson's sigma_star: the sum is
    sigma_L(q) + sigma_star(q) / (2 (q;q)_inf), that is partition_gen
    times sum_n d(n) q^n + sigma_star / 2, one product. Every weight of
    sigma_star is 2 (-1)^n, so the halving is exact.
    """
    star = sigma_star_series(order).coefficients()
    inner = [d + s // 2 for d, s in zip(_divisor_counts(order), star)]
    return partition_gen(order) * IntSeries._trusted(inner)


# ----------------------------------------------------------------------
# refined families and single-statistic slices


# Refined family -> (first index, lowest exponent of slice k). None is
# the family of dcount_series: distinct-part partitions with mex > i.
_FAMILIES: dict[RefinedKind | None, tuple[int, Callable[[int], int]]] = {
    RefinedKind.MEX: (1, lambda m: m * (m - 1) // 2),
    RefinedKind.MOEX: (0, lambda k: k * k),
    RefinedKind.MAEX: (1, lambda k: k + 1),
    None: (0, lambda i: i * (i + 1) // 2),
}


def _slices(
    kind: RefinedKind | None, order: int, start: int = 0
) -> Iterator[tuple[int, int, list[int]]]:
    """Yield (k, low, body) for every slice k >= start of a family nonzero at order.

    Slice k is q^low * body: low is its lowest exponent, body holds its
    coefficients 0..order - low. One running list, cut to the length the
    next slice needs, steps from each slice to the next:

    MEX, None  tail (-q^{k+1};q)_inf: distinct_gen divided by (1 + q^k)
    MOEX       (-q;q)_inf / (-q;q^2)_{k+1}: divided by (1 + q^{2k+1})
    MAEX       prefix (-q;q)_{k-1}: times (1 + q^{k-1}), then added at
               each exponent of T_k

    OMEX has no stream: its slice k is MEX slice 2k+1. Below start the
    list only steps. A body may be the running list itself, so read it
    before the next item.
    """
    first, lowest = _FAMILIES[kind]
    maex = kind is RefinedKind.MAEX
    run = [1] + [0] * order if maex else list(distinct_gen(order).coefficients())
    for k in count(first):
        low = lowest(k)
        if low > order:
            return
        del run[order + 1 - low :]
        if maex:
            if k > 1:
                _mul_binomial_inplace(run, 1, k - 1)
        elif kind is RefinedKind.MOEX:
            _div_binomial_inplace(run, 1, 2 * k + 1)
        elif k:
            _div_binomial_inplace(run, 1, k)
        if k < start:
            continue
        body = run
        if maex:
            body = [0] * len(run)
            for e in _maex_exponents(k, order):
                body[e - low :] = [x + y for x, y in zip(body[e - low :], run)]
        yield k, low, body


def _slice(kind: RefinedKind | None, index: int, order: int) -> IntSeries:
    """Slice index of a family; past the last nonzero slice it is zero at once."""
    first, lowest = _FAMILIES[kind]
    if index < first:
        raise ValueError(f"{kind.value if kind else 'dcount'} slice index must be >= {first}")
    c = [0] * (order + 1)
    if lowest(index) <= order:
        _, low, body = next(_slices(kind, order, index))
        c[low:] = body
    return IntSeries._trusted(c)


@_builder()
def refined_series(order: int, kind: RefinedKind, index: int) -> IntSeries:
    """Distinct-part partitions refined by the value of one statistic.

    MEX m>=1   partitions with mex exactly m:
               q^{m(m-1)/2} (-q^{m+1};q)_inf
    OMEX k>=0  partitions with mex exactly 2k+1:
               q^{k(2k+1)} (-q^{2k+2};q)_inf
    MOEX k>=0  partitions with smallest odd excludant 2k+1:
               q^{k^2} (-q;q)_inf / (-q;q^2)_{k+1}
    MAEX k>=1  partitions with maximal excludant k:
               (-q;q)_{k-1} sum_{m>=1} q^{m(m+1)/2 + km}

    Each slice is one lookup in the running quotients of _slices (OMEX
    slice k is MEX slice 2k+1): a MEX tail is distinct_gen divided by
    one (1 + q^m) per m, O(order) a step, and a slice starting past the
    order is zero without a step. Weighted sums of the slices reproduce
    the aggregate series, which the identity registry checks.
    """
    if not isinstance(kind, RefinedKind):
        raise ValueError(f"unknown refined kind {kind!r}")
    if kind is RefinedKind.OMEX:
        if index < 0:
            raise ValueError("omex slice index must be >= 0")
        return _slice(RefinedKind.MEX, 2 * index + 1, order)
    return _slice(kind, index, order)


@_builder()
def dcount_series(order: int, i: int) -> IntSeries:
    """Distinct-part partitions whose mex exceeds i: q^{i(i+1)/2} (-q^{i+1};q)_inf.

    Equivalently (by removing a staircase) distinct-part partitions of
    n - i(i+1)/2 with every part above i.
    """
    return _slice(None, i, order)


@_builder("a")
def a_series(order: int) -> IntSeries:
    """Count of all partitions of n with odd mex.

    partition_gen times _mex_sum at (1, 1, -1) off the distinct base, the
    theta sum_{k>=0} (-1)^k q^{k(k+1)/2}: a partition with mex m holds
    1..k just when k < m, and sum_{k<m} (-1)^k is 1 for odd m, else 0.
    """
    return partition_gen(order) * IntSeries._trusted(_mex_sum(order, 1, 1, -1, False))


@_builder("sigma-l")
def sigma_L_series(order: int) -> IntSeries:
    """Sum of the largest part over all partitions.

    Conjugation swaps the largest part with the number of parts
    (Andrews, The Theory of Partitions, 1976), so this is the sum of the
    number of parts. The parts equal to k, counted over all partitions,
    have generating function q^k / (1 - q^k) / (q;q)_inf; summed over k
    that is partition_gen times sum_n d(n) q^n, d(n) the divisor count.
    """
    return partition_gen(order) * IntSeries._trusted(_divisor_counts(order))


# ----------------------------------------------------------------------
# catalog for the command line and other callers working from names


def available_series() -> tuple[str, ...]:
    """Catalogued names: those without forms, then those with, each sorted."""
    return tuple(sorted(_CATALOGUE, key=lambda name: (bool(_CATALOGUE[name][1]), name)))


def build_named(name: str, order: int, form: Form = Form.CANONICAL) -> NamedSeries:
    """Build a cataloged series by name; unknown names raise KeyError."""
    if name not in _CATALOGUE:
        raise KeyError(f"no series named {name!r}")
    builder, forms = _CATALOGUE[name]
    if not forms and form is not Form.CANONICAL:
        raise _bad_form(name, form)
    return NamedSeries(name, form, builder(order, form) if forms else builder(order))
