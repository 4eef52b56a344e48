"""Generating functions for excludant statistics of partitions.

Each builder returns an IntSeries of exactly the requested order with
exact integer coefficients. Several families come in more than one
closed form (Form.CANONICAL, Form.ALT1, ...); the forms are computed
through genuinely different formulas and are compared coefficientwise
by the identity registry, so a bug in one route shows up as a mismatch
rather than silently agreeing with itself.

Every q-hypergeometric sum, sum_{n>=1} w_n t_n with a constant weight
w_n and the ratio t_n / t_{n-1} a monomial over one or two binomial
divisors, runs through one kernel, _nested_sum, by Horner's rule from
the innermost term out: O(N) list work a step on a window of the
coefficients the outer terms can still reach. Five of those are one
residue-class mex sum, _mex_sum, of Andrews and Newman's mex_{A,1}:
sigma, the inner sums of a-d and sigma-d-moex, and the sparse factors
of a and sigma-mex. The one sum whose steps multiply, sigma-d-moex
ALT1 with ratio q (1 - q^{2n-2}), runs the same Horner steps on one
packed int (_moex_alt1_sum), q^0 in the top slot so the product by q is
free, and each factor one rounded shift and one subtraction: every
state is a sum of at most N + 1 terms +-2 q^a prod (1 - q^{2j}) over
distinct j, whose coefficients are signed counts of partitions of at
most N/2 into distinct parts, so slots of 2 (N + 1) Q(N/2) hold them
and every shift is exact. The maex sum over distinct parts is no such
sum: it runs forward over the number of parts, two divisions a step.

The slices of the refined families come from one running quotient per
family (_slices), one int packed as series._pack packs, q^d in slot
order - d: a mex tail (-q^{m+1};q)_inf is the previous one divided by
(1 + q^m), O(log(order/m)) shifts and adds, each exact since every
coefficient on the way is at most Q(n) <= e^{pi sqrt(n/3)} in absolute
value (series._slot_bytes). The identity registry's slice sums
(_sliced) add weight times each body into one int and unpack it once.

1/(q;q)_inf is stored once (partition_gen), the inverse of a series
that Euler's pentagonal theorem makes sparse (_euler_product);
(-q;q)_inf, the factor most builders end with, is (q^2;q^2)_inf times
it, and the mex sum over all partitions is it times Gauss's psi, both
sparse products. The largest-part sum is the divisor-count series
divided by that sparse series, and the maex sum over all partitions
that plus sigma_star / 2 divided by it (Chern, 2021): one
series._sparse_quotient each, with no dense product.

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
from itertools import count, islice, takewhile
from math import isqrt
from typing import Callable, Iterator, NamedTuple

from .partitions import _pentagonal
from .series import (
    INFINITE,
    IntSeries,
    _div_binomial_inplace,
    _mul_binomial_inplace,  # not called here; perfbench/tracing.py patches it by name (ROADMAP item 1)
    _pack,
    _shift_inplace,
    _shift_round,
    _slot_bytes,
    _sparse_quotient,
    _unpack,
    poch,
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
# take 0.45-0.66 s (sigma-d-moex alt1, median 0.50 s against 0.57 s for
# the list Horner in the same runs), 0.13-0.20 s (sigma-d-maex), 0.02 s
# (sigma-star) and at most 0.25 s for every other route, sigma-mex
# 0.13 s, sigma-l 0.09 s and chern-sigma-maex 0.12 s among them (median
# of 8 fresh processes each, 2-core x86-64 VM shared with other work,
# Python 3.11). sigma-d-moex alt1 stays O(N^2): about N/3 of its Horner
# steps shift one packed int of up to N + 1 slots, each slot wide enough
# for 2 (N + 1) Q(N // 2), the bound _moex_alt1_sum proves.
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


# One step (w_n, a_n, D_n) of a nested sum; see _nested_sum.
_Step = tuple[int, int, tuple[tuple[int, int], ...]]


def _nested_sum(order: int, step: Callable[[int], _Step]) -> list[int]:
    """Coefficients 0..order of sum_{n>=1} w_n t_n, by Horner's rule.

    step(n) gives (w_n, a_n, D_n): the weight w_n, a shift a_n >= 0 and
    the divisors D_n as (s, e), each a binomial 1 + s q^e. The terms
    are t_n = q^{a_n} t_{n-1} / prod D_n from t_0 = 1. Every divisor
    has constant term 1, so low_n = a_1 + ... + a_n is the lowest
    exponent of t_n; the shifts must pass order eventually, and the top
    n is the last with low_n <= order. From there down,
    acc <- q^{a_n} (w_n + acc) / prod D_n keeps the order + 1 - low_{n-1}
    coefficients that t_{n-1} leaves room for, so the list grows by a_n
    a step and step(n) is called again rather than kept.
    """
    low = 0
    for stop in count(1):
        shift = step(stop)[1]
        if low + shift > order:
            break
        low += shift
    acc = [0] * (order + 1 - low)
    for n in range(stop - 1, 0, -1):
        weight, shift, divisors = step(n)
        acc[0] += weight
        for sign, e in divisors:
            _div_binomial_inplace(acc, sign, e)
        _shift_inplace(acc, shift)
    return acc


def _moex_alt1_sum(order: int) -> list[int]:
    """Coefficients 0..order of 2 sum_{n>=1} (-1)^{n-1} q^n (q^2;q^2)_{n-1}, the sigma-d-moex ALT1 inner sum.

    Horner's rule from n = order down: A_n = q (1 - q^{2n-2}) (w_n + A_{n+1}),
    w_n = 2 (-1)^{n-1}, A_{order+1} = 0, and the sum is A_1. A_{n+1} has
    no constant term, so the coefficient of q in A_n is w_n and A_n has
    its sign. The loop carries B_n = (-1)^{n-1} A_n, which is positive:
    B_n = q (1 - q^{2n-2}) (2 - B_{n+1}) and B_1 = A_1. series._shift_round
    reads the rounding bit by an &, which reads only the low bits of a
    positive int but copies a negative one whole.

    acc packs B as series._pack does, q^0 in the top slot of a window of
    the order + 1 - n coefficients the outer terms leave room for, so the
    product by q, one more slot, is free: step n replaces acc by 2 - acc,
    the 2 in the top slot, and subtracts it shifted right by 2n - 2
    slots, which drops the terms past the window. Steps with
    3n >= order + 4 shift past the window and only reflect, so their
    tail [0, 2, -2, 2, ...] is packed at once.

    Every shift is exact. Each state of acc, before or after a step's
    product, truncates a sum of at most order + 1 terms
    +-2 q^a prod_j (1 - q^{2j}) over distinct j. The coefficient of
    q^{2k} in each product is a signed count of partitions of k into
    distinct parts, at most Q(k) <= Q(order // 2), since 2k <= order. So
    every slot is at most 2 (order + 1) Q(order // 2) < 2^(8w-1) at
    w = _slot_bytes(order // 2, 2 (order + 1)), and series._shift_round
    drops each slot exactly.
    """
    w = _slot_bytes(order // 2, 2 * (order + 1))
    bits = 8 * w
    n0 = min(-(-(order + 4) // 3), order + 1)  # steps n >= n0 only reflect
    acc = _pack([0] + [2 - 4 * (j % 2) for j in range(order + 1 - n0)], w)
    for n in range(n0 - 1, 0, -1):
        acc = (2 << bits * (order - n)) - acc
        if n > 1:
            acc -= _shift_round(acc, bits * (2 * n - 2))
    return _unpack(acc, order + 1, w)


def _mex_sum(order: int, A: int, s: int, distinct: bool) -> list[int]:
    """Coefficients 0..order of 1 + A sum_{k>=1} s^k q^{k + Ak(k-1)/2} / (-q;q^A)_k.

    The denominator is kept on the distinct base only. With s = +1, the
    sum times (-q;q)_inf (distinct) or 1/(q;q)_inf (not) sums mex_{A,1},
    the least absent part = 1 mod A (Andrews and Newman, 2020), over that
    base: term k counts the partitions holding 1, 1 + A, ..., 1 + A(k-1).
    """
    # term k is term k-1 times s q^e / (1 + q^e), e = 1 + A(k-1); no divisor off the distinct base
    step = lambda k, e: (A * s**k, e, ((1, e),) if distinct else ())
    acc = _nested_sum(order, lambda k: step(k, 1 + A * (k - 1)))
    acc[0] += 1
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
        return IntSeries._trusted(_mex_sum(order, 1, 1, True))
    # t_m = q^{m(m-1)/2} / (-q;q)_m, ratio q^{m-1} / (1 + q^m)
    return IntSeries._trusted(_nested_sum(order, lambda m: (m, m - 1, ((1, m),))))


@_builder("sigma-star")
def sigma_star_series(order: int) -> IntSeries:
    """Companion series 2 * sum_{n>=1} (-1)^n q^{n^2} / (q;q^2)_n."""
    # t_n = q^{n^2} / (q;q^2)_n, ratio q^{2n-1} / (1 - q^{2n-1})
    step = lambda n: (2 * (-1) ** n, 2 * n - 1, ((-1, 2 * n - 1),))
    return IntSeries._trusted(_nested_sum(order, step))


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

    The inverse of the sparse pentagonal series: IntSeries.invert takes
    series._sparse_quotient with numerator 1, two plain sums of
    O(sqrt(order)) terms per coefficient, O(order^1.5) in all.
    sigma_L_series and chern_sigma_maex_series divide their numerators
    by the same pentagonal series, one such quotient each.
    """
    return _euler_product(1, order).invert()


@_builder()
def _odd_parts_product(order: int) -> IntSeries:
    """(q;q^2)_inf prefix by poch; its inverse counts partitions into odd parts."""
    return poch(-1, 1, 2, INFINITE, order)


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
    """Mex-sum over all partitions: partition_gen times Gauss's psi.

    A partition with mex m holds 1..k just when k < m, so the sum is
    sum_{k>=0} q^{k(k+1)/2} / (q;q)_inf (Andrews and Newman), psi(q)
    times partition_gen: _mex_sum at (1, +1) off the distinct base, a
    sparse operand as in a_series. By Gauss it equals (-q;q)_inf
    squared, which counts pairs of distinct-part partitions by total
    weight; that is how the oracle and the tests cross-check it.
    """
    return partition_gen(order) * IntSeries._trusted(_mex_sum(order, 1, 1, False))


@_builder("a-d", (Form.CANONICAL, Form.ALT1))
def a_d_series(order: int, form: Form = Form.CANONICAL) -> IntSeries:
    """Count of distinct-part partitions with odd mex.

    CANONICAL: (-q;q)_inf * sum_{n>=0} (-1)^n q^{n(n+1)/2} / (-q;q)_n.
    ALT1:      (-q;q)_inf * sum_{n>=0} q^{n(2n+1)} / (-q;q)_{2n+1}.
    """
    if form is Form.CANONICAL:
        inner = _mex_sum(order, 1, -1, True)
    else:
        # t_n = q^{n(2n+1)} / (-q^2;q)_{2n}, ratio q^{4n-1} / ((1+q^{2n})(1+q^{2n+1})); then
        # (1 + sum_{n>=1} t_n) / (1 + q) is the sum over q^{n(2n+1)} / (-q;q)_{2n+1}
        inner = _nested_sum(order, lambda n: (1, 4 * n - 1, ((1, 2 * n), (1, 2 * n + 1))))
        inner[0] += 1
        _div_binomial_inplace(inner, 1, 1)
    return distinct_gen(order) * IntSeries._trusted(inner)


@_builder("sigma-d-moex", (Form.CANONICAL, Form.ALT1, Form.ALT2))
def sigma_d_moex_series(order: int, form: Form = Form.CANONICAL) -> IntSeries:
    """Sum of the smallest odd excludant over distinct-part partitions.

    CANONICAL  (-q;q)_inf * (1 + 2 sum_{n>=1} q^{n^2} / (-q;q^2)_n)
    ALT1       (-q;q)_inf * (1 + 2 sum_{n>=1} (-1)^{n-1} q^n (q^2;q^2)_{n-1})
    ALT2       (-q;q)_inf * (1 + sigma_star(-q))

    ALT2 is CANONICAL under q -> -q, since (-1)^{n+n^2} = 1, so
    canonical-vs-alt2 checks that substitution and both binomial
    kernels; ALT1 is the independent route, O(N^2): its inner sum is
    Horner's rule on one packed int (_moex_alt1_sum). Each accumulator
    state is at most N + 1 terms +-2 q^a prod_j (1 - q^{2j}) over
    distinct j; the coefficient of q^{2k} in each product is a signed
    count of partitions of k <= N/2 into distinct parts, so every
    coefficient is at most 2 (N + 1) Q(N // 2), the slots hold it
    (_slot_bytes(N // 2, 2 (N + 1))), and every rounded shift is exact.
    """
    if form is Form.CANONICAL:
        inner = _mex_sum(order, 2, 1, True)
    else:
        if form is Form.ALT1:
            inner = _moex_alt1_sum(order)
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

    Grouped by the number s of parts: sum_{s>=1} q^{s(s+1)/2} Z_s with
    W_s = 1/(q;q)_s and Z_s = (Z_{s-1} + W_s - 1) / (1 - q^s), Z_0 = 0.
    An s-part partition is the staircase plus mu, at most s parts: maex = L - r, L = s + mu_1,
    and the top run r >= k just when mu_1 = ... = mu_k. Conjugation (Andrews, 1976) gives
    Z_s = s W_s + W_s sum_{i<=s} q^i/(1-q^i) - sum_{k<=s} 1/(q^k;q)_{s-k+1}, which telescopes.
    Two divisions a step on a list cut to the order + 1 - s(s+1)/2
    coefficients the term reaches: O(order^1.5).
    """
    total = [0] * (order + 1)
    w = [1] + [0] * order  # W_s
    z = [0] * (order + 1)  # Z_s
    for s in count(1):
        low = s * (s + 1) // 2
        if low > order:
            break
        del w[order + 1 - low :]
        _div_binomial_inplace(w, -1, s)
        z = [a + b for a, b in zip(z, w)]  # cut to w's length
        z[0] -= 1
        _div_binomial_inplace(z, -1, s)
        total[low:] = [a + b for a, b in zip(total[low:], z)]
    return IntSeries._trusted(total)


def _divisor_counts(order: int) -> list[int]:
    """Divisor counts d(0..order), d(0) = 0, by a sieve over k <= sqrt(order).

    Each n = k m with k < m has the divisors k and m, and n = k^2 the
    one divisor k: 2 at k (k + 1), k (k + 2), ... and 1 at k^2, about
    sqrt(order) slice adds, O(order log order) entries in all.
    """
    d = [0] * (order + 1)
    for k in range(1, isqrt(order) + 1):
        d[k * k] += 1
        d[k * (k + 1) :: k] = [x + 2 for x in d[k * (k + 1) :: k]]
    return d


@_builder("chern-sigma-maex")
def chern_sigma_maex_series(order: int) -> IntSeries:
    """Sum of the maximal excludant over all partitions.

    Chern ("Partitions and the maximal excludant", 2021) ties it to
    Andrews, Dyson and Hickerson's sigma_star: the sum is
    sigma_L(q) + sigma_star(q) / (2 (q;q)_inf), that is
    sum_n d(n) q^n + sigma_star / 2 over the sparse pentagonal series,
    one _sparse_quotient. Every weight of sigma_star is 2 (-1)^n, so the
    halving is exact.
    """
    star = sigma_star_series(order).coefficients()
    inner = [d + s // 2 for d, s in zip(_divisor_counts(order), star)]
    return IntSeries._trusted(_sparse_quotient(inner, _euler_product(1, order).coefficients()))


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
    kind: RefinedKind | None, order: int, w: int, start: int = 0
) -> Iterator[tuple[int, int, int]]:
    """Yield (k, low, body) for every slice k >= start of a family nonzero at order.

    low is the lowest exponent of slice k, and body packs the slice as
    series._pack does, q^d in slot order - d of w bytes. One
    running int steps from each slice to the next, first shifted right
    by the step of low, which drops the terms past q^order:

    MEX, None  tail q^low (-q^{k+1};q)_inf: divided by (1 + q^k)
    MOEX       q^low (-q;q)_inf / (-q;q^2)_{k+1}: divided by (1 + q^{2k+1})
    MAEX       prefix q^low (-q;q)_{k-1}: times (1 + q^{k-1}); the body is
               it plus it shifted to each later exponent of T_k

    A division by 1 + x, x = q^m, is a product by 1 - x, then by
    (1 + x^2)(1 + x^4)... = 1/(1 - x^2) while x^(2^i) stays within the
    order: O(log(order / m)) shifts and adds. Each partial quotient is
    the new tail times 1 - x^(2^i), so its signed coefficients are at
    most Q(n) < 2^(8w-1) at w >= _slot_bytes(order, 1), and its shifts,
    rounded to nearest by series._shift_round, are exact; every other
    int holds counts, and its floor shifts are. OMEX has no stream: its
    slice k is MEX slice 2k+1. Below start the int only steps.
    """
    first, lowest = _FAMILIES[kind]
    maex = kind is RefinedKind.MAEX
    bits = 8 * w
    run = 1 << bits * order if maex else _pack(distinct_gen(order).coefficients(), w)
    done = 0  # the lowest exponent run is shifted to
    for k in count(first):
        low = lowest(k)
        if low > order:
            return
        run >>= bits * (low - done)
        done = low
        m = k - 1 if maex else 2 * k + 1 if kind is RefinedKind.MOEX else k
        if maex and m:
            run += run >> bits * m
        elif m:
            # times 1 - x, then (1 + x^2)(1 + x^4)... = 1 / (1 - x^2)
            run -= _shift_round(run, bits * m)
            s = 2 * m
            while s <= order - low:
                run += _shift_round(run, bits * s)
                s *= 2
        if k < start:
            continue
        body = run
        if maex:
            for e in islice(_maex_exponents(k, order), 1, None):  # the first is low itself
                body += run >> bits * (e - low)
        yield k, low, body


def _slice_lists(kind: RefinedKind | None, order: int, start: int = 0) -> Iterator[tuple[int, int, list]]:
    """(k, low, coefficients 0..order - low of slice k / q^low) of _slices for every k >= start.

    The stream runs at _slot_bytes(order, 1), which holds one slice and every step; q^low tops each body.
    """
    w = _slot_bytes(order, 1)
    for k, low, body in _slices(kind, order, w, start):
        yield k, low, _unpack(body, order + 1 - low, w)


def _sliced(kind: RefinedKind | None, weight: Callable[[int], int]) -> Callable[[int], IntSeries]:
    """sum_k weight(k) * slice k of a family (None: the mex > i tails of dcount_series).

    Every slice of _slices nonzero at the order, unless its weight is 0,
    is added as weight(k) * body into one int, with no shift since every
    body holds q^d in slot order - d, and series._unpack reads its
    order + 1 slots once, q^0 first: a route apart from the aggregate
    builders, which sum q-series terms and multiply. The slots hold
    sum |weight(k)| Q(order) over every k whose slice starts at or below
    the order (_slot_bytes), which bounds the total and every step.
    """

    def build(order: int) -> IntSeries:
        first, lowest = _FAMILIES[kind]
        weights = [weight(k) for k in takewhile(lambda k: lowest(k) <= order, count(first))]
        w = _slot_bytes(order, sum(map(abs, weights)))
        total = 0
        for k, _, body in _slices(kind, order, w):
            if weights[k - first]:
                total += weights[k - first] * body
        return IntSeries._trusted(_unpack(total, order + 1, w))

    return build


def _slice(kind: RefinedKind | None, index: int, order: int) -> IntSeries:
    """Slice index of a family, read by _slice_lists at one slice's width; zero at once past the last."""
    first, lowest = _FAMILIES[kind]
    if index < first:
        raise ValueError(f"{kind.value if kind else 'dcount'} slice index must be >= {first}")
    if lowest(index) > order:
        return IntSeries._trusted([0] * (order + 1))
    _, low, body = next(_slice_lists(kind, order, index))
    return IntSeries._trusted([0] * low + body)


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

    Slice k takes about k steps of one running quotient of _slices, each
    a few big-int shifts and adds on the packed coefficients (a division
    by (1 + q^m) takes O(log(order / m)) of them), then one unpack; a
    slice starting past the order is zero without a step. OMEX slice k
    is MEX slice 2k+1, and a MEX tail is distinct_gen divided by one
    (1 + q^m) per m. Weighted sums of the slices reproduce the aggregate
    series, which the registry checks.
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

    partition_gen times _mex_sum at (1, -1) off the distinct base, the
    theta sum_{k>=0} (-1)^k q^{k(k+1)/2}: a partition with mex m holds
    1..k just when k < m, and sum_{k<m} (-1)^k is 1 for odd m, else 0.
    """
    return partition_gen(order) * IntSeries._trusted(_mex_sum(order, 1, -1, False))


@_builder("sigma-l")
def sigma_L_series(order: int) -> IntSeries:
    """Sum of the largest part over all partitions.

    Conjugation swaps the largest part with the number of parts
    (Andrews, The Theory of Partitions, 1976), so this is the sum of the
    number of parts. The parts equal to k, counted over all partitions,
    have generating function q^k / (1 - q^k) / (q;q)_inf; summed over k
    that is sum_n d(n) q^n, d(n) the divisor count, over the sparse
    pentagonal series: one _sparse_quotient.
    """
    return IntSeries._trusted(_sparse_quotient(_divisor_counts(order), _euler_product(1, order).coefficients()))


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
