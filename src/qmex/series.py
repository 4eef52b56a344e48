"""Exact truncated power series in one variable over the integers.

The carrier type is :class:`IntSeries`, a fixed-order prefix

    c_0 + c_1 q + c_2 q^2 + ... + c_N q^N

of a formal power series with arbitrary-precision integer coefficients.
All arithmetic is exact. Binary operations truncate to the smaller
operand order instead of padding with zeros, so a truncation artifact
can never masquerade as a genuine coefficient.

Products have one kernel per shape behind IntSeries.__mul__. When one
operand is sparse (a theta-like sum, a pentagonal product), one slice
update per nonzero entry costs O(nnz * N). Otherwise Kronecker
substitution packs each operand into one integer, multiplies the two
integers once, and reads the coefficients back from the digits of the
product. Small operands are packed in bytes by _pack and _unpack, the
slot codec the slice streams of qmex.qfunctions share, and multiplied
by CPython's Karatsuba; from about 30,000 packed decimal digits they
are packed in decimal digits and multiplied by the number-theoretic
transform of the stdlib decimal module (libmpdec), with every rounding
trapped.

Unbounded q-Pochhammer style products are handled by :func:`poch`,
which simply omits factors whose lowest exponent exceeds the truncation
order. Such a factor is 1 + O(q^{N+1}) and cannot change any retained
coefficient, so the truncated product is still exact. poch and the
slice streams keep a series in one frame of that codec, q^d in slot
N - d of w bytes: a product by q^e is a right shift by e slots, which
drops the terms past q^N with no mask, rounded to nearest by
_shift_round, exact while no slot exceeds in absolute value the count
Q(n) <= e^{pi sqrt(n/3)} of distinct partitions of n <= N (_slot_bytes).

IntSeries.invert walks the recurrence over the support of the series
while it has at most _sparse_cutoff(N) nonzero entries, the rule of the
product kernels, and otherwise runs Newton's iteration
g <- g - g (f g - 1), which doubles the precision of g with two
products through IntSeries.__mul__.
"""

from __future__ import annotations

import math
import sys
from operator import add, sub
from typing import Iterable, Sequence

# Sentinel accepted by poch() for an unbounded product.
INFINITE = None


class NumericalIntegrityError(ArithmeticError):
    """An internal consistency bound was violated at evaluation time."""


class IntSeries:
    """A truncated formal power series with exact integer coefficients.

    Instances are immutable and hashable. Index n of the coefficient
    tuple holds the coefficient of q^n; the truncation order is the
    largest retained exponent. Reading past the order raises instead of
    returning 0, because a coefficient beyond the truncation is simply
    unknown.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise ValueError("a series needs at least the q^0 coefficient")
        for c in cs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficients must be int, got {type(c).__name__}")
        self._coeffs = cs

    @classmethod
    def _trusted(cls, coeffs: Iterable[int]) -> "IntSeries":
        """Wrap a non-empty int list the package computed itself, unchecked.

        Kernel results and stored prefixes come from int arithmetic on
        checked series, so re-checking every coefficient only costs time.
        Outside input goes through IntSeries().
        """
        s = object.__new__(cls)
        s._coeffs = tuple(coeffs)
        return s

    @property
    def order(self) -> int:
        """Largest exponent whose coefficient is retained."""
        return len(self._coeffs) - 1

    def coefficients(self) -> tuple[int, ...]:
        """All retained coefficients, lowest exponent first."""
        return self._coeffs

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(
                f"coefficient {n} is outside the retained range 0..{self.order}"
            )
        return self._coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        if len(self._coeffs) <= 8:
            return f"IntSeries({list(self._coeffs)})"
        head = ", ".join(str(c) for c in self._coeffs[:8])
        return f"IntSeries([{head}, ...], order={self.order})"

    # ------------------------------------------------------------------
    # ring operations

    def __neg__(self) -> "IntSeries":
        return IntSeries._trusted([-c for c in self._coeffs])

    def __add__(self, other: "IntSeries") -> "IntSeries":
        if not isinstance(other, IntSeries):
            return NotImplemented
        return IntSeries._trusted(map(add, self._coeffs, other._coeffs))

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        if not isinstance(other, IntSeries):
            return NotImplemented
        return IntSeries._trusted(map(sub, self._coeffs, other._coeffs))

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        """Cauchy product truncated to the smaller operand order N.

        Two kernels give the same coefficients, chosen by one fixed rule
        on the sparser operand. With at most _sparse_cutoff(N) = 24 + N // 20
        nonzero entries (the measured crossover), one slice update per
        entry costs O(nnz * N) coefficient operations. Otherwise the
        product is one big-integer multiplication by Kronecker
        substitution, in bytes below _DECIMAL_MIN_DIGITS packed decimal
        digits and in decimal digits by libmpdec from there; see
        _kronecker_mul.
        """
        if not isinstance(other, IntSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a = self._coeffs[: n + 1]
        b = other._coeffs[: n + 1]
        na = n + 1 - a.count(0)
        nb = n + 1 - b.count(0)
        if na > nb:
            a, b, na = b, a, nb
        if na <= _sparse_cutoff(n):
            return IntSeries._trusted(_sparse_mul(a, b, n))
        return IntSeries._trusted(_kronecker_mul(a, b, n))

    def invert(self) -> "IntSeries":
        """Multiplicative inverse as a truncated series.

        Over the integers this exists exactly when the constant term is
        +1 or -1; anything else raises ValueError. With at most
        _sparse_cutoff(N) nonzero entries (the rule of __mul__; the
        measured crossover against Newton lies between one and two times
        it for random +-1 series at orders 300-2000, 2-core x86-64 VM,
        Python 3.11) the standard recurrence
        g_n = -(1/f_0) * sum_{i>=1} f_i g_{n-i} runs over the nonzero
        support of f: O(nnz * N) interpreted steps. A denser f is
        inverted by Newton's iteration: if g is the inverse to order p,
        f g - 1 = q^{p+1} E, and g - q^{p+1} g E is the inverse to order
        2p + 1. Each step is two products through __mul__, f g and the
        low coefficients of g times E, and the orders double up to N, so
        the whole inverse costs a few products of order N.
        """
        c0 = self._coeffs[0]
        if c0 not in (1, -1):
            raise ValueError(
                "series is invertible over the integers only when the "
                f"constant term is +1 or -1, got {c0}"
            )
        n = self.order
        cs = self._coeffs
        support = [i for i in range(1, n + 1) if cs[i]]
        if len(support) + 1 > _sparse_cutoff(n):
            return IntSeries._trusted(_newton_invert(cs))
        g = [0] * (n + 1)
        g[0] = c0  # 1/c0 == c0 for units of Z
        for m in range(1, n + 1):
            acc = 0
            for i in support:
                if i > m:
                    break
                acc += cs[i] * g[m - i]
            if acc:
                g[m] = -c0 * acc
        return IntSeries._trusted(g)

    def eval_at(self, x: float) -> float:
        """Evaluate the truncated polynomial at a float point in (0, 1).

        Horner from the highest index down. Each int-to-float conversion
        is correctly rounded, so the result is faithful to float
        precision for any coefficient that fits in a float exponent.
        The open-interval restriction keeps the tail of the underlying
        series decaying, which is what makes the prefix meaningful.
        A coefficient beyond float range raises NumericalIntegrityError
        naming its index; a value that overflows to infinity raises it too.
        """
        if not 0.0 < x < 1.0:
            raise ValueError("evaluation point must lie in the open interval (0, 1)")
        acc = 0.0
        for n in range(self.order, -1, -1):
            try:
                acc = acc * x + self._coeffs[n]
            except OverflowError:
                raise NumericalIntegrityError(
                    f"coefficient {n} does not fit in a float"
                ) from None
        if math.isinf(acc):
            raise NumericalIntegrityError(f"value at {x!r} overflows float range")
        return acc


# ----------------------------------------------------------------------
# module-level constructors and the product builder


def one(order: int) -> IntSeries:
    if order < 0:
        raise ValueError("order must be non-negative")
    return IntSeries._trusted([1] + [0] * order)


def poch(sign: int, a: int, step: int, count: int | None, order: int) -> IntSeries:
    """Truncated product of binomial factors (1 + sign * q^{a + k*step}).

    k runs over 0 <= k < count; pass INFINITE (None) for an unbounded
    product. Factors whose exponent exceeds the truncation order are
    omitted, which is exact at this order. sign must be +1 or -1, a
    positive, step positive.

    poch(-1, 1, 1, INFINITE, N) is the Euler product (q; q)_N prefix,
    poch(+1, 1, 1, INFINITE, N) its two-line relative (-q; q)_N, whose
    coefficients count partitions into distinct parts.

    The running product is one int in that frame, w = _slot_bytes(N, 1).
    Times 1 + sign * q^e it gains or loses itself shifted right by e
    slots. Each partial product is a product of binomials with distinct
    exponents, so its coefficients are signed counts of partitions into
    distinct parts, and _shift_round is exact; with sign +1 they are
    non-negative and the floor alone is.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if a < 1:
        raise ValueError("base exponent must be a positive integer")
    if step < 1:
        raise ValueError("step must be a positive integer")
    if order < 0:
        raise ValueError("order must be non-negative")
    if count is not None and count < 0:
        raise ValueError("count must be non-negative or INFINITE")
    stop = order + 1 if count is None else min(order + 1, a + count * step)
    w = _slot_bytes(order, 1)
    bits = 8 * w
    run = 1 << bits * order
    for e in range(a, stop, step):
        if sign > 0:
            run += run >> bits * e
        else:
            run -= _shift_round(run, bits * e)
    return IntSeries._trusted(_unpack(run, order + 1, w)[::-1])


def _newton_invert(cs: Sequence[int]) -> list[int]:
    """1/f for coefficients cs of f with cs[0] = +-1, by Newton's iteration.

    g holds the inverse to order p; f g = 1 + q^{p+1} E at order k <= 2p + 1,
    and g - q^{p+1} g E is the inverse to order k. The orders run
    N >> i up to N. Both products go through IntSeries.__mul__, so each
    picks its own kernel.
    """
    n = len(cs) - 1
    orders = []
    while n:
        orders.append(n)
        n //= 2
    g = [cs[0]]
    for k in reversed(orders):
        p = len(g) - 1
        fg = IntSeries._trusted(cs[: k + 1]) * IntSeries._trusted(g + [0] * (k - p))
        ge = IntSeries._trusted(g[: k - p]) * IntSeries._trusted(fg._coeffs[p + 1 :])
        g += [-c for c in ge._coeffs]
    return g


# ----------------------------------------------------------------------
# product kernels behind IntSeries.__mul__
#
# Each takes two coefficient tuples of length n+1 and returns the n+1
# retained coefficients of their product as a list.


def _sparse_cutoff(n: int) -> int:
    """Most nonzero entries of the sparser operand for which _sparse_mul runs.

    The crossover measured against _kronecker_mul, a random +-1 operand
    times (-q;q)_inf, lies near 30 nonzero entries at order 100, 55 at
    500, 85 at 1000, 150 at 2000, 235 at 4000 and 290-320 at 6000-8000
    (2-core x86-64 VM, Python 3.11). It bends below linear because the
    decimal branch of _kronecker_mul grows as n log n above its size rule.
    """
    return 24 + n // 20


def _sparse_mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Schoolbook product over the support of a: O(nnz(a) * n).

    Each nonzero a_i adds a_i * b to out[i:] as one slice update; the
    common +-1 entries add or subtract b without multiplying.
    """
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai == 1:
            out[i:] = map(add, out[i:], b)
        elif ai == -1:
            out[i:] = map(sub, out[i:], b)
        elif ai:
            out[i:] = map(add, out[i:], map(ai.__mul__, b))
    return out


# Fewest packed decimal digits of one operand, n+1 slots of d digits,
# for which _kronecker_mul multiplies in decimal. Measured on the operand
# pairs of the catalogued routes at orders 500-2000 (2-core x86-64 VM,
# Python 3.11): decimal took 1.0-1.8x the binary time up to about 27,000
# digits and 0.45-0.95x from 31,000 on, apart from two pairs near
# 41,000-43,000 digits (1.1x).
_DECIMAL_MIN_DIGITS = 30_000


def _kronecker_mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Product by Kronecker substitution: one big-integer multiplication.

    Each of the 2n+1 coefficients of the full product is a sum of at
    most n+1 terms, so its absolute value is at most
    bound = (n+1) max|a| max|b|. A series c evaluates at a power X of
    the radix to one integer, and the product of two such integers holds
    the product coefficients in its base-X digits as long as every slot
    holds a coefficient plus a bias h in [0, X).

    Operands of at least _DECIMAL_MIN_DIGITS packed decimal digits go to
    _decimal_kronecker, whose number-theoretic transform beats CPython's
    Karatsuba there. A slot of more digits than the interpreter's int/str
    conversion limit stays binary, since the decimal branch converts each
    slot through str. Every other product is packed in bytes, as follows.

    With slots of w bytes such that bound < h = 2^(8w-1), X = 2^(8w),
    _pack packs both operands and _unpack reads the product mod
    X^(n+1): every retained |c| < h, and the slots at and above n+1 are
    multiples of X^(n+1), which vanish whatever their sign. Both are
    linear; the multiplication is CPython's Karatsuba, which squares
    when both operands are equal.
    """
    bound = (n + 1) * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return [0] * (n + 1)
    # d decimal digits with 10^(d-1) > 2^bit_length > bound (0.30103 > log10 2)
    d = bound.bit_length() * 30103 // 100000 + 2
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if (n + 1) * d >= _DECIMAL_MIN_DIGITS and (not limit or d <= limit):
        return _decimal_kronecker(a, b, n, d)
    w = bound.bit_length() // 8 + 1
    x = _pack(a, w)
    y = x if a == b else _pack(b, w)
    return _unpack(x * y, n + 1, w)


def _slot_bytes(order: int, weight_total: int) -> int:
    """Bytes w of a signed slot for sums of distinct-part counts of n <= order.

    A count of partitions of some n <= order into distinct parts is at
    most Q(n) <= e^{pi sqrt(n/3)}: at x = e^{-t},
    Q(n) x^n <= (-x;x)_inf <= e^{pi^2/12t}, and t = pi/sqrt(12n) gives
    the bound. It bounds every coefficient of a poch product, partial
    products included, and of a slice of qmex.qfunctions; a sum of
    weight(k) times slice k is at most weight_total = sum |weight(k)|
    times it. One more bit for the sign and one spare keep it below the
    2^(8w-1) that _unpack reads.
    """
    bits = math.ceil(math.pi * math.sqrt(order / 3) / math.log(2)) + weight_total.bit_length() + 2
    return -(-bits // 8)


def _shift_round(x: int, bits: int) -> int:
    """x / 2^bits rounded to nearest, halves up: the floor plus bit bits - 1 of x.

    With bits = 8ws it drops s slots, exactly while each is in (-h, h),
    h = 2^(8w-1); the floor is one off when the dropped part is < 0.
    """
    shifted = x >> bits
    if x & (1 << bits - 1):
        shifted += 1
    return shifted


def _pack(cs: Sequence[int], w: int) -> int:
    """c_j in [-h, h), h = 2^(8w-1), as sum c_j X^j with X = 2^(8w): slot j of w bytes.

    h goes into every slot, which keeps each in [0, X), and comes off once as an int.
    """
    h = 1 << (8 * w - 1)
    packed = b"".join([(c + h).to_bytes(w, "little") for c in cs])
    return int.from_bytes(packed, "little") - int.from_bytes(h.to_bytes(w, "little") * len(cs), "little")


def _unpack(packed: int, length: int, w: int) -> list[int]:
    """The length signed w-byte slots of packed mod 2^(8w length), lowest first.

    h = 2^(8w-1) added to each low slot holds its coefficient in [-h, h)
    at [0, 2h), so no borrow crosses a slot; the all-ones mask drops
    every higher slot, whatever its sign.
    """
    h = 1 << (8 * w - 1)
    bias = int.from_bytes(h.to_bytes(w, "little") * length, "little")
    raw = ((packed + bias) & ((1 << 8 * w * length) - 1)).to_bytes(w * length, "little")
    return [int.from_bytes(raw[i : i + w], "little") - h for i in range(0, w * length, w)]


def _decimal_kronecker(a: Sequence[int], b: Sequence[int], n: int, d: int) -> list[int]:
    """_kronecker_mul in radix X = 10^d, multiplied by libmpdec.

    10^(d-1) > bound >= max|a|, max|b|, so with h = 5 * 10^(d-1) every
    operand and product slot holds a value in (4, 6) * 10^(d-1): exactly
    d digits, no carry between slots. Packing is one str per coefficient
    and one Decimal per operand; the product's string is 2n+1 slots of d
    digits, and each retained slot goes back through one int. The
    context has the largest precision and exponent range and traps
    Inexact and Rounded, so a product that would lose a digit raises
    instead of returning. decimal is imported here, at the first large
    product, not by import qmex.
    """
    import decimal

    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.Inexact, decimal.Rounded],
    )
    h = 5 * 10 ** (d - 1)

    def bias(k: int) -> decimal.Decimal:
        # h in each of the k lowest slots, doubled up: H(2m) = H(m) + X^m H(m)
        if k == 1:
            return decimal.Decimal(h)
        half = bias(k // 2)
        twice = ctx.add(half, ctx.scaleb(half, k // 2 * d))
        return ctx.add(ctx.scaleb(twice, d), h) if k % 2 else twice

    def pack(cs: Sequence[int]) -> decimal.Decimal:
        packed = decimal.Decimal("".join(map(str, map(h.__add__, reversed(cs)))))
        return ctx.subtract(packed, bias(len(cs)))

    x = pack(a)
    y = x if a == b else pack(b)
    full = 2 * n + 1
    raw = str(ctx.add(ctx.multiply(x, y), bias(full)))
    return [int(raw[i : i + d]) - h for i in range(d * (full - 1), d * (n - 1), -d)]


# ----------------------------------------------------------------------
# in-place list kernels
#
# These operate on plain coefficient lists so that the builder module's
# _nested_sum, sigma_d_maex_series and a-d ALT1, whose steps are single
# binomials and shifts, run in O(N) per step. They are not part of the
# public surface.


def _mul_binomial_inplace(c: list[int], sign: int, m: int) -> None:
    """c *= (1 + sign*q^m), truncated to len(c)-1."""
    if m < 1:
        raise ValueError("binomial exponent must be positive")
    if m >= len(c):
        return
    if sign > 0:
        c[m:] = [x + y for x, y in zip(c[m:], c)]
    else:
        c[m:] = [x - y for x, y in zip(c[m:], c)]


def _div_binomial_inplace(c: list[int], sign: int, m: int) -> None:
    """c /= (1 + sign*q^m) via g[j] = f[j] - sign*g[j-m], ascending j."""
    if m < 1:
        raise ValueError("binomial exponent must be positive")
    if m >= len(c):
        return
    if sign > 0:
        for j in range(m, len(c)):
            c[j] -= c[j - m]
    else:
        for j in range(m, len(c)):
            c[j] += c[j - m]


def _shift_inplace(c: list[int], a: int) -> None:
    """c := q^a * c, growing: prepend a zeros (none for a <= 0)."""
    c[:0] = [0] * a
