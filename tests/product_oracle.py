"""Kernels qmex.series used before, kept as test oracles.

qmex.series._kronecker_mul packs large operands in decimal digits and
multiplies them with libmpdec, and qmex.series._sparse_mul packs the
dense operand once and adds it shifted once per nonzero entry of the
sparse one. binary_kronecker_mul and loop_sparse_mul are the kernels
they replaced: Kronecker substitution in bytes multiplied by CPython's
own integers, and the schoolbook double loop over the sparse support.

binary_kronecker_mul is also the slot-j reference: it puts coefficient j
in slot j, biases all 2n+1 slots of the product and reads the n+1 lowest
as bytes. qmex.series packs every integer the other way round, q^0 in
the top slot, so _kronecker_mul drops the n lowest slots of the product
by one rounded shift and reads the n+1 left through qmex.series._unpack;
its decimal branch drops them by one rounding to nearest.

loop_poch is the list loop qmex.series.poch ran before it moved to one
packed int: one in-place binomial product per factor. loop_invert is
the support recurrence IntSeries.invert once ran for sparse series, run
on every series, and loop_quotient is the same recurrence with a
numerator: one multiplication a term, where
qmex.series._sparse_quotient, which invert now calls, sums the terms of
each coefficient value first. loop_div_binomial is the coefficient loop
of qmex.series._div_binomial_inplace, which keeps it for sign +1 and
takes one running sum per residue class for sign -1, each while q^2m is
within the order; past it the division is one binomial product.
"""

from typing import Sequence

from qmex.series import _mul_binomial_inplace


def binary_kronecker_mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Product by Kronecker substitution in bytes: one CPython int multiplication.

    Slots of w bytes with bound = (n+1) max|a| max|b| < h = 2^(8w-1);
    every slot of both operands and of the full 2n+1 slot product
    carries the bias h, which keeps it in [0, 2^(8w)).
    """
    bound = (n + 1) * max(map(abs, a)) * max(map(abs, b))
    w = bound.bit_length() // 8 + 1
    h = 1 << (8 * w - 1)
    slot = h.to_bytes(w, "little")

    def pack(cs: Sequence[int]) -> int:
        packed = b"".join([(c + h).to_bytes(w, "little") for c in cs])
        return int.from_bytes(packed, "little") - int.from_bytes(slot * len(cs), "little")

    x = pack(a)
    y = x if a == b else pack(b)
    full = 2 * n + 1
    raw = (x * y + int.from_bytes(slot * full, "little")).to_bytes(w * full, "little")
    return [int.from_bytes(raw[i : i + w], "little") - h for i in range(0, w * (n + 1), w)]


def loop_sparse_mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """Schoolbook product over the support of a, one coefficient at a time."""
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def loop_poch(sign: int, a: int, step: int, count: int | None, order: int) -> list[int]:
    """Coefficients of prod_{0 <= k < count} (1 + sign q^{a + k step}) to order, factor by factor."""
    c = [1] + [0] * order
    stop = order + 1 if count is None else min(order + 1, a + count * step)
    for e in range(a, stop, step):
        _mul_binomial_inplace(c, sign, e)
    return c


def loop_invert(cs: Sequence[int]) -> list[int]:
    """1/f for coefficients cs of f with cs[0] = +-1: g_m = -cs[0] sum_{i>=1} cs[i] g_{m-i} over the support."""
    n = len(cs) - 1
    c0 = cs[0]
    support = [i for i in range(1, n + 1) if cs[i]]
    g = [0] * (n + 1)
    g[0] = c0
    for m in range(1, n + 1):
        acc = 0
        for i in support:
            if i > m:
                break
            acc += cs[i] * g[m - i]
        if acc:
            g[m] = -c0 * acc
    return g


def loop_quotient(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """f/g to order len(g) - 1 for g[0] = +-1: h_m = g[0] (f_m - sum_{i>=1} g_i h_{m-i}) over the support, term by term."""
    n = len(g) - 1
    support = [i for i in range(1, n + 1) if g[i]]
    h = [0] * (n + 1)
    for m in range(n + 1):
        acc = f[m]
        for i in support:
            if i > m:
                break
            acc -= g[i] * h[m - i]
        h[m] = g[0] * acc
    return h


def loop_div_binomial(cs: Sequence[int], sign: int, m: int) -> list[int]:
    """cs / (1 + sign q^m) truncated to len(cs) - 1: g_j = cs_j - sign g_(j-m), ascending j."""
    g = list(cs)
    for j in range(m, len(g)):
        g[j] -= sign * g[j - m]
    return g
