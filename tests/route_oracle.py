"""Routes qmex.qfunctions replaced, as test oracles.

qmex.qfunctions.sigma_d_maex_series groups the maex-sum over distinct
partitions by number of parts, chern_sigma_maex_series builds the
maex-sum over all partitions from sigma_star, and _slices starts each
maex slice body from a copy of the running prefix. The functions here
are the loops they replaced: Horner's rule over the maex value k, the
runs above the gap summed term by term, and a body that starts from
zeros and adds the prefix at every exponent of T_k.
"""

from qmex import qfunctions
from qmex.series import _div_binomial_inplace, _mul_binomial_inplace


def old_horner_sigma_d_maex(order):
    """The maex-value double sum sigma-d-maex was built from before it grouped by parts.

    Horner's rule over k: acc <- acc (1 + q^k) + k T_k, O(order^2).
    """
    acc = [0] * (order + 1)
    for k in range(order - 1, 0, -1):
        _mul_binomial_inplace(acc, 1, k)
        for e in qfunctions._maex_exponents(k, order):
            acc[e] += k
    return tuple(acc)


def old_runs_chern(order):
    """The runs-above-the-gap loop chern-sigma-maex had before the sigma_star route.

    acc <- (acc + P_L) / (1 - q^L) from L = order down, P_L added term
    by term from its untelescoped form sum_{k<L} k (1 - q^k) q^{T(L)-T(k)}.
    """
    acc = [0] * (order + 1)
    for L in range(order, 0, -1):
        for k in range(L - 1, 0, -1):
            e = (L * (L + 1) - k * (k + 1)) // 2
            if e > order:
                break
            acc[e] += k
            if e + k <= order:
                acc[e + k] -= k
        _div_binomial_inplace(acc, -1, L)
    return tuple(acc)


def old_maex_slices(order):
    """(k, low, body) for every maex slice k >= 1 nonzero at order, each body from zeros.

    Slice k is q^(k+1) (-q;q)_{k-1} T_k: the prefix steps by (1 + q^(k-1))
    and is added into a zero body at each exponent of T_k.
    """
    run = [1] + [0] * order
    k = 1
    while k + 1 <= order:
        low = k + 1
        del run[order + 1 - low :]
        if k > 1:
            _mul_binomial_inplace(run, 1, k - 1)
        body = [0] * len(run)
        for e in qfunctions._maex_exponents(k, order):
            body[e - low :] = [x + y for x, y in zip(body[e - low :], run)]
        yield k, low, body
        k += 1
