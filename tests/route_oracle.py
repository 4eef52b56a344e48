"""Routes qmex.qfunctions replaced, as test oracles.

qmex.qfunctions.sigma_d_maex_series groups the maex-sum over distinct
partitions by number of parts, chern_sigma_maex_series builds the
maex-sum over all partitions from sigma_star, and _slices packs each
slice body into one int, whose steps are big-integer shifts and adds.
The functions here are the loops they replaced: Horner's rule over the
maex value k, the runs above the gap summed term by term, and the slice
streams on coefficient lists, one in-place binomial step per slice and
one list add per weighted slice, a maex body starting from zeros and
adding the prefix at every exponent of T_k.
"""

from itertools import count

from qmex import qfunctions
from qmex.qfunctions import RefinedKind
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


def old_slices(kind, order, start=0):
    """(k, low, body) for every slice k >= start of a family nonzero at order, bodies as lists.

    kind is a RefinedKind other than OMEX, or None for the mex > i tails.
    One running list, cut to the length the next slice needs, steps by
    _div_binomial_inplace (MEX and None by (1 + q^k), MOEX by
    (1 + q^{2k+1})) or, for the maex prefix (-q;q)_{k-1}, by
    _mul_binomial_inplace; a maex body starts from zeros and adds the
    prefix at each exponent of T_k. Every body is a fresh list.
    """
    first, lowest = qfunctions._FAMILIES[kind]
    maex = kind is RefinedKind.MAEX
    run = [1] + [0] * order if maex else list(qfunctions.distinct_gen(order).coefficients())
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
        if not maex:
            yield k, low, run.copy()
            continue
        body = [0] * len(run)
        for e in qfunctions._maex_exponents(k, order):
            body[e - low :] = [x + y for x, y in zip(body[e - low :], run)]
        yield k, low, body


def old_sliced(kind, weight, order):
    """Coefficients 0..order of sum_k weight(k) * slice k of old_slices, one list add per slice."""
    total = [0] * (order + 1)
    for k, low, body in old_slices(kind, order):
        w = weight(k)
        if w:
            total[low:] = [t + w * v for t, v in zip(total[low:], body)]
    return total
