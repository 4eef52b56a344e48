"""Routes qmex.qfunctions replaced, as test oracles.

qmex.qfunctions.sigma_d_maex_series groups the maex-sum over distinct
partitions by number of parts, chern_sigma_maex_series builds the
maex-sum over all partitions from sigma_star, _slices packs each slice
body into one int, whose steps are big-integer shifts and adds,
_moex_alt1_sum runs the sigma-d-moex ALT1 Horner sum on one int, and
_divisor_counts sieves over k <= sqrt(order). The functions here are the
loops they replaced: Horner's rule over the maex value k, the runs above
the gap summed term by term, the slice streams on coefficient lists, one
in-place binomial step per slice and one list add per weighted slice, a
maex body starting from zeros and adding the prefix at every exponent of
T_k, the nested-sum kernel on a list with its multiplying steps, and one
slice per k.

The seven partial-sum routes of the catalogue run Horner's rule in
qmex.qfunctions._nested_sum; forward_partial_sum is the term-by-term
loop they ran before it, FORWARD_ROUTES gives each route's step stream
and forward_route builds it. theta_a_series is a_series before _mex_sum,
the theta loop times partition_gen, and partial_sum_sigma_l is sigma-l
before conjugation, the largest-part sum sum_k k q^k / (q;q)_k.
"""

from itertools import chain, count

from qmex import qfunctions
from qmex.qfunctions import Form, RefinedKind, distinct_gen, partition_gen
from qmex.series import IntSeries, _div_binomial_inplace, _mul_binomial_inplace, _shift_inplace


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


def old_nested_sum(order, step, watch=None):
    """Coefficients 0..order of sum_{n>=1} w_n t_n, by Horner's rule on a list.

    The kernel _nested_sum was before it lost its multiplying steps:
    step(n) gives (w_n, a_n, B_n), the binomials B_n as (s, e, p), each
    the factor (1 + s q^e)^p with p = +1 (multiply) or -1 (divide), and
    t_n = q^{a_n} B_n t_{n-1} from t_0 = 1. From the last n whose
    lowest exponent a_1 + ... + a_n is at most order down,
    acc <- q^{a_n} B_n (w_n + acc) on the window of the coefficients
    t_{n-1} leaves room for. watch, if given, sees acc after each add and
    after each binomial.
    """
    low = 0
    for stop in count(1):
        shift = step(stop)[1]
        if low + shift > order:
            break
        low += shift
    acc = [0] * (order + 1 - low)
    for n in range(stop - 1, 0, -1):
        weight, shift, binomials = step(n)
        acc[0] += weight
        if watch:
            watch(acc)
        for sign, e, power in binomials:
            if power > 0:
                _mul_binomial_inplace(acc, sign, e)
            else:
                _div_binomial_inplace(acc, sign, e)
            if watch:
                watch(acc)
        _shift_inplace(acc, shift)
    return acc


def alt1_step(n):
    """Step n of the sigma-d-moex ALT1 sum: t_n = q^n (q^2;q^2)_{n-1}, weight 2 (-1)^{n-1}.

    The ratio t_n / t_{n-1} is q times a new factor (1 - q^{2n-2}) for n >= 2.
    """
    return -2 * (-1) ** n, 1, ((-1, 2 * n - 2, 1),) if n > 1 else ()


def old_moex_alt1_sum(order, watch=None):
    """Coefficients 0..order of the sigma-d-moex ALT1 inner sum, without its 1, on a list."""
    return old_nested_sum(order, alt1_step, watch)


def old_divisor_counts(order):
    """Divisor counts d(0..order), d(0) = 0: one slice add per k <= order."""
    d = [0] * (order + 1)
    for k in range(1, order + 1):
        d[k::k] = [x + 1 for x in d[k::k]]
    return d


def forward_partial_sum(order, steps):
    """Coefficients 0..order of sum_n w_n t_n, accumulated term by term.

    The forward loop the builders ran before the nested-sum kernel:
    steps yields (w_n, a_n, binomials) for n = 0, 1, ...; starting from
    1, each term is t_n = q^{a_n} t_{n-1} prod (1 + s q^e)^p over the
    (s, e, p) in binomials, and the sum stops at the first step whose
    lowest exponent a_0 + ... + a_n passes order.
    """
    total = [0] * (order + 1)
    term = [1] + [0] * order
    low = 0
    for weight, shift, binomials in steps:
        low += shift
        if low > order:
            break
        _shift_inplace(term, shift)
        del term[order + 1 :]
        for sign, e, power in binomials:
            if power > 0:
                _mul_binomial_inplace(term, sign, e)
            else:
                _div_binomial_inplace(term, sign, e)
        for j in range(low, order + 1):
            v = term[j]
            if v:
                total[j] += weight * v
    return total


def triangular_steps(sign):
    """t_n = q^{n(n+1)/2} / (-q;q)_n weighted sign^n: ratio q^n / (1 + q^n)."""
    yield 1, 0, ()
    for n in count(1):
        yield sign**n, n, ((1, n, -1),)


# (catalogued name, form) -> the forward step stream of its partial sum;
# a-d and sigma-d-moex multiply their sum by distinct_gen.
FORWARD_ROUTES = {
    ("sigma", Form.CANONICAL): lambda: triangular_steps(1),
    ("sigma", Form.ALT1): lambda: ((m, m - 1, ((1, m, -1),)) for m in count(1)),
    ("sigma-star", Form.CANONICAL): lambda: (
        (2 * (-1) ** n, 2 * n - 1, ((-1, 2 * n - 1, -1),)) for n in count(1)
    ),
    ("a-d", Form.CANONICAL): lambda: triangular_steps(-1),
    ("a-d", Form.ALT1): lambda: chain(
        [(1, 0, ((1, 1, -1),))],
        ((1, 4 * n - 1, ((1, 2 * n, -1), (1, 2 * n + 1, -1))) for n in count(1)),
    ),
    ("sigma-d-moex", Form.CANONICAL): lambda: chain(
        [(1, 0, ())], ((2, 2 * n - 1, ((1, 2 * n - 1, -1),)) for n in count(1))
    ),
    ("sigma-d-moex", Form.ALT1): lambda: chain(
        [(1, 0, ())],
        ((2 * (-1) ** (n - 1), 1, ((-1, 2 * (n - 1), 1),) if n >= 2 else ()) for n in count(1)),
    ),
}


def forward_route(name, form, order):
    """A partial-sum route built by forward_partial_sum instead of the kernel."""
    inner = IntSeries(forward_partial_sum(order, FORWARD_ROUTES[(name, form)]()))
    return distinct_gen(order) * inner if name in ("a-d", "sigma-d-moex") else inner


def theta_a_series(order):
    """partition_gen times the theta loop a_series ran before _mex_sum.

    A partition with mex m holds 1..m-1 and omits m, so summing
    q^{m(m-1)/2} (1 - q^m) over odd m telescopes into +1 at each
    m(m-1)/2 and -1 at each m(m+1)/2.
    """
    sparse = [0] * (order + 1)
    m = 1
    while m * (m - 1) // 2 <= order:
        sparse[m * (m - 1) // 2] += 1
        if m * (m + 1) // 2 <= order:
            sparse[m * (m + 1) // 2] -= 1
        m += 2
    return partition_gen(order) * IntSeries(sparse)


def partial_sum_sigma_l(order):
    """sum_{m>=1} m q^m / (q;q)_m by its term recurrence: sigma-l before conjugation."""
    # t_m = q^m / (q;q)_m, ratio q / (1 - q^m)
    return tuple(forward_partial_sum(order, ((m, 1, ((-1, m, -1),)) for m in count(1))))
