"""Tests for the generating-function builders.

Golden prefixes are frozen from the enumeration oracles; each test that
uses one re-derives it from the oracle as well, so a regression in
either side shows up as a disagreement rather than a stale constant.
"""

import hashlib
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from itertools import chain, count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from census_oracle import maex, mex, moex
from qmex import identities, qfunctions, series
from qmex.partitions import CountKind, StatKind, enum_partitions, refined_count_oracle, stat_sum_oracle
from qmex.qfunctions import (
    Form,
    RefinedKind,
    a_d_series,
    a_series,
    available_series,
    build_named,
    chern_sigma_maex_series,
    clear_cache,
    dcount_series,
    distinct_gen,
    partition_gen,
    refined_series,
    sigma_L_series,
    sigma_d_maex_series,
    sigma_d_mex_series,
    sigma_d_moex_series,
    sigma_mex_series,
    sigma_series,
    sigma_star_series,
)
from qmex.series import (
    INFINITE,
    IntSeries,
    _div_binomial_inplace,
    _mul_binomial_inplace,
    _shift_inplace,
    poch,
)
from route_oracle import old_horner_sigma_d_maex, old_runs_chern, old_sliced, old_slices


def fraction_sigma(order):
    """Independent expansion of the sigma partial sums.

    Uses exact Fractions and the closed geometric form
    1/(1+q^i) = sum_j (-1)^j q^(i j), so no series division is shared
    with the implementation under test.
    """
    total = [Fraction(0)] * (order + 1)
    total[0] = Fraction(1)
    n = 1
    while n * (n + 1) // 2 <= order:
        term = [Fraction(0)] * (order + 1)
        term[n * (n + 1) // 2] = Fraction(1)
        for i in range(1, n + 1):
            geom = [Fraction(0)] * (order + 1)
            j = 0
            while i * j <= order:
                geom[i * j] = Fraction((-1) ** j)
                j += 1
            term = [
                sum(term[a] * geom[b - a] for a in range(b + 1))
                for b in range(order + 1)
            ]
        total = [x + y for x, y in zip(total, term)]
        n += 1
    assert all(v.denominator == 1 for v in total)
    return tuple(int(v) for v in total)


def double_sum_sigma_d_maex(order):
    """sum_{k>=1} k (-q;q)_{k-1} sum_{m>=1} q^{m(m+1)/2 + km}, summed k by k.

    The prefix (-q;q)_{k-1} grows one factor per k and is added, shifted,
    once per (k, m) pair: grouped by maex value, a reference for the
    builder's grouping by number of parts.
    """
    total = [0] * (order + 1)
    pk = [1] + [0] * order  # (-q;q)_{k-1}, starts at k = 1
    k = 1
    while k + 1 <= order:
        if k > 1:
            _mul_binomial_inplace(pk, 1, k - 1)
        m = 1
        e = 1 + k
        while e <= order:
            for j in range(order + 1 - e):
                v = pk[j]
                if v:
                    total[e + j] += k * v
            m += 1
            e = m * (m + 1) // 2 + k * m
        k += 1
    return tuple(total)


def double_sum_chern(order):
    """sum_{n>=1} n / (q;q)_{n-1} * sum_{m>=1} q^{m(n+1)} (-q;q)_{m-1}, summed n by n.

    Each inner sum is multiplied by the prefix 1/(q;q)_{n-1} as a dense
    product: a reference for the sigma_star route of the builder.
    """
    total = [0] * (order + 1)
    qn = [1] + [0] * order  # 1/(q;q)_{n-1}, starts at n = 1
    n = 1
    while n + 1 <= order:
        if n > 1:
            _div_binomial_inplace(qn, -1, n - 1)
        inner = [0] * (order + 1)
        pm = [1] + [0] * order  # (-q;q)_{m-1}
        m = 1
        while m * (n + 1) <= order:
            if m > 1:
                _mul_binomial_inplace(pm, 1, m - 1)
            e = m * (n + 1)
            for j in range(order + 1 - e):
                v = pm[j]
                if v:
                    inner[e + j] += v
            m += 1
        prod = (IntSeries(qn) * IntSeries(inner)).coefficients()
        for j, v in enumerate(prod):
            if v:
                total[j] += n * v
        n += 1
    return tuple(total)


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


def residue_mex(parts, A):
    """mex_{A,1}: the least positive integer = 1 (mod A) that is not a part."""
    have = set(parts)
    m = 1
    while m in have:
        m += A
    return m


def horner_chern(order):
    """The Horner form chern-sigma-maex had before runs above the gap.

    sum_{n>=1} n / (q;q)_{n-1} * inner_n with inner_n = sum_{m>=1}
    q^{m(n+1)} (-q;q)_{m-1} a partial sum of its own, from n = order - 1
    down: acc <- acc / (1 - q^n) + n inner_n, O(order^2 log order).
    """
    acc = [0] * (order + 1)
    for n in range(order - 1, 0, -1):
        _div_binomial_inplace(acc, -1, n)
        # t_m = q^{m(n+1)} (-q;q)_{m-1}, ratio q^{n+1} (1 + q^{m-1})
        steps = ((n, n + 1, ((1, m - 1, 1),) if m > 1 else ()) for m in count(1))
        acc = [a + b for a, b in zip(acc, forward_partial_sum(order, steps))]
    return tuple(acc)


def partial_sum_sigma_l(order):
    """sum_{m>=1} m q^m / (q;q)_m by its term recurrence: sigma-l before conjugation."""
    # t_m = q^m / (q;q)_m, ratio q / (1 - q^m)
    return tuple(forward_partial_sum(order, ((m, 1, ((-1, m, -1),)) for m in count(1))))


def shifted(s, a):
    """q^a * s at the order of s."""
    c = list(s.coefficients())
    _shift_inplace(c, a)
    return IntSeries(c[: s.order + 1])


def closed_form_slice(kind, k, order):
    """Slice k of a family from its closed form (kind None: dcount_series).

    These are the formulas the slices were built from before the running
    quotient: a shifted poch tail for MEX, OMEX and dcount, the division
    loop for MOEX, and poch times the sparse T_k for MAEX.
    """
    if kind is None:
        return shifted(poch(1, k + 1, 1, INFINITE, order), k * (k + 1) // 2)
    if kind is RefinedKind.MEX:
        return shifted(poch(1, k + 1, 1, INFINITE, order), k * (k - 1) // 2)
    if kind is RefinedKind.OMEX:
        return shifted(poch(1, 2 * k + 2, 1, INFINITE, order), k * (2 * k + 1))
    if kind is RefinedKind.MOEX:
        c = list(poch(1, 1, 1, INFINITE, order).coefficients())
        _shift_inplace(c, k * k)
        del c[order + 1 :]
        for j in range(k + 1):
            _div_binomial_inplace(c, 1, 2 * j + 1)
        return IntSeries(c)
    theta = [0] * (order + 1)
    m = 1
    while m * (m + 1) // 2 + k * m <= order:
        theta[m * (m + 1) // 2 + k * m] = 1
        m += 1
    return poch(1, 1, 1, k - 1, order) * IntSeries(theta)


def old_slice_sum(order, slices):
    """Sum of weight * slice over (weight, slice) pairs, one series addition each."""
    total = IntSeries([0] * (order + 1))
    for weight, s in slices:
        total = total + IntSeries([weight * c for c in s.coefficients()])
    return total


# family -> its first index; None is the mex > i family of dcount_series
FIRST_INDEX = {None: 0, RefinedKind.MEX: 1, RefinedKind.OMEX: 0, RefinedKind.MOEX: 0, RefinedKind.MAEX: 1}

# slice-sum identity -> (family, weight of slice k)
SLICE_SUMS = {
    "d-i-sum": (None, lambda i: 1),
    "refined-mex-weighted-sum": (RefinedKind.MEX, lambda m: m),
    "refined-mex-unweighted-sum": (RefinedKind.MEX, lambda m: 1),
    "refined-omex-sum": (RefinedKind.OMEX, lambda k: 1),
    "refined-moex-weighted-sum": (RefinedKind.MOEX, lambda k: 2 * k + 1),
    "refined-maex-weighted-sum": (RefinedKind.MAEX, lambda k: k),
}


class TestSigma:
    def test_opening_coefficients(self):
        assert sigma_series(5).coefficients() == (1, 1, -1, 2, -2, 1)
        assert sigma_series(0).coefficient(0) == 1

    def test_matches_independent_fraction_expansion(self):
        got = sigma_series(24).coefficients()
        assert got == fraction_sigma(24)

    def test_alt1_agrees(self):
        assert sigma_series(80, Form.ALT1) == sigma_series(80, Form.CANONICAL)

    def test_no_alt2(self):
        with pytest.raises(ValueError):
            sigma_series(10, Form.ALT2)

    def test_negative_order(self):
        with pytest.raises(ValueError):
            sigma_series(-1)


class TestSigmaStar:
    def test_opening_coefficients(self):
        assert sigma_star_series(5).coefficients() == (0, -2, -2, -2, 0, 0)

    def test_substitution_feeds_moex_form(self):
        star = sigma_star_series(3).coefficients()
        inner = [(-c if i % 2 else c) for i, c in enumerate(star)]
        inner[0] += 1
        assert tuple(inner) == (1, 2, -2, 2)
        lhs = IntSeries([1, 1, 1, 2]) * IntSeries(inner)
        assert lhs.coefficients() == (1, 3, 1, 4)


class TestDistinctFamilies:
    def test_distinct_counts(self):
        assert distinct_gen(9).coefficients() == (1, 1, 1, 2, 2, 3, 4, 5, 6, 8)

    def test_sigma_d_mex_golden_and_oracle(self):
        want = (1, 2, 1, 4, 3, 4, 8, 8)
        assert sigma_d_mex_series(7).coefficients() == want
        for n, w in enumerate(want):
            assert stat_sum_oracle(StatKind.MEX, n, True) == w

    def test_sigma_mex_golden_and_oracle(self):
        assert sigma_mex_series(3).coefficients() == (1, 2, 3, 6)
        for n in range(4):
            assert stat_sum_oracle(StatKind.MEX, n) == sigma_mex_series(3).coefficient(n)

    def test_a_d_golden_and_oracle(self):
        want = (1, 0, 1, 2, 1, 2, 2, 4)
        assert a_d_series(7).coefficients() == want
        for n, w in enumerate(want):
            assert refined_count_oracle(CountKind.ODD_MEX, 0, n, True) == w

    def test_moex_golden_and_oracle(self):
        want = (1, 3, 1, 4, 6)
        assert sigma_d_moex_series(4).coefficients() == want
        for n, w in enumerate(want):
            assert stat_sum_oracle(StatKind.MOEX, n, True) == w

    def test_moex_all_forms_agree_with_each_other(self):
        base = sigma_d_moex_series(60, Form.CANONICAL)
        assert sigma_d_moex_series(60, Form.ALT1) == base
        assert sigma_d_moex_series(60, Form.ALT2) == base

    def test_maex_golden_and_oracle(self):
        want = (0, 0, 1, 2, 5, 8)
        assert sigma_d_maex_series(5).coefficients() == want
        for n, w in enumerate(want):
            assert stat_sum_oracle(StatKind.MAEX, n, True) == w

    def test_chern_maex_golden_and_oracle(self):
        want = (0, 0, 1, 2, 6)
        assert chern_sigma_maex_series(4).coefficients() == want
        for n, w in enumerate(want):
            assert stat_sum_oracle(StatKind.MAEX, n) == w

    def test_sigma_l_golden_and_oracle(self):
        want = (0, 1, 3, 6, 12, 20, 35)
        assert sigma_L_series(6).coefficients() == want
        for n, w in enumerate(want):
            assert stat_sum_oracle(StatKind.LARGEST, n) == w

    def test_a_series_against_oracle(self):
        s = a_series(20)
        for n in range(21):
            assert s.coefficient(n) == refined_count_oracle(CountKind.ODD_MEX, 0, n)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=300))
    def test_sigma_d_maex_by_parts_matches_double_sum(self, order):
        assert sigma_d_maex_series(order).coefficients() == double_sum_sigma_d_maex(order)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=1500))
    @example(0)
    @example(1)
    @example(2)
    @example(3)
    @example(1500)
    def test_sigma_d_maex_by_parts_matches_old_horner(self, order):
        clear_cache()
        assert sigma_d_maex_series(order).coefficients() == old_horner_sigma_d_maex(order)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 6, 300, 2000])
    def test_sigma_d_maex_takes_two_divisions_per_part_count(self, monkeypatch, order):
        calls = {"mul": 0, "div": 0}

        def counted(key, kernel):
            def wrapped(*args):
                calls[key] += 1
                return kernel(*args)

            return wrapped

        monkeypatch.setattr(qfunctions, "_mul_binomial_inplace", counted("mul", _mul_binomial_inplace))
        monkeypatch.setattr(qfunctions, "_div_binomial_inplace", counted("div", _div_binomial_inplace))
        clear_cache()
        sigma_d_maex_series(order)
        s_max = max(s for s in range(order + 1) if s * (s + 1) // 2 <= order)
        assert calls["mul"] == 0
        assert calls["div"] <= 2 * s_max
        clear_cache()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=120))
    def test_chern_sigma_star_route_matches_double_sum(self, order):
        assert chern_sigma_maex_series(order).coefficients() == double_sum_chern(order)

    def test_chern_sigma_star_route_matches_old_horner(self):
        clear_cache()
        assert chern_sigma_maex_series(600).coefficients() == horner_chern(600)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=600))
    @example(0)
    @example(1)
    @example(600)
    def test_sigma_l_conjugation_matches_partial_sum(self, order):
        clear_cache()
        assert sigma_L_series(order).coefficients() == partial_sum_sigma_l(order)

    def test_maex_routes_match_old_horner_and_runs_loops(self):
        clear_cache()
        assert sigma_d_maex_series(1500).coefficients() == old_horner_sigma_d_maex(1500)
        assert chern_sigma_maex_series(1500).coefficients() == old_runs_chern(1500)

    def test_maex_low_coefficients_vanish(self):
        s = sigma_d_maex_series(12)
        assert s.coefficient(0) == 0 and s.coefficient(1) == 0
        c = chern_sigma_maex_series(12)
        assert c.coefficient(0) == 0 and c.coefficient(1) == 0


class TestNestedSum:
    """The seven partial-sum routes against the forward loop they replaced."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=600))
    @example(0)
    @example(1)
    @example(2)
    @example(600)
    def test_routes_match_forward_partial_sum(self, order):
        clear_cache()
        for name, form in FORWARD_ROUTES:
            got = build_named(name, order, form).series
            assert got == forward_route(name, form, order), (name, form.value)

    def test_shifts_past_the_order_leave_zero(self):
        # each term 1 and shift 5: no term below q^5, so the sum is zero at full length
        step = lambda n: (1, 5, ())
        assert qfunctions._nested_sum(3, step) == [0, 0, 0, 0]
        assert qfunctions._nested_sum(5, step) == [0, 0, 0, 0, 0, 1]


# moduli A of the residue-class mex mex_{A,1} checked against enumeration
MODULI = [1, 2, 3, 4, 5]


class TestResidueMexSum:
    """_mex_sum against the theta loop a_series replaced and against enumeration.

    FORWARD_ROUTES already covers its three distinct-base callers.
    """

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=600))
    @example(0)
    @example(1)
    @example(600)
    def test_a_matches_the_theta_loop(self, order):
        clear_cache()
        assert a_series(order) == theta_a_series(order)

    def test_a_matches_the_theta_loop_at_8000(self):
        clear_cache()
        assert a_series(8000) == theta_a_series(8000)
        clear_cache()

    @pytest.mark.parametrize("s", [1, -1])
    @pytest.mark.parametrize("distinct,top", [(True, 40), (False, 30)])
    def test_sums_the_residue_class_mex(self, distinct, top, s):
        # mex_{A,1} = 1 + A j with 1, ..., 1 + A(j-1) all parts; the sum weighs a
        # partition 1 + A sum_{k=1..j} s^k: mex_{A,1} for s = +1, 1 - A (j mod 2) for s = -1
        base = distinct_gen(top) if distinct else partition_gen(top)
        parts = [list(enum_partitions(n, distinct)) for n in range(top + 1)]
        for A in MODULI:
            got = base * IntSeries(qfunctions._mex_sum(top, A, s, distinct))
            weight = lambda m: m if s == 1 else 1 - A * ((m - 1) // A % 2)
            want = tuple(sum(weight(residue_mex(p, A)) for p in ps) for ps in parts)
            assert got.coefficients() == want, A


class TestPentagonalRoute:
    """distinct_gen and a_series come from sparse Euler products, not poch."""

    def test_partition_gen_counts_partitions(self):
        want = tuple(sum(1 for _ in enum_partitions(n)) for n in range(21))
        assert partition_gen(20).coefficients() == want

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2]), st.integers(min_value=0, max_value=600))
    @example(s=1, order=0)
    @example(s=2, order=0)
    @example(s=1, order=1)
    @example(s=2, order=1)
    @example(s=1, order=600)
    @example(s=2, order=600)
    def test_euler_product_equals_poch(self, s, order):
        assert qfunctions._euler_product(s, order) == poch(-1, s, s, INFINITE, order)

    def test_builds_without_poch(self, monkeypatch):
        # with poch disabled under the names series and qfunctions both bind, the routes
        # built on the Euler products still meet their pins. The Euler products take
        # neither poch nor the rounded shift of its sign -1 factors; the sparse product
        # that follows them rounds its own shifts, so _shift_round is disabled around
        # _euler_product alone
        def no_poch(*args, **kwargs):
            raise AssertionError("poch ran")

        for module in (series, qfunctions):
            monkeypatch.setattr(module, "poch", no_poch)
        with monkeypatch.context() as patch:
            for module in (series, qfunctions):
                patch.setattr(module, "_shift_round", no_poch)
            for s in (1, 2):
                assert qfunctions._euler_product(s, 500).order == 500
        clear_cache()
        routes = (
            ("distinct", distinct_gen, 500),
            ("a", a_series, 500),
            ("sigma-mex", sigma_mex_series, 500),
            ("sigma-l", sigma_L_series, 500),
            ("chern-sigma-maex", chern_sigma_maex_series, 200),
        )
        for name, builder, order in routes:
            digest = hashlib.sha256(",".join(map(str, builder(order).coefficients())).encode()).hexdigest()
            assert digest == ROUTE_SHA256[(name, "canonical")], name
        clear_cache()


class TestSparseFactorRoutes:
    """sigma-mex as psi times partition_gen, sigma-l and chern-sigma-maex as quotients by (q;q)_inf.

    Each against the dense product it replaced: (-q;q)_inf squared, and
    partition_gen times the numerator.
    """

    @pytest.mark.parametrize("order", [0, 1, 2, 300, 2000])
    def test_routes_equal_the_replaced_products(self, order):
        clear_cache()
        divisors = [0] * (order + 1)  # d(n) by its own sieve, d(0) = 0
        for k in range(1, order + 1):
            for j in range(k, order + 1, k):
                divisors[j] += 1
        star = sigma_star_series(order).coefficients()
        d, p = distinct_gen(order), partition_gen(order)
        assert sigma_mex_series(order) == d * d
        assert sigma_L_series(order) == p * IntSeries(divisors)
        assert chern_sigma_maex_series(order) == p * IntSeries([c + s // 2 for c, s in zip(divisors, star)])
        clear_cache()


class TestTruncationEdges:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_tiny_orders_are_consistent(self, order):
        for builder in (
            sigma_series,
            sigma_star_series,
            distinct_gen,
            sigma_d_mex_series,
            sigma_mex_series,
            a_d_series,
            sigma_d_moex_series,
            sigma_d_maex_series,
            chern_sigma_maex_series,
            a_series,
            sigma_L_series,
        ):
            # cold builds: the store would otherwise serve tiny as a slice of wider
            clear_cache()
            tiny = builder(order)
            clear_cache()
            wider = builder(12)
            assert tiny.order == order
            for n in range(order + 1):
                assert tiny.coefficient(n) == wider.coefficient(n), builder.__name__

    def test_prefix_stability_across_orders(self):
        # raising the order never changes already-retained coefficients
        clear_cache()
        lo = sigma_d_mex_series(30)
        clear_cache()
        hi = sigma_d_mex_series(90)
        for n in range(31):
            assert lo.coefficient(n) == hi.coefficient(n)


def unpacked_slices(kind, order, start=0):
    """(k, low, body) of _slices at the one-weight width, each body read as a list by _slice_lists."""
    return list(qfunctions._slice_lists(kind, order, start))


def maex_slices_checked(order):
    """Every maex slice of _slices at order, after checking it against the zero-start loop."""
    got = unpacked_slices(RefinedKind.MAEX, order)
    assert got == list(old_slices(RefinedKind.MAEX, order)), order
    return got


class TestRefined:
    def test_mex_slice_example(self):
        assert refined_series(5, RefinedKind.MEX, 1).coefficients() == (1, 0, 1, 1, 1, 2)

    def test_slices_match_enumeration(self):
        for m in (1, 2, 3):
            s = refined_series(18, RefinedKind.MEX, m)
            for n in range(19):
                assert s.coefficient(n) == refined_count_oracle(CountKind.MEX_EQ, m, n, True)

    def test_omex_slices_match_enumeration(self):
        for k in (0, 1, 2):
            s = refined_series(18, RefinedKind.OMEX, k)
            for n in range(19):
                want = sum(1 for p in enum_partitions(n, True) if mex(p) == 2 * k + 1)
                assert s.coefficient(n) == want

    def test_moex_slices_match_enumeration(self):
        for k in (0, 1, 2):
            s = refined_series(18, RefinedKind.MOEX, k)
            for n in range(19):
                want = sum(1 for p in enum_partitions(n, True) if moex(p) == 2 * k + 1)
                assert s.coefficient(n) == want

    def test_maex_slices_match_enumeration(self):
        for k in (1, 2, 3):
            s = refined_series(18, RefinedKind.MAEX, k)
            for n in range(19):
                want = sum(1 for p in enum_partitions(n, True) if maex(p) == k)
                assert s.coefficient(n) == want

    def test_running_prefix_maex_slices(self):
        ks = []
        for k, low, body in unpacked_slices(RefinedKind.MAEX, 60):
            ks.append(k)
            assert IntSeries([0] * low + body) == refined_series(60, RefinedKind.MAEX, k)
        assert ks == list(range(1, 60))
        # the stream stops where the slices vanish
        assert not any(refined_series(60, RefinedKind.MAEX, 60).coefficients())

    def test_maex_slice_bodies_equal_the_zero_start_loop(self):
        single = 0
        for order in range(81):
            for k, _, _ in maex_slices_checked(order):
                # T_k has one exponent, k + 1, while its second, 2k + 3, is past the order
                single += 2 * k + 3 > order
        assert single > 0
        assert maex_slices_checked(0) == maex_slices_checked(1) == []
        assert maex_slices_checked(2) == [(1, 2, [1])]

    @settings(max_examples=10, deadline=None)
    @given(st.integers(81, 400))
    @example(400)
    def test_maex_slice_bodies_equal_the_zero_start_loop_property(self, order):
        maex_slices_checked(order)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            refined_series(5, RefinedKind.MEX, 0)
        with pytest.raises(ValueError):
            refined_series(5, RefinedKind.MAEX, 0)
        with pytest.raises(ValueError):
            refined_series(5, RefinedKind.OMEX, -1)
        with pytest.raises(ValueError):
            refined_series(5, RefinedKind.MOEX, -1)

    def test_slice_beyond_order_is_zero(self):
        assert all(c == 0 for c in refined_series(10, RefinedKind.MEX, 6).coefficients())

    def test_dcount_matches_mex_gt(self):
        for i in (0, 1, 2, 3):
            s = dcount_series(20, i)
            for n in range(21):
                assert s.coefficient(n) == refined_count_oracle(CountKind.MEX_GT, i, n, True)

    def test_dcount_zero_is_distinct_gen(self):
        assert dcount_series(30, 0) == distinct_gen(30)


def _slice_of(kind, k, order):
    return dcount_series(order, k) if kind is None else refined_series(order, kind, k)


class TestSliceStream:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=300))
    @example(0)
    @example(1)
    @example(300)
    def test_stream_and_slice_sums_equal_closed_forms(self, order):
        closed = {}
        for kind, first in FIRST_INDEX.items():
            # every slice up to the first that vanishes at this order
            forms = closed[kind] = {}
            k = first
            while True:
                forms[k] = closed_form_slice(kind, k, order)
                if not any(forms[k].coefficients()):
                    break
                k += 1
            if kind is not RefinedKind.OMEX:  # OMEX slice k is read from MEX slice 2k+1
                items = []
                for k, low, body in unpacked_slices(kind, order):
                    assert len(body) == order + 1 - low and body[0] == 1  # low is the lowest exponent
                    assert IntSeries([0] * low + body) == forms[k], (kind, k)
                    items.append(k)
                assert items == list(range(first, max(forms))), kind
            assert all(_slice_of(kind, k, order) == forms[k] for k in forms)
        for name, (kind, weight) in SLICE_SUMS.items():
            (check,) = identities._BY_NAME[name].checks
            want = old_slice_sum(order, ((weight(k), s) for k, s in closed[kind].items()))
            assert check.lhs(order) == want, name

    def test_every_slice_matches_enumeration(self):
        top = 30
        stats = [(n, mex(p), moex(p), maex(p)) for n in range(top + 1) for p in enum_partitions(n, True)]
        statistic = {
            RefinedKind.MEX: lambda m, o, a, k: m == k,
            RefinedKind.OMEX: lambda m, o, a, k: m == 2 * k + 1,
            RefinedKind.MOEX: lambda m, o, a, k: o == 2 * k + 1,
            RefinedKind.MAEX: lambda m, o, a, k: a == k,
            None: lambda m, o, a, k: m > k,
        }
        for kind, first in FIRST_INDEX.items():
            # every index with a nonzero slice at this order (at most top), and past it
            for k in range(first, top + 2):
                want = [0] * (top + 1)
                for n, m, o, a in stats:
                    want[n] += statistic[kind](m, o, a, k)
                assert _slice_of(kind, k, top).coefficients() == tuple(want), (kind, k)


# Families with a stream of their own (None: the mex > i tails); OMEX reads MEX slices.
STREAM_FAMILIES = (None, RefinedKind.MEX, RefinedKind.MOEX, RefinedKind.MAEX)

# slice-sum identity -> (stream family, weight of slice k) of its _sliced side
REGISTRY_SLICED = {
    "d-i-sum": (None, lambda i: 1),
    "refined-mex-weighted-sum": (RefinedKind.MEX, lambda m: m),
    "refined-mex-unweighted-sum": (RefinedKind.MEX, lambda m: 1),
    "refined-omex-sum": (RefinedKind.MEX, lambda m: m % 2),
    "refined-moex-weighted-sum": (RefinedKind.MOEX, lambda k: 2 * k + 1),
    "refined-maex-weighted-sum": (RefinedKind.MAEX, lambda k: k),
}

# Weights beyond the registry's: negative, zero, and far wider than any slice coefficient.
EXTRA_WEIGHTS = {
    "(-1)^k 7": lambda k: (-1) ** k * 7,
    "0": lambda k: 0,
    "10^40 k": lambda k: 10**40 * k,
}


class TestPackedSlices:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 400), st.integers(0, 30))
    @example(0, 0)
    @example(1, 0)
    @example(2, 0)
    @example(300, 0)
    def test_packed_stream_and_sums_equal_the_list_stream(self, order, start):
        for kind in STREAM_FAMILIES:
            assert unpacked_slices(kind, order, start) == list(old_slices(kind, order, start)), kind
        for name, (kind, weight) in REGISTRY_SLICED.items():
            (check,) = identities._BY_NAME[name].checks
            assert check.lhs(order).coefficients() == tuple(old_sliced(kind, weight, order)), name
        for kind in STREAM_FAMILIES:
            for label, weight in EXTRA_WEIGHTS.items():
                got = qfunctions._sliced(kind, weight)(order).coefficients()
                assert got == tuple(old_sliced(kind, weight, order)), (kind, label)

    def test_slot_width_holds_every_distinct_count_up_to_max_order(self):
        counts = distinct_gen(qfunctions.MAX_ORDER).coefficients()
        # Q(n) <= e^{pi sqrt(n/3)}, by at least 2.6 bits from n = 1 on; n = 1 is the tightest
        slack = [math.pi * math.sqrt(n / 3) / math.log(2) - math.log2(q) for n, q in enumerate(counts)]
        assert min(slack[1:]) == slack[1] > 2.6
        for n, q in enumerate(counts):
            for total in (1, 7, 10**40):
                assert q * total < 2 ** (8 * qfunctions._slot_bytes(n, total) - 1), (n, total)


class TestCatalog:
    def test_names_cover_builders(self):
        names = available_series()
        assert "sigma-d-mex" in names and "chern-sigma-maex" in names
        # formless names first, then names with forms, each sorted (the CLI's choices)
        assert names == (
            "a", "chern-sigma-maex", "distinct", "sigma-d-maex", "sigma-l", "sigma-mex", "sigma-star",
            "a-d", "sigma", "sigma-d-mex", "sigma-d-moex",
        )
        assert len(names) == len(set(names))
        assert {name for name, _ in ROUTE_SHA256} == set(names)

    def test_build_named(self):
        named = build_named("sigma-d-mex", 7, Form.ALT1)
        assert named.name == "sigma-d-mex"
        assert named.form is Form.ALT1
        assert named.series.order == 7
        assert named.series.coefficients() == (1, 2, 1, 4, 3, 4, 8, 8)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_named("no-such-series", 5)

    def test_form_rejected_where_unavailable(self):
        with pytest.raises(ValueError):
            build_named("distinct", 5, Form.ALT1)
        with pytest.raises(ValueError):
            build_named("sigma", 5, Form.ALT2)


# sha256 of ",".join(coefficients) for every catalogued route, order 500
# (chern-sigma-maex 200), recorded before the builders were rewritten.
ROUTE_SHA256 = {
    ("a", "canonical"): "83e3abe3a22371011c3335ed17621767ec102d4bc1e227499685d42c7a27d719",
    ("a-d", "alt1"): "f06d397fa790153564daddc411e98e396d1761060124ed3f62398697e15e19b8",
    ("a-d", "canonical"): "f06d397fa790153564daddc411e98e396d1761060124ed3f62398697e15e19b8",
    ("chern-sigma-maex", "canonical"): "1c5f6c8accd72b6e1ec28591c5a9718420c6d2eda6d23f3ec62fdc9b0c832069",
    ("distinct", "canonical"): "6640251e9f26756101c438b760840139301f15432a94c6a97a693eb7795dfe80",
    ("sigma", "alt1"): "b184e831c60ec5a4fcb243241f83bec9f9e0201b60344618b30e73e8bd32d8e8",
    ("sigma", "canonical"): "b184e831c60ec5a4fcb243241f83bec9f9e0201b60344618b30e73e8bd32d8e8",
    ("sigma-d-maex", "canonical"): "74dd184f51b7b7f84fbbd6a2ff77d11ad95105531601f9f392920ca6affbef9f",
    ("sigma-d-mex", "alt1"): "833aed09ab0b2833679fcab5824f1f2eca08bf25b66d96ebc3306e178321ca10",
    ("sigma-d-mex", "canonical"): "833aed09ab0b2833679fcab5824f1f2eca08bf25b66d96ebc3306e178321ca10",
    ("sigma-d-moex", "alt1"): "1594f8f0fb31a21dfd7517c669286b9eecf4b8241c1d2350d6d70729222b1dc9",
    ("sigma-d-moex", "alt2"): "1594f8f0fb31a21dfd7517c669286b9eecf4b8241c1d2350d6d70729222b1dc9",
    ("sigma-d-moex", "canonical"): "1594f8f0fb31a21dfd7517c669286b9eecf4b8241c1d2350d6d70729222b1dc9",
    ("sigma-l", "canonical"): "ea1d8729189d444dbb9de790b0015599664d1fa9ffd8e6e770202459417d1add",
    ("sigma-mex", "canonical"): "bc25682ebf6973c655af5c1740f66effebd223c1c85781df62349324df6a13f3",
    ("sigma-star", "canonical"): "df5a4613ebd3d69f76b9935345369c2da961efa20c52d0839e3bb369cfe7cf37",
}


@pytest.mark.parametrize("name,form", sorted(ROUTE_SHA256))
def test_route_coefficients_pinned(name, form):
    order = 200 if name == "chern-sigma-maex" else 500
    coeffs = build_named(name, order, Form(form)).series.coefficients()
    digest = hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()
    assert digest == ROUTE_SHA256[(name, form)]


# (builder, positional arguments after order) for every route the store
# serves: each catalogued (name, form), slices of every refined family,
# dcount_series, partition_gen and the (q;q^2)_inf of euler-identity.
STORE_ROUTES = [
    (builder, (form,) if forms else ())
    for builder, forms in (qfunctions._CATALOGUE[name] for name in available_series())
    for form in (forms or (None,))
] + [
    (refined_series, (kind, index))
    for kind, indices in (
        (RefinedKind.MEX, (1, 4)),
        (RefinedKind.OMEX, (0, 2)),
        (RefinedKind.MOEX, (0, 3)),
        (RefinedKind.MAEX, (1, 5)),
    )
    for index in indices
] + [(dcount_series, (i,)) for i in (0, 3)] + [(partition_gen, ()), (qfunctions._odd_parts_product, ())]

# Every function the store serves: the catalogue and the four builders it leaves out.
STORE_BUILDERS = {builder for builder, _ in STORE_ROUTES}


class _NoAccess(dict):
    """A store that fails any test that reads or writes it."""

    def get(self, *args):
        raise AssertionError("store read")

    def __getitem__(self, key):
        raise AssertionError("store read")

    def __setitem__(self, key, value):
        raise AssertionError("store written")


class TestStore:
    def test_routes_cover_the_catalogue(self):
        uncatalogued = (refined_series, dcount_series, partition_gen, qfunctions._odd_parts_product)
        catalogued = [r for r in STORE_ROUTES if r[0] not in uncatalogued]
        assert len(catalogued) == len(ROUTE_SHA256)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=40))
    def test_prefix_served_from_larger_build_equals_cold_build(self, n, extra):
        for builder, key in STORE_ROUTES:
            clear_cache()
            cold = builder(n, *key)
            clear_cache()
            built = builder(n + extra, *key)
            misses = builder.cache_info().misses
            served = builder(n, *key)
            assert builder.cache_info().misses == misses, builder.__name__
            assert served == cold and served.order == n, (builder.__name__, key)
            if extra == 0:
                assert served is built

    @pytest.mark.parametrize("builder", [sigma_series, sigma_d_mex_series, a_d_series, sigma_d_moex_series])
    def test_default_form_is_one_key(self, builder):
        clear_cache()
        first = builder(20)
        assert builder(20, Form.CANONICAL) is first
        assert builder(order=20) is first
        assert builder.cache_info() == (2, 1)
        with pytest.raises(TypeError):  # the arguments after order are positional only
            builder(20, form=Form.CANONICAL)

    def test_clear_cache_zeroes_counts(self):
        sigma_series(5)
        clear_cache()
        assert sigma_series.cache_info() == (0, 0)
        assert not qfunctions._STORE

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sigma_series(10, Form.ALT2),
            lambda: sigma_d_mex_series(10, Form.ALT2),
            lambda: a_d_series(10, Form.ALT2),
            lambda: sigma_series(-1),
            lambda: sigma_d_moex_series(-1, Form.ALT2),
            lambda: distinct_gen(order=-1),
            lambda: refined_series(-1, RefinedKind.MEX, 1),
            lambda: dcount_series(-1, 0),
            lambda: build_named("sigma", 10, Form.ALT2),
            lambda: build_named("distinct", 10, Form.ALT1),
            lambda: sigma_series(5, "alt1"),
            lambda: build_named("sigma", 5, "alt1"),
        ],
    )
    def test_bad_input_raises_before_the_store(self, monkeypatch, call):
        monkeypatch.setattr(qfunctions, "_STORE", _NoAccess())
        with pytest.raises(ValueError):
            call()

    def test_catalogue_entries_are_the_module_builders(self):
        # a tracer that rebinds a builder must reach both references, bind
        # order through __wrapped__ and read the store's counts
        assert {builder.__name__ for builder in STORE_BUILDERS} == set(qfunctions._COUNTS)
        for builder in STORE_BUILDERS:
            assert getattr(qfunctions, builder.__name__) is builder
            assert next(iter(inspect.signature(builder).parameters)) == "order"
            assert hasattr(builder, "cache_info") and hasattr(builder, "__wrapped__")


# Installs the benchmark's tracer in a fresh interpreter (it rebinds qmex's
# module globals for good) and makes one positional call per builder shape.
_TRACED_CALLS = """
import json, tracing
from qmex import qfunctions as Q

tracer = tracing.Tracer()
tracing.install(tracer)
calls = {
    "refined_series": lambda: Q.refined_series(12, Q.RefinedKind.MEX, 2),
    "dcount_series": lambda: Q.dcount_series(12, 1),
    "sigma_series": lambda: Q.sigma_series(12, Q.Form.ALT1),
}
first = {}
for name, call in calls.items():
    n = len(tracer.spans)
    call()
    span = tracer.spans[n] if len(tracer.spans) > n else [None] * 5
    first[name] = [span[0], span[3]]  # span name, parent (-1 at top level)
routes = sorted(k for k in tracer.raw() if k.startswith("route:"))
print(json.dumps({"absent": sorted(tracer.absent), "first": first, "routes": routes}))
"""


def test_tracer_wraps_every_builder():
    src = pathlib.Path(qfunctions.__file__).parents[1]
    perfbench = pathlib.Path(__file__).parents[1] / "perfbench"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (src, perfbench))))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_CALLS], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    got = json.loads(proc.stdout)
    assert got["absent"] == []
    # each call opens a top-level build span
    top_level_build = ["qfunctions.build", -1]
    assert got["first"] == dict.fromkeys(("refined_series", "dcount_series", "sigma_series"), top_level_build)
    assert "route:sigma.alt1" in got["routes"]
