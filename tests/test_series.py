"""Tests for the exact truncated-series engine."""

import decimal
import pathlib
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmex import asymptotics, series
from qmex.series import (
    INFINITE,
    IntSeries,
    NumericalIntegrityError,
    _div_binomial_inplace,
    _kronecker_mul,
    _newton_invert,
    _pack,
    _shift_round,
    _sparse_cutoff,
    _sparse_mul,
    _sparse_quotient,
    _unpack,
    one,
    poch,
)

from product_oracle import (
    binary_kronecker_mul,
    loop_div_binomial,
    loop_invert,
    loop_poch,
    loop_quotient,
    loop_sparse_mul,
)


def brute_mul(a, b):
    # reference convolution, written independently of the sparse-aware path
    n = min(len(a), len(b)) - 1
    out = [0] * (n + 1)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


class TestConstruction:
    def test_basic(self):
        s = IntSeries([1, 2, 3])
        assert s.order == 2
        assert s.coefficients() == (1, 2, 3)

    def test_empty_coefficients_rejected(self):
        with pytest.raises(ValueError):
            IntSeries([])

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            IntSeries([1, 2.5])
        with pytest.raises(TypeError):
            IntSeries([True, False])

    def test_equality_and_hash(self):
        assert IntSeries([1, 2]) == IntSeries([1, 2])
        assert IntSeries([1, 2]) != IntSeries([1, 2, 0])
        assert hash(IntSeries([1, 2])) == hash(IntSeries([1, 2]))

    def test_trusted_results_equal_checked_series(self):
        f = IntSeries([1, -2, 3, 0, 5])
        for got in (f * f, f + f, f - f, -f, f.invert(), poch(1, 1, 1, INFINITE, 4)):
            assert type(got) is IntSeries
            assert got == IntSeries(list(got.coefficients()))


class TestCoefficientAccess:
    def test_in_range(self):
        s = IntSeries([5, 6, 7])
        assert s.coefficient(0) == 5
        assert s.coefficient(2) == 7

    def test_past_truncation_raises(self):
        # never silently 0 beyond the retained range
        s = IntSeries([5, 6, 7])
        with pytest.raises(IndexError):
            s.coefficient(3)
        with pytest.raises(IndexError):
            s.coefficient(-1)


class TestArithmetic:
    def test_add_truncates_to_smaller_order(self):
        f = IntSeries([1, 1, 1, 1, 1, 1])
        g = IntSeries([1, 2, 3, 4])
        assert (f + g).coefficients() == (2, 3, 4, 5)

    def test_mul_example(self):
        f = IntSeries([1, 1, 1, 2])
        g = IntSeries([1, 1, -1, 2])
        assert (f * g).coefficients() == (1, 2, 1, 4)

    def test_mul_sparse_operand(self):
        f = IntSeries([1] * 9)
        theta = IntSeries([1, 0, 0, -1, 0, 0, 0, 0, 1])
        assert (f * theta).coefficients() == tuple(brute_mul([1] * 9, [1, 0, 0, -1, 0, 0, 0, 0, 1]))

    def test_invert_geometric(self):
        assert IntSeries([1, -1, 0, 0, 0]).invert().coefficients() == (1, 1, 1, 1, 1)
        assert IntSeries([1, 1, 0, 0]).invert().coefficients() == (1, -1, 1, -1)

    def test_invert_requires_unit_constant(self):
        with pytest.raises(ValueError):
            IntSeries([2, 1]).invert()
        with pytest.raises(ValueError):
            IntSeries([0, 1]).invert()

    def test_invert_negative_unit(self):
        f = IntSeries([-1, 1, 2])
        assert f * f.invert() == one(2)


class TestEval:
    def test_polynomial_value(self):
        s = IntSeries([1, 1, 1])
        assert s.eval_at(0.5) == pytest.approx(1.75, abs=1e-15)

    def test_domain_enforced(self):
        s = one(3)
        for x in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                s.eval_at(x)

    def test_geometric_tail(self):
        # prefix of 1/(1-q) at x=1/2 approaches 2 with error 2^-order
        s = IntSeries([1, -1] + [0] * 48).invert()
        assert abs(s.eval_at(0.5) - 2.0) < 2.0 ** -48

    def test_float_overflow_is_integrity_error(self):
        assert asymptotics.NumericalIntegrityError is NumericalIntegrityError
        with pytest.raises(NumericalIntegrityError, match="coefficient 0 "):
            IntSeries([10**400]).eval_at(0.5)
        with pytest.raises(NumericalIntegrityError, match="coefficient 2 "):
            IntSeries([1, 2, -(10**400), 4]).eval_at(0.5)
        with pytest.raises(NumericalIntegrityError, match="overflows"):
            IntSeries([10**308, 10**308]).eval_at(0.99)


class TestPoch:
    def test_infinite_product_distinct_counts(self):
        got = poch(1, 1, 1, INFINITE, 9)
        assert got.coefficients() == (1, 1, 1, 2, 2, 3, 4, 5, 6, 8)

    def test_high_base_truncates_to_single_factor(self):
        assert poch(1, 2, 1, INFINITE, 2).coefficients() == (1, 0, 1)

    def test_zero_count_is_one(self):
        assert poch(1, 1, 1, 0, 6) == one(6)

    def test_finite_count(self):
        # (1+q)(1+q^2) = 1 + q + q^2 + q^3
        assert poch(1, 1, 1, 2, 4).coefficients() == (1, 1, 1, 1, 0)

    def test_euler_product_pentagonal(self):
        # signs follow (-1)^j at generalized pentagonal exponents j(3j+-1)/2
        got = poch(-1, 1, 1, INFINITE, 12).coefficients()
        assert got == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            poch(2, 1, 1, INFINITE, 5)
        with pytest.raises(ValueError):
            poch(1, 0, 1, INFINITE, 5)
        with pytest.raises(ValueError):
            poch(1, 1, 0, INFINITE, 5)
        with pytest.raises(ValueError):
            poch(1, 1, 1, -2, 5)
        with pytest.raises(ValueError):
            poch(1, 1, 1, INFINITE, -1)

    @pytest.mark.parametrize("order", [-1, -3])
    def test_one_refuses_a_negative_order(self, order):
        with pytest.raises(ValueError):
            one(order)

    def test_euler_identity_small(self):
        n = 300
        lhs = poch(1, 1, 1, INFINITE, n) * poch(-1, 1, 2, INFINITE, n)
        assert lhs == one(n)


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=65)


@st.composite
def dense_coeffs(draw, bits=None, orders=(100, 600)):
    """Signed coefficients of an order in orders, too dense for the sparse loop."""
    n = draw(st.integers(min_value=orders[0], max_value=orders[1]))
    bits = bits if bits is not None else draw(st.sampled_from([3, 64, 200]))
    mag = 2**bits
    cs = draw(st.lists(st.integers(min_value=-mag, max_value=mag), min_size=n + 1, max_size=n + 1))
    for i in range(0, n + 1, 2):  # every other slot nonzero keeps nnz above the cutoff
        cs[i] = cs[i] or mag
    return cs


def dense_product(f, g):
    """f * g with the sparse loop disabled: only the Kronecker branch can answer."""
    with mock.patch.object(series, "_sparse_mul", side_effect=AssertionError("sparse loop ran")):
        return f * g


def sparse_product(f, g):
    """f * g with the Kronecker branch disabled: only the sparse loop can answer."""
    with mock.patch.object(series, "_kronecker_mul", side_effect=AssertionError("Kronecker ran")):
        return f * g


class TestRingLaws:
    @settings(max_examples=100)
    @given(coeff_lists, coeff_lists)
    def test_add_commutes(self, a, b):
        f, g = IntSeries(a), IntSeries(b)
        assert f + g == g + f

    @settings(max_examples=100)
    @given(coeff_lists, coeff_lists)
    def test_mul_commutes(self, a, b):
        f, g = IntSeries(a), IntSeries(b)
        assert f * g == g * f

    @settings(max_examples=60)
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_mul_associates(self, a, b, c):
        f, g, h = IntSeries(a), IntSeries(b), IntSeries(c)
        assert (f * g) * h == f * (g * h)

    @settings(max_examples=60)
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_distributive(self, a, b, c):
        f, g, h = IntSeries(a), IntSeries(b), IntSeries(c)
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=100)
    @given(coeff_lists, coeff_lists)
    def test_mul_matches_brute_force(self, a, b):
        assert (IntSeries(a) * IntSeries(b)).coefficients() == tuple(brute_mul(a, b))

    @settings(max_examples=100)
    @given(coeff_lists, st.sampled_from([1, -1]))
    def test_invert_round_trip(self, a, unit):
        a = [unit] + a[1:]
        f = IntSeries(a)
        assert f * f.invert() == one(f.order)

    @settings(max_examples=100)
    @given(
        st.sampled_from([1, -1]),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=80),
    )
    def test_poch_recurrence(self, sign, a, step, n, order):
        shorter = poch(sign, a, step, n, order)
        longer = poch(sign, a, step, n + 1, order)
        e = a + n * step
        factor = [0] * (order + 1)
        factor[0] = 1
        if e <= order:
            factor[e] = sign
        assert longer == shorter * IntSeries(factor)


class TestPackedPoch:
    """poch on one packed int against loop_poch, the list loop it replaced."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([1, -1]),
        st.integers(min_value=1, max_value=450),
        st.integers(min_value=1, max_value=9),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=12), st.just(INFINITE)),
        st.integers(min_value=0, max_value=400),
    )
    @example(sign=-1, a=1, step=1, count=INFINITE, order=0)
    @example(sign=1, a=5, step=1, count=INFINITE, order=4)  # a > order: no factor
    @example(sign=-1, a=1, step=1, count=0, order=30)
    # every factor up to 400, where the slots are widest and the rounding bit is set most
    @example(sign=-1, a=1, step=1, count=INFINITE, order=400)
    @example(sign=1, a=1, step=1, count=INFINITE, order=400)
    @example(sign=-1, a=1, step=2, count=INFINITE, order=400)
    def test_equals_the_list_loop(self, sign, a, step, count, order):
        assert list(poch(sign, a, step, count, order).coefficients()) == loop_poch(sign, a, step, count, order)


@st.composite
def unit_series(draw):
    """Coefficients of order 0-400 with constant term +-1, sparse or dense, small or 80-bit."""
    n = draw(st.integers(min_value=0, max_value=400))
    mag = draw(st.sampled_from([1, 3, 2**80]))
    values = st.integers(min_value=-mag, max_value=mag)
    cs = [0] * n
    if draw(st.booleans()):  # dense: every coefficient drawn
        cs = draw(st.lists(values, min_size=n, max_size=n))
    elif n:  # sparse: at most 12 nonzero entries at drawn places
        for i in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=12)):
            cs[i] = draw(values)
    return [draw(st.sampled_from([1, -1]))] + cs


class TestNewtonInvert:
    """invert against loop_invert, the support recurrence, on either side of its rule."""

    @settings(max_examples=80, deadline=None)
    @given(unit_series())
    @example(cs=[1])
    @example(cs=[-1])
    @example(cs=[1, -1] * 150)  # dense, order 299
    @example(cs=[-1] + [1] * 400)  # dense with constant -1, order 400
    def test_equals_the_support_loop(self, cs):
        assert list(IntSeries(cs).invert().coefficients()) == loop_invert(cs)

    @pytest.mark.parametrize("n", [25, 100, 400])  # 25: the lowest order a series can pass the rule
    @pytest.mark.parametrize("extra, newton", [(0, False), (1, True)])
    def test_rule_boundary(self, n, extra, newton):
        # nnz(f) == _sparse_cutoff(n) keeps the support loop; one more entry runs Newton
        nnz = _sparse_cutoff(n) + extra
        rng = random.Random(n * 2 + extra)
        cs = [0] * (n + 1)
        cs[0] = -1
        for i in rng.sample(range(1, n + 1), nnz - 1):
            cs[i] = rng.choice([1, -1, 2])
        with mock.patch.object(series, "_newton_invert", wraps=_newton_invert) as spy:
            got = IntSeries(cs).invert()
        assert spy.called is newton
        assert list(got.coefficients()) == loop_invert(cs)


class TestKroneckerProduct:
    """The dense branch of __mul__ against brute_mul, the schoolbook oracle."""

    @settings(max_examples=25, deadline=None)
    @given(dense_coeffs(), dense_coeffs())
    def test_dense_operands_match_brute_force(self, a, b):
        # independent orders: the product truncates to the smaller one
        got = dense_product(IntSeries(a), IntSeries(b))
        assert got.order == min(len(a), len(b)) - 1
        assert got.coefficients() == tuple(brute_mul(a, b))

    @settings(max_examples=10, deadline=None)
    @given(dense_coeffs(bits=200))
    def test_square_of_large_coefficients(self, a):
        f = IntSeries(a)
        assert dense_product(f, f).coefficients() == tuple(brute_mul(a, a))

    @settings(max_examples=15, deadline=None)
    @given(dense_coeffs(), dense_coeffs(), st.integers(min_value=1, max_value=2**200))
    def test_negative_high_slots(self, a, b, top):
        # the top slots of the full, untruncated product are negative: the
        # sign bias must cover them or the packed product is a negative int
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        a[-3:] = [-top, -top, -top]
        b[-3:] = [top, top, top]
        got = dense_product(IntSeries(a), IntSeries(b))
        assert got.coefficients() == tuple(brute_mul(a, b))

    def test_negative_high_slot_example(self):
        a = [1] * 200 + [-(2**100)]
        b = [1] * 200 + [2**100]
        assert dense_product(IntSeries(a), IntSeries(b)).coefficients() == tuple(brute_mul(a, b))

    @pytest.mark.parametrize(
        "a,b",
        [
            ([0], [0]),
            ([5], [-7]),
            ([0] * 50, [0] * 50),
            ([0] * 50, list(range(-25, 25))),
            ([-(2**200)] * 30, [2**200] * 30),
        ],
    )
    def test_kernel_on_zero_operands_and_order_zero(self, a, b):
        n = len(a) - 1
        assert _kronecker_mul(tuple(a), tuple(b), n) == brute_mul(a, b)
        assert (IntSeries(a) * IntSeries(b)).coefficients() == tuple(brute_mul(a, b))

    @settings(max_examples=30, deadline=None)
    # 25 is the least order whose n+1 slots can hold cutoff + 1 nonzero entries
    @given(st.integers(min_value=25, max_value=800), st.booleans(), st.integers(min_value=0))
    @example(n=25, above=False, seed=0)
    @example(n=800, above=True, seed=0)
    def test_sparse_times_dense_on_both_sides_of_the_crossover(self, n, above, seed):
        # nnz = cutoff runs the sparse loop, nnz = cutoff + 1 the Kronecker branch
        rng = random.Random(seed)
        sparse = [0] * (n + 1)
        for i in rng.sample(range(n + 1), _sparse_cutoff(n) + above):
            sparse[i] = rng.choice([-3, -1, 1, 2**70])
        dense = [rng.randint(-(2**80), 2**80) or 1 for _ in range(n + 1)]
        product = dense_product if above else sparse_product
        want = tuple(brute_mul(sparse, dense))
        assert product(IntSeries(sparse), IntSeries(dense)).coefficients() == want
        assert product(IntSeries(dense), IntSeries(sparse)).coefficients() == want


def decimal_spy():
    """Count the products the decimal branch of _kronecker_mul answers."""
    return mock.patch.object(series, "_decimal_kronecker", wraps=series._decimal_kronecker)


def signed_coeffs(n, bits, seed):
    rng = random.Random(seed)
    mag = 2**bits
    return [rng.randint(-mag, mag) for _ in range(n + 1)]


@st.composite
def seeded_dense_coeffs(draw, bits, orders):
    """dense_coeffs' shape from a drawn order, seed and slot: a few bytes of data at any order.

    Every other slot is nonzero and one slot is +-2^bits. Drawing each
    coefficient instead overruns hypothesis's data buffer at these sizes.
    """
    n = draw(st.integers(min_value=orders[0], max_value=orders[1]))
    mag = 2**bits
    cs = signed_coeffs(n, bits, draw(st.integers(min_value=0, max_value=2**32)))
    for i in range(0, n + 1, 2):
        cs[i] = cs[i] or mag
    cs[draw(st.integers(min_value=0, max_value=n))] = draw(st.sampled_from([mag, -mag]))
    return cs


class TestDecimalBranch:
    """_kronecker_mul on both sides of its decimal size rule.

    Every product is checked against the binary Kronecker kernel that the
    decimal branch replaced above the rule (tests/product_oracle.py), and
    every fixed case against brute_mul as well.
    """

    @pytest.mark.parametrize(
        "bits,n,decimal_runs",
        [
            # (n+1) slots of d decimal digits against _DECIMAL_MIN_DIGITS = 30,000
            (3, 2000, False),  # d = 7: 14,007 digits
            (3, 4500, True),  # d = 7: 31,507 digits
            (64, 300, False),  # d = 43: 12,943 digits
            (64, 800, True),  # d = 43: 34,443 digits
            (200, 100, False),  # d = 124: 12,524 digits
            (200, 300, True),  # d = 125: 37,625 digits
        ],
    )
    def test_orders_on_both_sides_of_the_size_rule(self, bits, n, decimal_runs):
        a, b = signed_coeffs(n, bits, 1), signed_coeffs(n, bits, 2)
        a[-1] = -(2**bits)  # a negative top slot, and max|a| exactly 2^bits
        b[-1] = 2**bits
        with decimal_spy() as spy:
            got = dense_product(IntSeries(a), IntSeries(b))
        assert spy.call_count == decimal_runs
        assert list(got.coefficients()) == brute_mul(a, b) == binary_kronecker_mul(a, b, n)

    @pytest.mark.parametrize("bits,n", [(64, 800), (200, 300)])
    def test_square_above_the_rule(self, bits, n):
        a = signed_coeffs(n, bits, 3)
        with decimal_spy() as spy:
            got = _kronecker_mul(tuple(a), tuple(a), n)
        assert spy.call_count == 1
        assert got == brute_mul(a, a) == binary_kronecker_mul(a, a, n)

    @settings(max_examples=15, deadline=None)
    @given(
        seeded_dense_coeffs(64, (600, 900)),
        seeded_dense_coeffs(64, (600, 900)),
        seeded_dense_coeffs(200, (200, 400)),
    )
    def test_decimal_products_match_the_binary_oracle(self, a, b, c):
        # orders straddle the rule: 64-bit slots cross it near 700, 200-bit near 240
        for f, g in ((a, b), (a, a), (c, c), (c, c[::-1])):
            n = min(len(f), len(g)) - 1
            f, g = tuple(f[: n + 1]), tuple(g[: n + 1])
            assert _kronecker_mul(f, g, n) == binary_kronecker_mul(f, g, n)

    def test_zero_operands_above_the_rule(self):
        n = 2000
        zeros, dense = [0] * (n + 1), signed_coeffs(n, 200, 4)
        assert _kronecker_mul(tuple(zeros), tuple(dense), n) == [0] * (n + 1)
        assert _kronecker_mul(tuple(dense), tuple(zeros), n) == [0] * (n + 1)
        assert _kronecker_mul(tuple(zeros), tuple(zeros), n) == [0] * (n + 1)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
    def test_slot_wider_than_the_int_str_limit_stays_binary(self):
        # one coefficient of 4,400 digits: 4,411-digit slots at order 10 are
        # 48,521 packed digits, above the rule, but str() would refuse a slot
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            n = 10
            a = [10**4400 - 7] + [3] * n
            b = list(range(1, n + 2))
            with decimal_spy() as spy:
                got = _kronecker_mul(tuple(a), tuple(b), n)
        finally:
            sys.set_int_max_str_digits(old)
        assert spy.call_count == 0
        assert got == brute_mul(a, b) == binary_kronecker_mul(a, b, n)

    def test_product_of_more_than_a_million_digits(self):
        # 2,140-digit coefficients at order 120: 241 slots of 4,284 digits,
        # 1,032,444 in all, past the default decimal exponent limit of 999,999
        n = 120
        rng = random.Random(5)
        a = [rng.randint(-(10**2140), 10**2140) for _ in range(n + 1)]
        b = [rng.randint(-(10**2140), 10**2140) for _ in range(n + 1)]
        with decimal_spy() as spy:
            got = _kronecker_mul(tuple(a), tuple(b), n)
        assert spy.call_count == 1
        assert got == binary_kronecker_mul(a, b, n) == brute_mul(a, b)

    def test_a_product_that_would_round_raises(self, monkeypatch):
        # room for the operands but not for their product: libmpdec would
        # round, and the trapped context raises instead of returning
        n = 300
        a = signed_coeffs(n, 200, 6)
        monkeypatch.setattr(decimal, "MAX_PREC", (n + 1) * 130)
        with pytest.raises((decimal.Inexact, decimal.Rounded)):
            _kronecker_mul(tuple(a), tuple(a), n)


@st.composite
def slot_coefficients(draw):
    """A slot width w of 1-40 bytes and signed slots in [-h, h), h = 2^(8w-1), -h and h-1 among them."""
    w = draw(st.integers(min_value=1, max_value=40))
    h = 1 << (8 * w - 1)
    cs = draw(st.lists(st.integers(min_value=-h, max_value=h - 1), max_size=12))
    for extreme in (-h, h - 1):
        cs.insert(draw(st.integers(min_value=0, max_value=len(cs))), extreme)
    return w, cs


@st.composite
def shifted_slots(draw):
    """A slot width w of 1-40 bytes, slots in (-h, h) with -(h-1) and h-1 among them, and 0 <= s <= their count."""
    w = draw(st.integers(min_value=1, max_value=40))
    h = 1 << (8 * w - 1)
    cs = draw(st.lists(st.integers(min_value=-(h - 1), max_value=h - 1), max_size=12))
    for extreme in (-(h - 1), h - 1):
        cs.insert(draw(st.integers(min_value=0, max_value=len(cs))), extreme)
    return w, cs, draw(st.integers(min_value=0, max_value=len(cs)))


@st.composite
def packed_with_top_slots(draw):
    """slot_coefficients, some of the top slots zeroed, and a length 0 <= k below their count."""
    w, cs = draw(slot_coefficients())
    zeroed = draw(st.integers(min_value=0, max_value=len(cs)))
    cs[:zeroed] = [0] * zeroed
    return w, cs, draw(st.integers(min_value=0, max_value=len(cs) - 1))


class TestSlotCodec:
    """_pack, _unpack and _shift_round, the slot codec of _kronecker_mul, poch and the qfunctions slice streams."""

    @settings(max_examples=80, deadline=None)
    @given(slot_coefficients())
    # at k = 3 every kept slot is negative, -h among them, and the dropped part
    # 127 X^2 - 7 X + 5 is just below X^3 / 2: the read must round down
    @example(case=(1, [-128, -1, -128, 127, -7, 5]))
    # the widest slot, both extremes
    @example(case=(40, [-(2**319), 2**319 - 1, -1, -(2**319), 0]))
    def test_unpack_reads_every_prefix_of_a_pack(self, case):
        w, cs = case
        h = 1 << (8 * w - 1)
        packed = _pack(cs, w)
        assert _unpack(packed, len(cs), w) == cs
        # the top k slots, read as _kronecker_mul reads a product: exact while every
        # dropped slot is in (-h, h), which the product's bound < h keeps
        for k in range(len(cs) + 1):
            if -h not in cs[k:]:
                assert _unpack(_shift_round(packed, 8 * w * (len(cs) - k)), k, w) == cs[:k]

    @settings(max_examples=80, deadline=None)
    @given(shifted_slots())
    # the dropped slot is -1, so the floor of 5 * 256 - 1 over 256 reads 4, one off
    @example(case=(1, [5, -1], 1))
    # the widest slot, both extremes dropped and kept
    @example(case=(40, [2**319 - 1, -(2**319 - 1), 2**319 - 1, -(2**319 - 1)], 2))
    # s = 0 shifts by 0 bits, which has no rounding bit
    @example(case=(1, [5, -1], 0))
    def test_shift_round_drops_the_lowest_slots(self, case):
        w, cs, s = case
        assert _unpack(_shift_round(_pack(cs, w), 8 * w * s), len(cs) - s, w) == cs[: len(cs) - s]

    @settings(max_examples=80, deadline=None)
    @given(packed_with_top_slots())
    # the slot above is -1 or +1 over slots an all-ones mask would have read as [5, -7]
    @example(case=(1, [-1, 5, -7], 2))
    @example(case=(1, [1, 5, -7], 2))
    # the slot above is -h or h - 1 over the two extremes
    @example(case=(40, [-(2**319), 2**319 - 1, -(2**319)], 2))
    @example(case=(40, [2**319 - 1, -(2**319), 2**319 - 1], 2))
    def test_unpack_refuses_a_nonzero_slot_above_its_length(self, case):
        w, cs, k = case
        packed = _pack(cs, w)
        if any(cs[: len(cs) - k]):
            with pytest.raises(OverflowError):
                _unpack(packed, k, w)
        else:
            assert _unpack(packed, k, w) == cs[len(cs) - k :]


class TestSparseKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=300),
        st.lists(st.sampled_from([1, -1, 2, -5, 2**70, -(2**90)]), max_size=40),
        st.integers(min_value=0),
    )
    def test_packed_product_matches_the_double_loop(self, n, values, seed):
        rng = random.Random(seed)
        sparse = [0] * (n + 1)
        for i, v in zip(rng.sample(range(n + 1), min(len(values), n + 1)), values):
            sparse[i] = v
        dense = [rng.randint(-(2**80), 2**80) for _ in range(n + 1)]
        want = loop_sparse_mul(sparse, dense, n)
        assert _sparse_mul(tuple(sparse), tuple(dense), n) == want == brute_mul(sparse, dense)

    @pytest.mark.parametrize(
        "sparse, dense",
        [
            # order 0: one slot, shifted by 0 bits
            ([-3], [7]),
            ([0], [-(2**200)]),
            # a nonzero a_n keeps only the top slot of its shift
            ([0, 0, 0, -1], [5, -6, 7, -8]),
            ([1, 0, 0, 2**64], [2**200 - 1, -3, 1, -(2**200)]),
            # an all-zero dense operand
            ([1, -1, 0, 5], [0, 0, 0, 0]),
            # |a_i| > 1 whose absolute sum, not its largest entry, sets the slot width:
            # 3 * 64 * (2^200 - 1) passes the h = 2^207 that 64 * (2^200 - 1) alone needs
            ([64, 64, 64, 0, 0], [2**200 - 1] * 5),
            ([-64, 64, -64, 0, 0], [-(2**200 - 1), 2**200 - 1] * 2 + [1]),
            # dense slots near +-2^200 of both signs; the shift by 2 drops a negative part,
            # which a floor shift reads one too low
            ([1, -1, 1, 0, 0, -1], [2**200, 2**200 - 1, -(2**200), -(2**200) + 1, -(2**200), 2**200]),
        ],
    )
    def test_packed_product_examples(self, sparse, dense):
        n = len(sparse) - 1
        want = loop_sparse_mul(sparse, dense, n)
        assert _sparse_mul(tuple(sparse), tuple(dense), n) == want == brute_mul(sparse, dense)


class TestSparseQuotient:
    """_sparse_quotient against loop_quotient, the recurrence one multiplication a term."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=300),
        st.sampled_from([1, -1]),
        st.lists(st.integers(min_value=-3, max_value=3), max_size=40),
        st.integers(min_value=0, max_value=2**32),
    )
    @example(n=0, unit=-1, values=[], seed=0)
    @example(n=300, unit=1, values=[1, -1, 2, -2, 3, -3] * 6, seed=1)
    def test_grouped_sums_match_the_term_loop(self, n, unit, values, seed):
        # g_0 = +-1 and the drawn values at sampled exponents, several of each value;
        # a signed numerator up to 2^200
        rng = random.Random(seed)
        g = [unit] + [0] * n
        for i, v in zip(rng.sample(range(1, n + 1), min(len(values), n)), values):
            g[i] = v
        f = signed_coeffs(n, 200, seed)
        assert _sparse_quotient(f, tuple(g)) == loop_quotient(f, g)

    @pytest.mark.parametrize(
        "f, g, want",
        [
            # order 0
            ([5], [1], [5]),
            ([5], [-1], [-5]),
            # g = +-1 returns f or -f
            ([1, -2, 2**200, 0], [1, 0, 0, 0], [1, -2, 2**200, 0]),
            ([1, -2, 2**200, 0], [-1, 0, 0, 0], [-1, 2, -(2**200), 0]),
        ],
    )
    def test_quotient_examples(self, f, g, want):
        assert _sparse_quotient(f, tuple(g)) == want == loop_quotient(f, g)


class TestDivBinomial:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=2**32))
    @example(length=0, seed=0)
    @example(length=1, seed=0)
    @example(length=300, seed=1)
    def test_running_sums_match_the_loop(self, length, seed):
        # signed coefficients up to 2^200, divided by 1 + sign q^m for either sign and every
        # m in 1..length + 1: m at or past half the length, where q^2m is past the order and
        # the division is one binomial product, and m at or past the length included
        cs = signed_coeffs(length - 1, 200, seed)
        for sign in (1, -1):
            for m in range(1, length + 2):
                got = list(cs)
                _div_binomial_inplace(got, sign, m)
                assert got == loop_div_binomial(cs, sign, m), (sign, m)


@pytest.fixture(scope="module")
def modules_loaded_by_import():
    # the top-level modules that importing qmex, qmex.cli and qmex.__main__ newly
    # loads, read from one fresh -I interpreter
    src = str(pathlib.Path(series.__file__).parents[1])
    code = f"""
import sys
before = set(sys.modules)
sys.path.insert(0, {src!r})
import qmex, qmex.cli, qmex.__main__
print(" ".join(sorted({{name.partition(".")[0] for name in set(sys.modules) - before}})))
"""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    return set(proc.stdout.split())


def test_import_loads_no_decimal(modules_loaded_by_import):
    # decimal is imported at the first large product, never at import time
    assert not {"decimal", "_decimal"} & modules_loaded_by_import


def test_import_loads_no_json_or_datetime(modules_loaded_by_import):
    # json is imported where JSON is written, datetime by export alone
    assert not {"json", "datetime", "_datetime"} & modules_loaded_by_import


def test_import_loads_nothing_outside_the_standard_library(modules_loaded_by_import):
    assert "qmex" in modules_loaded_by_import
    outside = modules_loaded_by_import - {"qmex"} - sys.stdlib_module_names
    assert not outside, sorted(outside)


def test_zero_and_one():
    assert one(0).coefficients() == (1,)
    f = IntSeries([4, -2, 7])
    assert f + IntSeries([0, 0, 0]) == f
    assert f * one(2) == f
