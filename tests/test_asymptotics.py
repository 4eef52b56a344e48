"""Tests for exact number-theoretic sums and floating-point asymptotics."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmex import asymptotics
from qmex.asymptotics import (
    EULER_GAMMA,
    HRR_MAX_PARTIAL,
    HRR_MAX_TERMS,
    AsymKind,
    HrrResult,
    NumericalIntegrityError,
    asym_value,
    bessel_I1,
    dedekind_sum,
    eta_ratio,
    hrr_sigma_mex,
    kloosterman_A,
    required_order,
    tauberian_ratio,
    zagier_value,
)
from qmex.qfunctions import distinct_gen, sigma_d_mex_series, sigma_mex_series, sigma_series

from dedekind_oracle import (
    fraction_kloosterman_A,
    sawtooth,
    scaled_direct_dedekind_sum,
    scaled_sawtooth,
)


class TestSawtooth:
    def test_integers_map_to_zero(self):
        for v in (-3, 0, 1, 12, Fraction(8)):
            assert sawtooth(v) == 0

    def test_exact_values(self):
        assert sawtooth(Fraction(1, 3)) == Fraction(-1, 6)
        assert sawtooth(Fraction(2, 3)) == Fraction(1, 6)
        assert sawtooth(Fraction(4, 3)) == Fraction(-1, 6)
        assert sawtooth(Fraction(-1, 3)) == Fraction(1, 6)

    @settings(max_examples=100)
    @given(st.integers(-300, 300), st.integers(1, 60))
    def test_periodic_and_odd(self, p, q):
        x = Fraction(p, q)
        assert sawtooth(x + 1) == sawtooth(x)
        assert sawtooth(-x) == -sawtooth(x)

    def test_scaled_form(self):
        for k in range(1, 30):
            for x in range(-3 * k, 3 * k + 1):
                assert scaled_sawtooth(x, k) == 2 * k * sawtooth(Fraction(x, k)), (x, k)


class TestDedekind:
    def test_trivial_modulus(self):
        assert dedekind_sum(1, 1) == 0
        assert dedekind_sum(0, 5) == 0

    def test_spot_values(self):
        # 12k s(h, k): s(1, 3) = 1/18 and s(2, 3) = -1/18
        assert dedekind_sum(1, 3) == 2
        assert dedekind_sum(2, 3) == -2
        assert dedekind_sum(1, 2) == 0

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            dedekind_sum(1, 0)

    def test_matches_direct_oracle_below_120(self):
        # every residue twice over, coprime or not, h = 0 included
        for k in range(1, 120):
            for h in range(0, 2 * k + 1):
                want = scaled_direct_dedekind_sum(h, k)
                assert want.denominator == 1, (h, k)
                got = dedekind_sum(h, k)
                assert type(got) is int and got == want, (h, k)

    @settings(max_examples=100)
    @given(st.integers(2, 80))
    def test_antisymmetry(self, k):
        for h in range(1, k):
            if math.gcd(h, k) == 1:
                assert dedekind_sum(k - h, k) == -dedekind_sum(h, k)

    def test_deep_euclid_chains(self):
        # consecutive Fibonacci numbers take the longest Euclid walk for
        # their size: F_3000, F_3001 have 627 digits and ~3000 steps, more
        # than the default recursion limit. Inversion and antisymmetry
        # are checked, neither of which is the reciprocity the code uses.
        a, b = 0, 1
        for _ in range(3000):
            a, b = b, a + b
        pairs = [(a, b)]
        rng = random.Random(16)
        while len(pairs) < 51:
            k = rng.getrandbits(600) | 1 << 599
            h = rng.randrange(1, k)
            if math.gcd(h, k) == 1:
                pairs.append((h, k))
        for h, k in pairs:
            t = dedekind_sum(h, k)
            assert type(t) is int
            assert dedekind_sum(pow(h, -1, k), k) == t, (h, k)
            assert dedekind_sum(k - h, k) == -t, (h, k)


class TestKloosterman:
    def test_k_equals_one(self):
        for n in (0, 1, 7, 100):
            re, im = kloosterman_A(1, n)
            assert re == pytest.approx(1.0, abs=1e-15)
            assert im == 0.0

    def test_known_value_k3(self):
        re, im = kloosterman_A(3, 1)
        assert re == pytest.approx(2 * math.cos(4 * math.pi / 9), abs=1e-12)
        assert im < 1e-12

    def test_imaginary_residue_stays_tiny(self):
        for k in range(1, 40):
            for n in range(0, 60, 7):
                _, im = kloosterman_A(k, n)
                assert im < 1e-9

    def test_periodic_in_n(self):
        # the phase -hn/k only sees n modulo k
        for k in (3, 5, 7, 12):
            for n in (0, 1, 4):
                a = kloosterman_A(k, n)[0]
                b = kloosterman_A(k, n + k)[0]
                assert a == pytest.approx(b, abs=1e-10)

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            kloosterman_A(0, 3)

    def test_equals_fraction_phase_oracle(self):
        # integer phases mod 12k against exact Fraction phases mod 1 on
        # the direct sum: every float must come out bit for bit the same
        for k in range(1, 80):
            for n in (0, 1, 7, 30, 200, 1000):
                assert kloosterman_A(k, n) == fraction_kloosterman_A(k, n), (k, n)


class TestBessel:
    def test_at_zero(self):
        assert bessel_I1(0.0) == 0.0

    def test_known_value(self):
        assert bessel_I1(2.0) == pytest.approx(1.590636854637329, rel=1e-14)

    def test_small_argument_linear(self):
        assert bessel_I1(1e-8) == pytest.approx(5e-9, rel=1e-9)

    def test_monotone_on_grid(self):
        values = [bessel_I1(0.5 * i) for i in range(1, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_I1(-0.1)

    def test_matches_direct_factorial_sum(self):
        # independent evaluation of the same power series, no recurrence
        for x in (0.5, 2.0, 7.0, 14.5):
            want = sum(
                (x / 2) ** (2 * j + 1) / (math.factorial(j) * math.factorial(j + 1))
                for j in range(60)
            )
            assert bessel_I1(x) == pytest.approx(want, rel=1e-13)


class TestHrr:
    def test_result_fields(self):
        res = hrr_sigma_mex(10, 3)
        assert isinstance(res, HrrResult)
        assert res.n == 10 and res.terms == 3
        assert res.residual == abs(res.partial_sum - res.rounded)
        assert res.residual <= 0.5

    def test_matches_series_for_small_n(self):
        smex = sigma_mex_series(12)
        for n in range(1, 13):
            true = smex.coefficient(n)
            hit = False
            for terms in range(1, 11):
                res = hrr_sigma_mex(n, terms)
                if res.residual < 0.4 and res.rounded == true:
                    hit = True
                    break
            assert hit, n

    def test_more_terms_tighten_n1(self):
        r1 = hrr_sigma_mex(1, 1)
        r4 = hrr_sigma_mex(1, 4)
        assert r4.residual < r1.residual
        assert r4.rounded == 2

    @pytest.mark.parametrize("n, terms", [(1, 20), (37, 20), (150, 20), (200, 20), (200, 35)])
    def test_bitwise_equal_with_direct_oracle(self, monkeypatch, n, terms):
        fast = hrr_sigma_mex(n, terms)
        monkeypatch.setattr(asymptotics, "dedekind_sum", scaled_direct_dedekind_sum)
        assert hrr_sigma_mex(n, terms) == fast

    @pytest.mark.parametrize(
        "want",
        [
            HrrResult(30, 100, 15588.996405752241, 15589, 0.0035942477588832844),
            HrrResult(200, 35, 17009243655185.096, 17009243655185, 0.095703125),
            HrrResult(1, 20, 2.010371170761984, 2, 0.010371170761983795),
            HrrResult(150, 20, 163470114858.02487, 163470114858, 0.024871826171875),
        ],
    )
    def test_pinned_values(self, want):
        # the exact-Fraction phase route gave these; they fix the hrr stdout
        assert hrr_sigma_mex(want.n, want.terms) == want

    @pytest.mark.parametrize("terms", [20, HRR_MAX_TERMS])
    @pytest.mark.parametrize("n", [222, 250, 300])
    def test_partial_past_double_rounding_raises(self, n, terms):
        # from n = 222 the double sum rounds to a wrong integer; 2^45 refuses first
        with pytest.raises(NumericalIntegrityError, match="2\\^45"):
            hrr_sigma_mex(n, terms)

    def test_rounds_exactly_below_the_partial_bound(self):
        smex = sigma_mex_series(230)
        for n in range(150, 231):
            if smex.coefficient(n) < HRR_MAX_PARTIAL:
                assert hrr_sigma_mex(n, 20).rounded == smex.coefficient(n), n
            else:
                with pytest.raises(NumericalIntegrityError):
                    hrr_sigma_mex(n, 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            hrr_sigma_mex(0, 3)
        with pytest.raises(ValueError):
            hrr_sigma_mex(3, 0)
        with pytest.raises(ValueError):
            hrr_sigma_mex(3, HRR_MAX_TERMS + 1)


class TestAsymValue:
    def test_sigma_d_mex_at_3(self):
        assert asym_value(AsymKind.SIGMA_D_MEX, 3) == pytest.approx(math.exp(math.pi) / 6, rel=1e-13)

    def test_closed_forms(self):
        n = 50
        assert asym_value(AsymKind.SIGMA_MEX, n) == pytest.approx(
            math.exp(math.pi * math.sqrt(2 * n / 3)) / (4 * (6 * n**3) ** 0.25), rel=1e-13
        )
        want = (
            (math.log(6 * n / math.pi**2) + 2 * EULER_GAMMA)
            / (4 * math.pi * math.sqrt(2 * n))
            * math.exp(math.pi * math.sqrt(2 * n / 3))
        )
        assert asym_value(AsymKind.SIGMA_L, n) == pytest.approx(want, rel=1e-13)

    def test_ratio_improves_with_n(self):
        s = sigma_d_mex_series(600)
        devs = [
            abs(1 - s.coefficient(n) / asym_value(AsymKind.SIGMA_D_MEX, n))
            for n in (100, 300, 600)
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_validation(self):
        with pytest.raises(ValueError):
            asym_value(AsymKind.SIGMA_MEX, 0)


class TestZagier:
    def test_value_at_tenth(self):
        assert zagier_value(0.1) == pytest.approx(1.8351631666666666, rel=1e-12)

    def test_against_series(self):
        # the expansion is asymptotic: the error at t behaves like t^6,
        # so halving t must shrink it by far more than the generic 2^6
        s = sigma_series(600)
        errs = {t: abs(s.eval_at(math.exp(-t)) - zagier_value(t)) for t in (0.2, 0.1, 0.05)}
        assert errs[0.1] < 2e-2
        assert errs[0.05] < 1e-3
        assert errs[0.05] < errs[0.1] < errs[0.2]

    def test_validation(self):
        with pytest.raises(ValueError):
            zagier_value(0.0)
        with pytest.raises(ValueError):
            zagier_value(-1.0)


class TestTauberian:
    def test_required_order(self):
        assert required_order(0.2) == 200
        assert required_order(0.1) == 800
        assert required_order(0.05) == 3200

    def test_order_precondition_enforced(self):
        with pytest.raises(ValueError):
            tauberian_ratio(0.1, 799)
        with pytest.raises(ValueError):
            eta_ratio(0.1, 100)

    def test_t_domain(self):
        for t in (0.0, -0.1, 0.3):
            with pytest.raises(ValueError):
                tauberian_ratio(t, 10**6)
            with pytest.raises(ValueError):
                eta_ratio(t, 10**6)

    def test_ratio_at_fifth(self):
        r = tauberian_ratio(0.2, 200)
        assert 0.5 < r < 1.0

    def test_eta_close_at_tenth(self):
        assert abs(eta_ratio(0.1, 800) - 1.0) < 0.02

    @pytest.mark.parametrize("t", [0.1, 0.05])
    def test_eta_ratio_tends_to_exp_t_over_24(self, t):
        # eta's modular transformation leaves exp(t/24), not 1
        assert abs(eta_ratio(t, required_order(t)) / math.exp(t / 24) - 1) < 1e-12

    def test_eta_value_is_product_value(self):
        t = 0.2
        x = math.exp(-t)
        direct = distinct_gen(200).eval_at(x)
        assert eta_ratio(t, 200) == pytest.approx(
            direct / (math.exp(math.pi**2 / (12 * t)) / math.sqrt(2)), rel=1e-12
        )
