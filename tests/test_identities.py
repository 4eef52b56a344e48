"""Tests for the identity registry and the verification harness."""

import pytest

from qmex import identities
from qmex.identities import (
    Comparison,
    IdentityDescriptor,
    Mismatch,
    OraclePair,
    SeriesPair,
    Status,
    VerificationReport,
    monotonicity_check,
    parity_check,
    positivity_check,
    registry,
    verify,
    verify_descriptor,
)
from qmex import qfunctions
from qmex.qfunctions import Form, sigma_d_mex_series
from qmex.series import IntSeries


REQUIRED_NAMES = {
    "thm-sigma-d-mex",
    "sigma-sum-identity",
    "a-d-form-equivalence",
    "moex-form-equivalence",
    "euler-identity",
    "d-i-sum",
    "d-i-bijection",
    "sigma-mex-equals-d2-oracle",
    "chern-sigma-maex-oracle",
    "a-series-oracle-gate",
}


class TestRegistry:
    def test_size_and_names(self):
        entries = registry()
        names = [d.name for d in entries]
        assert len(entries) >= 14
        assert len(names) == len(set(names))
        assert REQUIRED_NAMES <= set(names)

    def test_form_equivalences_pair_every_catalogued_form(self):
        labels = {d.name: [c.label for c in d.checks] for d in registry()}
        for name in ("thm-sigma-d-mex", "sigma-sum-identity", "a-d-form-equivalence"):
            assert labels[name] == ["canonical-vs-alt1"]
        assert labels["moex-form-equivalence"] == ["canonical-vs-alt1", "canonical-vs-alt2", "alt1-vs-alt2"]

    def test_descriptors_are_complete(self):
        for d in registry():
            assert d.checks, d.name
            assert d.default_range > 0
            assert d.statement
            if d.comparison is Comparison.SERIES_SERIES:
                assert all(isinstance(c, SeriesPair) for c in d.checks)
            else:
                assert all(isinstance(c, OraclePair) for c in d.checks)


class TestVerify:
    @pytest.mark.parametrize("name", sorted(REQUIRED_NAMES))
    def test_required_identities_pass(self, name):
        d = next(x for x in registry() if x.name == name)
        rng = 120 if d.comparison is Comparison.SERIES_SERIES else min(d.default_range, 25)
        report = verify(name, rng)
        assert report.passed, report
        assert report.range_checked == rng
        assert report.first_mismatch is None

    def test_remaining_identities_pass(self):
        for d in registry():
            if d.name in REQUIRED_NAMES:
                continue
            rng = 120 if d.comparison is Comparison.SERIES_SERIES else min(d.default_range, 25)
            report = verify(d.name, rng)
            assert report.passed, report

    def test_default_range_used_when_omitted(self):
        d = next(x for x in registry() if x.name == "sigma-sum-identity")
        assert verify("sigma-sum-identity").range_checked == d.default_range

    def test_unknown_identity(self):
        with pytest.raises(KeyError):
            verify("not-an-identity", 10)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            verify("euler-identity", -1)

    def test_sigma_mex_d2_example(self):
        report = verify("sigma-mex-equals-d2-oracle", 30)
        assert report.passed and report.range_checked == 30


class TestHarnessDetectsPerturbations:
    """The harness itself is under test: a planted bug must be caught."""

    def test_series_perturbation_found_at_smallest_index(self):
        def broken(order):
            c = list(sigma_d_mex_series(order).coefficients())
            if order >= 7:
                c[7] += 1
            return IntSeries(c)

        desc = IdentityDescriptor(
            name="planted-series-bug",
            comparison=Comparison.SERIES_SERIES,
            checks=(SeriesPair("planted", sigma_d_mex_series, broken),),
            default_range=40,
            statement="intentionally wrong at index 7",
        )
        report = verify_descriptor(desc)
        assert report.status is Status.FAIL
        assert report.first_mismatch.n == 7
        assert report.first_mismatch.lhs + 1 == report.first_mismatch.rhs

    def test_form_routes_are_looked_up_at_call_time(self, monkeypatch):
        real, forms = qfunctions._CATALOGUE["sigma-d-moex"]

        def planted(order, form=Form.CANONICAL):
            c = list(real(order, form).coefficients())
            if form is Form.ALT2 and order >= 9:
                c[9] += 1
            return IntSeries(c)

        monkeypatch.setitem(qfunctions._CATALOGUE, "sigma-d-moex", (planted, forms))
        report = verify("moex-form-equivalence", 30)
        assert report.status is Status.FAIL
        assert (report.first_mismatch.n, report.first_mismatch.check) == (9, "canonical-vs-alt2")

    def test_oracle_perturbation_found(self):
        desc = IdentityDescriptor(
            name="planted-oracle-bug",
            comparison=Comparison.SERIES_ORACLE,
            checks=(
                OraclePair("planted", sigma_d_mex_series, lambda n: -1 if n == 5 else sigma_d_mex_series(40).coefficient(n)),
            ),
            default_range=12,
            statement="oracle intentionally wrong at n = 5",
        )
        report = verify_descriptor(desc)
        assert report.status is Status.FAIL
        assert report.first_mismatch.n == 5
        assert report.first_mismatch.rhs == -1

    def test_smallest_mismatch_across_checks(self):
        def off_at(idx):
            def builder(order):
                c = list(sigma_d_mex_series(order).coefficients())
                c[idx] += 1
                return IntSeries(c)

            return builder

        desc = IdentityDescriptor(
            name="planted-two-bugs",
            comparison=Comparison.SERIES_SERIES,
            checks=(
                SeriesPair("later", sigma_d_mex_series, off_at(9)),
                SeriesPair("earlier", sigma_d_mex_series, off_at(3)),
            ),
            default_range=20,
            statement="wrong at 9 and at 3; report must pick 3",
        )
        report = verify_descriptor(desc)
        assert report.status is Status.FAIL
        assert report.first_mismatch.n == 3
        assert report.first_mismatch.check == "earlier"

    def test_pass_on_exact_equality(self):
        desc = IdentityDescriptor(
            name="self-comparison",
            comparison=Comparison.SERIES_SERIES,
            checks=(SeriesPair("same", sigma_d_mex_series, sigma_d_mex_series),),
            default_range=30,
            statement="trivially true",
        )
        assert verify_descriptor(desc).passed


class TestScans:
    def test_monotonicity_small_range(self):
        report = monotonicity_check(300)
        assert report.passed
        assert "6 -> 7" in report.note

    def test_monotonicity_boundary_values(self):
        s = sigma_d_mex_series(8)
        assert s.coefficient(6) == s.coefficient(7) == 8
        assert s.coefficient(8) > s.coefficient(7)

    def test_monotonicity_needs_room(self):
        with pytest.raises(ValueError):
            monotonicity_check(7)

    def test_monotonicity_report_shape(self):
        report = monotonicity_check(50)
        assert report.name == "monotonicity"
        assert report.range_checked == 50

    def test_parity(self):
        report = parity_check(120)
        assert report.passed, report

    def test_parity_small(self):
        assert parity_check(10).passed
        with pytest.raises(ValueError):
            parity_check(0)

    def test_positivity(self):
        report = positivity_check(200)
        assert report.passed, report
        with pytest.raises(ValueError):
            positivity_check(1)



def _plant(monkeypatch, name, n, change):
    """Point identities.name at its qfunctions builder with coefficient n replaced by change(old).

    The builder's store is left as it was.
    """
    builder = getattr(qfunctions, name)

    def build(order):
        c = list(builder(order).coefficients())
        c[n] = change(c[n])
        return IntSeries(c)

    monkeypatch.setattr(identities, name, build)


class TestScanVerdicts:
    """Each FAIL branch of the scans, reached by planting one wrong coefficient."""

    def test_strict_increase(self, monkeypatch):
        c11 = sigma_d_mex_series(20).coefficient(11)
        _plant(monkeypatch, "sigma_d_mex_series", 12, lambda v: c11)
        assert monotonicity_check(20) == VerificationReport(
            "monotonicity",
            20,
            Status.FAIL,
            Mismatch(11, c11, c11, "strict-increase"),
            "boundary equality at 6 -> 7 (both 8)",
        )

    def test_oracle_gate(self, monkeypatch):
        # the gate compares the a route with enumeration up to n = 35
        want = qfunctions.a_series(40).coefficient(10)
        _plant(monkeypatch, "a_series", 10, lambda v: v + 1)
        assert parity_check(40) == VerificationReport(
            "parity", 40, Status.FAIL, Mismatch(10, want + 1, want, "oracle-gate")
        )

    def test_odd_iff_pentagonal_pair(self, monkeypatch):
        # n = 50 is past the gate and not twice a pentagonal number, so a(50) is even
        _plant(monkeypatch, "a_series", 50, lambda v: v + 1)
        assert parity_check(60) == VerificationReport(
            "parity", 60, Status.FAIL, Mismatch(50, 1, 0, "odd-iff-pentagonal-pair")
        )

    def test_mex_sum_parity(self, monkeypatch):
        odd = qfunctions.a_series(20).coefficient(5) % 2
        _plant(monkeypatch, "sigma_mex_series", 5, lambda v: v + 1)
        assert parity_check(20) == VerificationReport(
            "parity", 20, Status.FAIL, Mismatch(5, 1 - odd, odd, "mex-sum-parity")
        )

    def test_zero_at_one(self, monkeypatch):
        _plant(monkeypatch, "a_d_series", 1, lambda v: 3)
        assert positivity_check(20) == VerificationReport(
            "positivity", 20, Status.FAIL, Mismatch(1, 3, 0, "zero-at-one")
        )

    @pytest.mark.parametrize("n", [0, 2, 17])
    def test_strictly_positive(self, monkeypatch, n):
        _plant(monkeypatch, "a_d_series", n, lambda v: 0)
        assert positivity_check(20) == VerificationReport(
            "positivity", 20, Status.FAIL, Mismatch(n, 0, 1, "strictly-positive")
        )
