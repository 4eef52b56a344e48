"""Tests for the identity registry and the verification harness."""

import dataclasses

import pytest

from qmex import asymptotics, cli, identities, series
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
    verify_each,
)
from qmex import partitions, qfunctions
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


def test_only_the_check_records_are_dataclasses():
    """Every other record is a NamedTuple; these two wait for the benchmark's tracer."""
    modules = (series, partitions, qfunctions, identities, asymptotics, cli)
    found = {
        f"{m.__name__}.{name}"
        for m in modules
        for name, obj in vars(m).items()
        if isinstance(obj, type) and obj.__module__ == m.__name__ and dataclasses.is_dataclass(obj)
    }
    assert found == {"qmex.identities.SeriesPair", "qmex.identities.OraclePair"}, (
        "only SeriesPair and OraclePair stay dataclasses: perfbench/tracing.py rebinds the "
        "builders a registry check holds through dataclasses.fields; make any other record a NamedTuple"
    )


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

    def test_same_n_reports_the_first_registered_check(self):
        def off_at_4(order):
            c = list(sigma_d_mex_series(order).coefficients())
            c[4] += 1
            return IntSeries(c)

        desc = IdentityDescriptor(
            name="planted-tie",
            checks=(
                SeriesPair("registered-first", sigma_d_mex_series, off_at_4),
                SeriesPair("registered-second", off_at_4, sigma_d_mex_series),
            ),
            default_range=20,
            statement="both checks wrong at 4",
        )
        report = verify_descriptor(desc)
        assert report.first_mismatch.n == 4
        assert report.first_mismatch.check == "registered-first"

    def test_short_route_is_an_error_not_a_pass(self):
        desc = IdentityDescriptor(
            name="planted-short-route",
            checks=(SeriesPair("short", sigma_d_mex_series, lambda o: sigma_d_mex_series(o - 1)),),
            default_range=20,
            statement="rhs stops one coefficient short",
        )
        with pytest.raises(IndexError):
            verify_descriptor(desc)

    def test_pass_on_exact_equality(self):
        desc = IdentityDescriptor(
            name="self-comparison",
            checks=(SeriesPair("same", sigma_d_mex_series, sigma_d_mex_series),),
            default_range=30,
            statement="trivially true",
        )
        assert verify_descriptor(desc).passed

    def test_the_comparison_is_read_from_the_checks(self):
        assert IdentityDescriptor._fields == ("name", "checks", "default_range", "statement")
        pair = SeriesPair("same", sigma_d_mex_series, sigma_d_mex_series)
        oracle = OraclePair("enumerated", sigma_d_mex_series, lambda n: 0)
        assert IdentityDescriptor("s", (pair, pair), 5, "").comparison is Comparison.SERIES_SERIES
        assert IdentityDescriptor("o", (oracle,), 5, "").comparison is Comparison.SERIES_ORACLE

    def test_the_verdict_is_read_from_the_mismatch(self):
        passed = VerificationReport("x", 3)
        assert passed.status is Status.PASS and passed.passed
        failed = VerificationReport("x", 3, Mismatch(2, 1, 0, "planted"))
        assert failed.status is Status.FAIL and not failed.passed
        assert "status" not in VerificationReport._fields


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

    @pytest.mark.parametrize("scan", [monotonicity_check, parity_check, positivity_check])
    def test_order_above_the_cap_refused_before_any_work(self, monkeypatch, scan):
        def no_work(*args):
            raise AssertionError("work done")

        monkeypatch.setattr(partitions, "_walk", no_work)
        monkeypatch.setattr(qfunctions, "_nested_sum", no_work)
        monkeypatch.setattr(qfunctions, "_euler_product", no_work)
        with pytest.raises(ValueError, match="outside the supported range"):
            scan(qfunctions.MAX_ORDER + 1)


class TestVerifyEach:
    def test_each_entry_gets_the_range_of_its_comparison(self):
        reports = verify_each(["euler-identity", "a-d-oracle", "d-i-sum"], 50, 20)
        assert [(r.name, r.range_checked, r.passed) for r in reports] == [
            ("euler-identity", 50, True),
            ("a-d-oracle", 20, True),
            ("d-i-sum", 50, True),
        ]

    def test_defaults_when_no_range_is_given(self):
        (report,) = verify_each(["a-d-oracle"])
        assert report.range_checked == next(d for d in registry() if d.name == "a-d-oracle").default_range

    def test_a_bad_range_refuses_before_any_entry_is_verified(self, monkeypatch):
        def no_verify(*args):
            raise AssertionError("verified")

        monkeypatch.setattr(identities, "verify", no_verify)
        with pytest.raises(ValueError, match="budget"):
            verify_each(["euler-identity", "a-d-oracle"], 50, 300)
        with pytest.raises(KeyError):
            verify_each(["euler-identity", "not-an-identity"])



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
            Mismatch(11, c11, c11, "strict-increase"),
            "boundary equality at 6 -> 7 (both 8)",
        )

    def test_oracle_gate(self, monkeypatch):
        # the gate compares the a route with enumeration up to n = 35
        want = qfunctions.a_series(40).coefficient(10)
        _plant(monkeypatch, "a_series", 10, lambda v: v + 1)
        assert parity_check(40) == VerificationReport(
            "parity", 40, Mismatch(10, want + 1, want, "oracle-gate")
        )

    def test_odd_iff_pentagonal_pair(self, monkeypatch):
        # n = 50 is past the gate and not twice a pentagonal number, so a(50) is even
        _plant(monkeypatch, "a_series", 50, lambda v: v + 1)
        assert parity_check(60) == VerificationReport(
            "parity", 60, Mismatch(50, 1, 0, "odd-iff-pentagonal-pair")
        )

    def test_mex_sum_parity(self, monkeypatch):
        odd = qfunctions.a_series(20).coefficient(5) % 2
        _plant(monkeypatch, "sigma_mex_series", 5, lambda v: v + 1)
        assert parity_check(20) == VerificationReport(
            "parity", 20, Mismatch(5, 1 - odd, odd, "mex-sum-parity")
        )

    def test_zero_at_one(self, monkeypatch):
        _plant(monkeypatch, "a_d_series", 1, lambda v: 3)
        assert positivity_check(20) == VerificationReport(
            "positivity", 20, Mismatch(1, 3, 0, "zero-at-one")
        )

    @pytest.mark.parametrize("n", [0, 2, 17])
    def test_strictly_positive(self, monkeypatch, n):
        _plant(monkeypatch, "a_d_series", n, lambda v: 0)
        assert positivity_check(20) == VerificationReport(
            "positivity", 20, Mismatch(n, 0, 1, "strictly-positive")
        )
