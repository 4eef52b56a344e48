"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines and measured values; tolerances and ranges are fixed here and are
not tuned at runtime.
"""

import math
import time

from qmex.asymptotics import (
    HRR_MAX_TERMS,
    AsymKind,
    asym_value,
    dedekind_sum,
    eta_ratio,
    hrr_sigma_mex,
    tauberian_ratio,
    zagier_value,
)
from qmex.identities import (
    monotonicity_check,
    parity_check,
    positivity_check,
    registry,
    verify,
)
from qmex.partitions import (
    CountKind,
    StatKind,
    refined_count_oracle,
    stat_sum_oracle,
)
from qmex.qfunctions import (
    a_d_series,
    a_series,
    chern_sigma_maex_series,
    clear_cache,
    sigma_L_series,
    sigma_d_maex_series,
    sigma_d_mex_series,
    sigma_d_moex_series,
    sigma_mex_series,
    sigma_series,
)

from dedekind_oracle import scaled_direct_dedekind_sum


def _verdict(num: int, ok: bool, summary: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {summary}")
    assert ok, f"criterion {num:02d}: {summary}"


def test_c01_identity_suite_full_order():
    t0 = time.monotonic()
    reports = [verify(d.name) for d in registry()]  # series entries default to order 300
    elapsed = time.monotonic() - t0
    failed = [r for r in reports if not r.passed]
    ok = len(reports) >= 14 and not failed and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"identity suite, {len(reports)} identities at default ranges "
        f"(series order 300), {elapsed:.1f}s"
        + (f"; FAILED: {[r.name for r in failed]}" if failed else ""),
    )


def test_c02_oracle_agreement():
    bad = []
    d40 = {
        "sigma-d-mex": (sigma_d_mex_series(40), lambda n: stat_sum_oracle(StatKind.MEX, n, True)),
        "a-d": (a_d_series(40), lambda n: refined_count_oracle(CountKind.ODD_MEX, 0, n, True)),
        "sigma-d-moex": (sigma_d_moex_series(40), lambda n: stat_sum_oracle(StatKind.MOEX, n, True)),
        "sigma-d-maex": (sigma_d_maex_series(40), lambda n: stat_sum_oracle(StatKind.MAEX, n, True)),
    }
    for name, (s, oracle) in d40.items():
        for n in range(41):
            if s.coefficient(n) != oracle(n):
                bad.append((name, n))
                break
    a30 = {
        "sigma-mex": (sigma_mex_series(30), lambda n: stat_sum_oracle(StatKind.MEX, n)),
        "chern-sigma-maex": (chern_sigma_maex_series(30), lambda n: stat_sum_oracle(StatKind.MAEX, n)),
        "sigma-l": (sigma_L_series(30), lambda n: stat_sum_oracle(StatKind.LARGEST, n)),
        "a": (a_series(30), lambda n: refined_count_oracle(CountKind.ODD_MEX, 0, n)),
    }
    for name, (s, oracle) in a30.items():
        for n in range(31):
            if s.coefficient(n) != oracle(n):
                bad.append((name, n))
                break
    # diagnostic: the all-partition maex sum trails the largest-part sum
    # and drifts upward toward it
    r20 = chern_sigma_maex_series(20).coefficient(20) / sigma_L_series(20).coefficient(20)
    r60 = chern_sigma_maex_series(60).coefficient(60) / sigma_L_series(60).coefficient(60)
    drift_ok = 0.0 < r20 < r60 < 1.0
    ok = not bad and drift_ok
    _verdict(
        2,
        ok,
        f"oracle agreement, distinct to n=40 and all-partition to n=30"
        + (f"; mismatches {bad}" if bad else "")
        + f"; maex/largest drift {r20:.3f} -> {r60:.3f}",
    )


def test_c03_golden_prefixes():
    checks = [
        (sigma_d_mex_series(7).coefficients(), (1, 2, 1, 4, 3, 4, 8, 8)),
        (a_d_series(7).coefficients(), (1, 0, 1, 2, 1, 2, 2, 4)),
        (sigma_d_moex_series(4).coefficients(), (1, 3, 1, 4, 6)),
        (sigma_d_maex_series(5).coefficients(), (0, 0, 1, 2, 5, 8)),
    ]
    ok = all(got == want for got, want in checks)
    _verdict(3, ok, f"golden prefixes for the four distinct-part statistic sums: {checks if not ok else 'all match'}")


def test_c04_positivity_to_500():
    report = positivity_check(500)
    _verdict(4, report.passed, f"odd-mex count over distinct partitions positive to n=500 except n=1 ({report.status.value})")


def test_c05_monotonicity_to_2000():
    report = monotonicity_check(2000)
    boundary = sigma_d_mex_series(2000)
    flat = boundary.coefficient(6) == boundary.coefficient(7) == 8
    ok = report.passed and flat
    _verdict(5, ok, f"distinct-mex sum strictly increasing on 7..2000, flat step at 6->7 ({report.note})")


def test_c06_parity_to_120():
    report = parity_check(120)
    _verdict(6, report.passed, f"odd-mex parity pattern to n=120 with oracle gate to n=35 ({report.status.value})")


def test_c07_hrr_and_dedekind_oracle():
    smex = sigma_mex_series(30)
    missed = []
    worst = 0.0
    for n in range(1, 31):
        true = smex.coefficient(n)
        hit = None
        for terms in range(1, 11):
            res = hrr_sigma_mex(n, terms)
            if res.residual < 0.4 and res.rounded == true:
                hit = res
                break
        if hit is None:
            missed.append(n)
        else:
            worst = max(worst, hit.residual)
    at_cap = hrr_sigma_mex(30, HRR_MAX_TERMS)
    cap_ok = at_cap.rounded == smex.coefficient(30)
    oracle_bad = sum(
        dedekind_sum(h, k) != scaled_direct_dedekind_sum(h, k) for k in range(1, 120) for h in range(0, 2 * k + 1)
    )
    ok = not missed and cap_ok and oracle_bad == 0
    _verdict(
        7,
        ok,
        f"exact-phase Rademacher sum matches series for n<=30 within K<=10 "
        f"(worst residual {worst:.3f}) and at n=30 with K={HRR_MAX_TERMS} "
        f"(residual {at_cap.residual:.4f}); integer Dedekind sums by reciprocity "
        f"equal 12k times the direct sum for 0<=h<=2k, k<120 ({oracle_bad} mismatches)"
        + (f"; missed {missed}" if missed else ""),
    )


def test_c08_asymptotic_ratio_at_2000():
    clear_cache()
    t0 = time.monotonic()
    s = sigma_d_mex_series(2000)
    elapsed = time.monotonic() - t0
    ratios = {n: s.coefficient(n) / asym_value(AsymKind.SIGMA_D_MEX, n) for n in (100, 500, 1000, 2000)}
    dev = abs(1.0 - ratios[2000])
    ok = dev < 0.1 and elapsed < 120.0
    table = ", ".join(f"n={n}: {r:.4f}" for n, r in ratios.items())
    _verdict(8, ok, f"order-2000 build in {elapsed:.1f}s; series/asymptotic ratio {table}; |1-r(2000)|={dev:.4f}")


def test_c09_zagier_expansion():
    s = sigma_series(600)
    err_10 = abs(s.eval_at(math.exp(-0.1)) - zagier_value(0.1))
    err_05 = abs(s.eval_at(math.exp(-0.05)) - zagier_value(0.05))
    ok = err_10 < 2e-2 and err_05 / err_10 < 0.1
    _verdict(
        9,
        ok,
        f"sigma(exp(-t)) vs degree-5 expansion: err(0.1)={err_10:.2e}, "
        f"err(0.05)={err_05:.2e}, ratio {err_05 / err_10:.3f}",
    )


def test_c10_tauberian_and_eta():
    eta_dev = abs(eta_ratio(0.1, 800) - 1.0)
    ratios = [tauberian_ratio(t, max(200, math.ceil(8 / t**2))) for t in (0.2, 0.1, 0.05)]
    increasing = ratios[0] < ratios[1] < ratios[2]
    final_dev = abs(1.0 - ratios[2])
    ok = eta_dev < 0.02 and increasing and final_dev < 0.1
    _verdict(
        10,
        ok,
        f"eta ratio off by {eta_dev:.4f} at t=0.1; distinct-mex ratio "
        f"{ratios[0]:.3f} -> {ratios[1]:.3f} -> {ratios[2]:.3f}, |1-r(0.05)|={final_dev:.4f}",
    )
