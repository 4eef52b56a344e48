"""Checks at the census budget tops, at order 2000 and at qfunctions.MAX_ORDER, where tier-1 never goes.

ROWS pairs each fast path with the loop or product it replaced, and check_row runs a row at any order (tier-1
runs every row at random orders from 2 to 2000). The other tests check the verdicts of the scans, the slice
sums, euler-identity, the oracle entries and the census, and the series goldens and README commands. The name
does not match test_*.py, so run the file by name, -s for one line per check with its seconds:

    PYTHONPATH=src python -m pytest -q -s tests/max_order_checks.py
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from collections import namedtuple
from functools import partial
from itertools import zip_longest
from pathlib import Path

import pytest

import qmex
from census_oracle import census
from product_oracle import loop_div_binomial, loop_invert, loop_poch, loop_sparse_mul
from qmex import partitions
from qmex import qfunctions as Q
from qmex.identities import Comparison, monotonicity_check, parity_check, positivity_check, registry, verify
from qmex.qfunctions import MAX_ORDER, RefinedKind, clear_cache
from qmex.series import INFINITE, IntSeries, _div_binomial_inplace, _sparse_mul, poch
from route_oracle import (
    FORWARD_ROUTES,
    forward_route,
    old_divisor_counts,
    old_horner_sigma_d_maex,
    old_moex_alt1_sum,
    old_runs_chern,
    old_slices,
    partial_sum_sigma_l,
    theta_a_series,
)

ROOT = Path(__file__).resolve().parents[1]
# each fresh process imports the qmex imported here, so a plain checkout runs too
ENV = dict(os.environ, PYTHONPATH=str(Path(qmex.__file__).resolve().parents[1]))


# a fast path and the loop or product it replaced, both called on inputs(order)
Row = namedtuple("Row", "label fast slow order inputs", defaults=[lambda n: (n,)])


def entries(x):
    """The coefficients of an IntSeries, or x itself."""
    return x.coefficients() if isinstance(x, IntSeries) else x


def sparser_first(a, b, n):
    """The inputs of _sparse_mul: a and b, sparser first as IntSeries.__mul__ takes them, and n."""
    a, b = entries(a), entries(b)
    return (a, b, n) if len(a) - a.count(0) <= len(b) - b.count(0) else (b, a, n)


def route(name, form, order):
    """The catalogued route name in form at order."""
    return Q.build_named(name, order, form).series


def divided(cs, sign, m):
    """cs / (1 + sign q^m) by _div_binomial_inplace, on a copy."""
    out = list(cs)
    _div_binomial_inplace(out, sign, m)
    return out


SLICES = [("mex", RefinedKind.MEX, MAX_ORDER), ("moex", RefinedKind.MOEX, MAX_ORDER), ("mex>i", None, MAX_ORDER)]
# maex has order - 1 slices of up to order + 1 slots, so it runs at 2000
SLICES += [("maex", RefinedKind.MAEX, 2000)]
ROWS = [
    Row("chern-sigma-maex-vs-runs-loop", Q.chern_sigma_maex_series, old_runs_chern, MAX_ORDER),
    Row("sigma-d-maex-vs-maex-double-sum", Q.sigma_d_maex_series, old_horner_sigma_d_maex, MAX_ORDER),
    Row("moex-alt1-sum-vs-list-horner", Q._moex_alt1_sum, old_moex_alt1_sum, MAX_ORDER),
    # the seven partial-sum routes of _nested_sum against the term-by-term loop
    *(
        Row(f"{name}.{form.value}-vs-forward-loop", partial(route, name, form), partial(forward_route, name, form),
            MAX_ORDER)
        for name, form in FORWARD_ROUTES
    ),
    Row("a-vs-theta-loop", Q.a_series, theta_a_series, MAX_ORDER),
    # the largest-part sum is O(order^2) on lists: 0.5 s at 2000, 9 s at MAX_ORDER
    Row("sigma-l-vs-largest-part-sum", Q.sigma_L_series, partial_sum_sigma_l, 2000),
    # every body of _slices at the one-slice width, (k, low) included, against the list stream
    *(Row(f"{name}-slices", partial(Q._slice_lists, kind), partial(old_slices, kind), n) for name, kind, n in SLICES),
    Row("poch(+1,1,1)", partial(poch, 1, 1, 1, INFINITE), partial(loop_poch, 1, 1, 1, INFINITE), MAX_ORDER),
    Row("poch(-1,1,2)", partial(poch, -1, 1, 2, INFINITE), partial(loop_poch, -1, 1, 2, INFINITE), MAX_ORDER),
    Row("poch(-1,1,1)", partial(poch, -1, 1, 1, INFINITE), partial(loop_poch, -1, 1, 1, INFINITE), MAX_ORDER),
    # the sparse Euler products against poch
    Row("(q;q)_inf-vs-poch", partial(Q._euler_product, 1), partial(poch, -1, 1, 1, INFINITE), MAX_ORDER),
    Row("(q^2;q^2)_inf-vs-poch", partial(Q._euler_product, 2), partial(poch, -1, 2, 2, INFINITE), MAX_ORDER),
    # Newton on the dense (q;q^2)_inf against the support recurrence
    Row("1/(q;q^2)_inf", IntSeries.invert, lambda f: loop_invert(f.coefficients()), MAX_ORDER,
        lambda n: (poch(-1, 1, 2, INFINITE, n),)),
    # the three sparse products of the catalogued routes against the double loop
    Row("(q^2;q^2)_inf*P", _sparse_mul, loop_sparse_mul, MAX_ORDER,
        lambda n: sparser_first(Q._euler_product(2, n), Q.partition_gen(n), n)),
    Row("theta*P", _sparse_mul, loop_sparse_mul, MAX_ORDER,
        lambda n: sparser_first(Q._mex_sum(n, 1, -1, False), Q.partition_gen(n), n)),
    Row("a-d-inner*D", _sparse_mul, loop_sparse_mul, MAX_ORDER,
        lambda n: sparser_first(Q._mex_sum(n, 1, -1, True), Q.distinct_gen(n), n)),
    *(
        Row(f"D/(1-q^{m})", partial(divided, sign=-1, m=m), partial(loop_div_binomial, sign=-1, m=m), MAX_ORDER,
            lambda n: (Q.distinct_gen(n).coefficients(),))
        for m in (1, 2, 63, 126, 4000)
    ),
    # the quotient routes against the dense products they replaced, with d(n) from the slice loop and
    # not the sieve the routes use, and 1/(q;q)_inf, which IntSeries.invert takes from _sparse_quotient,
    # against the support recurrence
    Row("sigma-mex-vs-D*D", Q.sigma_mex_series, lambda n: Q.distinct_gen(n) * Q.distinct_gen(n), MAX_ORDER),
    Row("sigma-l-vs-P*d", Q.sigma_L_series, lambda n: Q.partition_gen(n) * IntSeries(old_divisor_counts(n)),
        MAX_ORDER),
    Row("chern-sigma-maex-vs-P*(d+star/2)", Q.chern_sigma_maex_series, lambda n: Q.partition_gen(n) * IntSeries(
        [d + s // 2 for d, s in zip(old_divisor_counts(n), Q.sigma_star_series(n).coefficients())]), MAX_ORDER),
    Row("1/(q;q)_inf", IntSeries.invert, lambda f: loop_invert(f.coefficients()), MAX_ORDER,
        lambda n: (Q._euler_product(1, n),)),
]


def check_row(row, n):
    """Build row.fast at order n from an empty store, timed alone, and compare it with row.slow."""
    clear_cache()
    args = row.inputs(n)
    start = time.perf_counter()
    got = list(entries(row.fast(*args)))
    seconds = time.perf_counter() - start
    # slow is streamed, one maex slice list at a time; past the shorter side every index differs
    bad = [i for i, (g, w) in enumerate(zip_longest(got, entries(row.slow(*args)))) if g != w]
    line = f"{row.label} order {n}: {len(got)} entries, {len(bad)} differ, first {bad[:1]}, {seconds:.4f} s"
    print(line)
    assert got and not bad, line


@pytest.mark.parametrize("row", ROWS, ids=[row.label for row in ROWS])
def test_row(row):
    check_row(row, row.order)


@pytest.mark.parametrize("scan", [monotonicity_check, parity_check, positivity_check], ids=lambda f: f.__name__)
def test_scan_at_max_order(scan):
    # from an empty store; the monotonicity and parity scans each take one dense product through _decimal_kronecker
    clear_cache()
    start = time.perf_counter()
    report = scan(MAX_ORDER)
    line = f"{report.status.value} {report.name} (range {report.range_checked}): {time.perf_counter() - start:.2f} s"
    print(line)
    assert report.passed, line


def run(*argv, cwd=None):
    """python -m qmex argv in a fresh process: the CompletedProcess, stdout in bytes, and its seconds."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qmex", *argv], capture_output=True, env=ENV, cwd=cwd)
    return proc, time.perf_counter() - start


SLICE_SUMS = ["d-i-sum", "refined-mex-weighted-sum", "refined-mex-unweighted-sum", "refined-omex-sum"]
SLICE_SUMS += ["refined-moex-weighted-sum", "refined-maex-weighted-sum"]
ENTRIES = [(s, n) for n in (2000, MAX_ORDER) for s in SLICE_SUMS] + [("euler-identity", MAX_ORDER)]


@pytest.mark.parametrize("name, order", ENTRIES)
def test_entry_in_a_fresh_process(name, order):
    proc, seconds = run("verify", "--identity", name, "--order", str(order))
    verdict = proc.stdout.decode().strip() or f"no verdict from {name}"
    line = f"order {order}: {verdict}: exit {proc.returncode}, {seconds:.2f} s"
    print(line)
    assert proc.returncode == 0 and verdict.startswith("PASS "), line


@pytest.mark.parametrize("top", [45, 82])
def test_oracle_entries_at_the_budget_top(top):
    start, reports, skipped = time.perf_counter(), [], []
    for d in (d for d in registry() if d.comparison is Comparison.SERIES_ORACLE):
        try:
            reports.append(verify(d.name, top))
            print(f"{reports[-1].status.value} {d.name} (range {top})")
        except ValueError as exc:
            # an entry that reads the all-parts census refuses past its top, 45; any other error fails
            if top == 45 or not str(exc).startswith(f"the partitions of {top} exceed"):
                raise
            skipped.append(d.name)
    print(f"skipped at {top}, all-parts census: {', '.join(skipped) or 'none'}; {time.perf_counter() - start:.2f} s")
    assert len(reports) >= 6 and all(r.passed for r in reports)


def test_census_equals_the_per_n_walk():
    # field by field against the walk over every partition of n: a fresh enumeration at every n <= 45 for
    # both kinds, then one distinct enumeration at 82, read at every m <= 82. _sets lists the sets of
    # weight m from the parts <= m only, whatever the top n >= m, so a fresh enumeration at m reads the same sets
    def differs(m, distinct_only, fresh):
        if fresh:
            partitions._CENSUSES.clear()
        return any(dict(g) != dict(w) for g, w in zip(partitions._census(m, distinct_only), census(m, distinct_only)))

    start = time.perf_counter()
    bad = [(n, d) for d in (False, True) for n in range(46) if differs(n, d, fresh=True)]
    partitions._CENSUSES.clear()
    partitions._census(82, True)
    bad += [(m, True) for m in range(83) if differs(m, True, fresh=False)]
    print(f"175 censuses, {len(bad)} differ from the per-n walk, first {bad[:1]}, {time.perf_counter() - start:.2f} s")
    assert not bad


GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())["stdout_sha256"]
# with no series key at all, the one key left is a command qmex refuses, so the check fails
SERIES_KEYS = sorted(key for key in GOLDENS if key.startswith("series ")) or ["series"]


@pytest.mark.parametrize("key", SERIES_KEYS)
def test_series_stdout_matches_its_golden(key):
    proc, seconds = run(*key.split())
    got = hashlib.sha256(proc.stdout).hexdigest()
    print(f"{key}: sha256 {got}, golden {GOLDENS.get(key)}, exit {proc.returncode}, {seconds:.2f} s")
    assert proc.returncode == 0 and got == GOLDENS.get(key)


def test_readme_commands_exit_0(tmp_path):
    # the block's first fence after the heading; export writes its file into tmp_path
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n\n```\n")[1].split("\n```")[0]
    commands = [shlex.split(line.split("#")[0]) for line in block.splitlines() if line.split("#")[0].strip()]
    bad = []
    for argv in commands:
        argv = argv[2:] if argv[:3] == ["python", "-m", "qmex"] else argv
        # a line that is not a qmex command counts as a failure
        code = run(*argv[1:], cwd=tmp_path)[0].returncode if argv[0] == "qmex" else 1
        print(f"exit {code}: {shlex.join(argv)}")
        bad += [argv] if code else []
    assert commands and not bad, bad
