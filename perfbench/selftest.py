"""Self-test of the benchmark itself (not of qmex).

    python3 perfbench/selftest.py

Checks that
  1. the seeded generator is deterministic, and that the seed matters
     where the workload has inputs to vary;
  2. the gate passes the real outputs of one request of every kind and
     counts a corrupted copy of each as failed;
  3. two traced passes of every workload with the same seed give
     identical counts (calls, mul_terms, enumerated, redundant_builds,
     dedekind_calls and the rest of tracing.REPEATING).
Exits 0 when all hold, 1 otherwise. Takes about a minute.
"""

from __future__ import annotations

import sys

import run
import tracing
import workloads as w

# One request of every kind the gate checks, each with a golden.
ONE_OF_EACH = [
    ["cli", w.series_argv("sigma", "canonical", w.BUILD_ORDER)],
    ["cli", ["hrr", "--n", "37", "--terms", str(w.HRR_TERMS)]],
    ["build", "sigma-d-mex", "alt1", w.SESSION_LADDER[0]],
    ["verify", "euler-identity", w.SESSION_VERIFY_ORDERS[0]],
    ["tauberian", w.SESSION_TS[0]],
    ["eta", w.SESSION_TS[0]],
]


def main() -> int:
    problems = []

    for wl in w.WORKLOADS:
        for seed in (0, 1, 12345):
            if w.make_plan(wl, seed) != w.make_plan(wl, seed):
                problems.append(f"{wl}: seed {seed} gives two different plans")
        if wl != "verify-all" and w.make_plan(wl, 1) == w.make_plan(wl, 2):
            problems.append(f"{wl}: seeds 1 and 2 give the same plan")

    clean = run.run_process(ONE_OF_EACH, trace=False)
    if clean["failures"]:
        problems.append(f"real outputs failed the gate: {clean['failures']}")
    for req in ONE_OF_EACH:
        bad = run.run_process([req], trace=False, corrupt_first=True)
        if len(bad["failures"]) != 1:
            problems.append(f"corrupted {w.golden_key(req)} counted {len(bad['failures'])} failures, not 1")

    for wl in w.WORKLOADS:
        plan = w.make_plan(wl, 7)
        a, b = (run.run_pass(plan, trace=True)["layers"] for _ in range(2))
        differ = [k for k in tracing.REPEATING if k in a and a[k] != b.get(k)]
        problems += [f"{wl}: {k} read {a[k]} then {b.get(k)}" for k in differ]
        print(f"{wl}: {len(tracing.REPEATING) - len(differ)} traced counts repeat, {len(differ)} differ")

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
