"""Write perfbench/goldens.json from the qmex in ../src.

    python3 perfbench/make_goldens.py

The goldens pin the outputs of the commit that defined the benchmark;
rerun this only when a change is meant to alter outputs, and say so.
Every request any seed can generate has a golden: each build-2000
request, each (route, order) on the session ladder, the verify --all
stdout, the float ratios at every session t, and sigma_mex(n) for every
hrr n. Before writing, it checks that qmex hrr --terms HRR_TERMS rounds
to the exact sigma_mex(n) for every n in 1..HRR_MAX_N, so that no hrr
seed can draw an n on which the workload fails.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as w  # noqa: E402
from qmex.qfunctions import sigma_mex_series  # noqa: E402


def main() -> int:
    stdout = {}
    for req in [["cli", ["verify", "--all"]]] + w.make_plan("build-2000", 0)[0]:
        rc, text = w.execute(req)
        if rc != 0:
            print(f"{w.golden_key(req)} exited {rc}", file=sys.stderr)
            return 1
        stdout[w.golden_key(req)] = w.sha(text)

    coeffs = {}
    for name, form in w.ROUTES:
        for order in w.SESSION_LADDER:
            req = ["build", name, form, order]
            coeffs[w.golden_key(req)] = w.coeffs_sha(w.execute(req))

    ratios = {}
    for t in w.SESSION_TS:
        for kind in ("tauberian", "eta"):
            ratios[w.golden_key([kind, t])] = w.execute([kind, t])
    taub = [ratios[f"tauberian@{t}"] for t in w.SESSION_TS]
    if taub != sorted(taub):
        print("tauberian ratio does not rise as t falls", file=sys.stderr)
        return 1

    sigma_mex = [str(c) for c in sigma_mex_series(w.HRR_MAX_N).coefficients()]
    goldens = {"stdout_sha256": stdout, "coeffs_sha256": coeffs, "ratios": ratios, "sigma_mex": sigma_mex}
    for n in range(1, w.HRR_MAX_N + 1):
        req = ["cli", ["hrr", "--n", str(n), "--terms", str(w.HRR_TERMS)]]
        problem = w.check(req, w.execute(req), goldens)
        if problem:
            print(problem, file=sys.stderr)
            return 1

    with open(w.GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {w.GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
