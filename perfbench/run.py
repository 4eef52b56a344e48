"""qmex benchmark: cold-process workloads with a golden-output gate.

    python3 perfbench/run.py --workload {verify-all,build-2000,session,hrr}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (or any directory: paths are resolved from
this file). A pass runs the seeded plan of the workload; every process
of a pass is a fresh interpreter (worker.py) that imports qmex from
src/, as a qmex command does. Passes repeat, one at a time (a closed
loop with one client), until --seconds have passed. Every request
output is checked against goldens.json; a request that raises, exits
non-zero or differs from its golden counts as failed.

--trace 0 prints the end-to-end metrics, --trace 1 alternates untraced
and traced passes and prints the per-layer metrics. The last line of
stdout is one JSON object {correct, attempted, failed, metrics}; the
lines above it repeat every metric with its unit and sample count and
record the environment. The full result, and in traced runs every span,
is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# A seed kept out of tuning: a later performance claim must also hold on it.
HELDOUT_SEED = 90001
# On the shared 2-core virtual machine where the benchmark was defined,
# one process ran the same build in 0.24 s and, minutes later, in 0.47 s.
# Every worker therefore times a fixed calibration task before and after
# its requests, and each of its timings is reported in calibrated
# seconds: measured seconds * REFERENCE_CAL_S / calibration seconds.
# REFERENCE_CAL_S is a typical calibration time on that machine (0.020
# to 0.036 s were seen), so calibrated seconds read as seconds there at
# that speed. Raw medians are printed and recorded too.
REFERENCE_CAL_S = 0.025
# Import-only processes run before the passes, so that even the slowest
# workload has enough set-up samples for a steady median.
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
# Stop starting passes when the next one could end past this point.
RUN_LIMIT_S = 160

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("request_p50_s", "s"),
    ("request_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_process(requests: list, trace: bool, corrupt_first: bool = False) -> dict:
    job = {"src": str(SRC), "requests": requests, "trace": trace, "corrupt_first": corrupt_first}
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a worker ran past {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed(proc: dict) -> float:
    """Factor that turns a worker's measured seconds into calibrated seconds."""
    return REFERENCE_CAL_S / proc["cal_s"]


def run_pass(plan: list, trace: bool, corrupt_first: bool = False) -> dict:
    """Run every process of one pass, one after another; sum the pass."""
    procs = [run_process(reqs, trace, corrupt_first and i == 0) for i, reqs in enumerate(plan)]
    p = {
        "trace": trace,
        "wall_s": sum(r["wall_s"] * speed(r) for r in procs),
        "raw_wall_s": sum(r["wall_s"] for r in procs),
        "setups": [r["setup_s"] * speed(r) for r in procs],
        "speeds": [speed(r) for r in procs],
        "latencies": [x * speed(r) for r in procs for x in r["latencies"]],
        "failures": [f for r in procs for f in r["failures"]],
        "rss_mb": max(r["rss_mb"] for r in procs),
    }
    if trace:
        import tracing

        raw: dict = {}
        for r in procs:
            for k, v in r["raw"].items():
                if k.startswith(tracing.TIMED_PREFIXES):
                    v *= speed(r)
                raw[k] = raw.get(k, 0) + v
        absent = {a for r in procs for a in r["absent"]}
        p["layers"] = tracing.derive(raw, absent)
        p["spans"] = [r["spans"] for r in procs]
    return p


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def per_pass(stat, passes: list) -> float:
    """Median over passes of a statistic of each pass's latencies.

    Every pass runs the same requests, so each pass's percentile sits at
    the same rank among them. Pooling all passes instead would move that
    rank with the number of passes, which the run length decides.
    """
    return statistics.median(stat(p["latencies"]) for p in passes)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def src_sha() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qmex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unavailable"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": src_sha(),
        "loadavg_start": loadavg(),
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    plan = workloads.make_plan(workload, seed)
    probes = []
    for _ in range(SETUP_PROBES):
        r = run_process([], False)
        probes.append(r["setup_s"] * speed(r))
    passes = []
    start = perf_counter()
    longest = 0.0
    while True:
        t = perf_counter()
        # A traced run alternates untraced and traced passes, so that the
        # tracing overhead is the difference of their walls.
        passes.append(run_pass(plan, trace and len(passes) % 2 == 1))
        longest = max(longest, perf_counter() - t)
        elapsed = perf_counter() - start
        mean = elapsed / len(passes)
        if trace and len(passes) < 2:
            continue
        # Start another pass only if it would end nearer to the target.
        if elapsed + mean / 2 >= seconds or elapsed + longest > RUN_LIMIT_S:
            break
    return {"plan": plan, "probes": probes, "passes": passes}


def summarize(m: dict) -> tuple[dict, dict, dict]:
    """End-to-end metrics over untraced passes, their sample counts, and
    the raw wall median with the median calibration factor."""
    plain = [p for p in m["passes"] if not p["trace"]]
    raw = {
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in plain),
        "speed": statistics.median(x for p in m["passes"] for x in p["speeds"]),
    }
    lat = [x for p in plain for x in p["latencies"]]
    setups = m["probes"] + [s for p in m["passes"] for s in p["setups"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "request_p50_s": per_pass(statistics.median, plain),
        "request_p90_s": per_pass(p90, plain),
        "peak_rss_mb": max(p["rss_mb"] for p in plain),
    }
    samples = {
        "setup_s": len(setups),
        "wall_s": len(plain),
        "request_p50_s": len(lat),
        "request_p90_s": len(lat),
        "peak_rss_mb": sum(len(p["setups"]) for p in plain),
    }
    return values, samples, raw


def layer_summary(m: dict) -> tuple[dict, bool]:
    """Per-layer metrics over traced passes, and whether counts repeated."""
    import tracing

    traced = [p for p in m["passes"] if p["trace"]]
    plain = [p for p in m["passes"] if not p["trace"]]
    layers = tracing.median_metrics([p["layers"] for p in traced])
    layers["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    first = traced[0]["layers"]
    repeat = all(p["layers"].get(k) == first.get(k) for p in traced for k in tracing.REPEATING)
    return layers, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and waits
    # for the running worker before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "qmex" / "__init__.py").is_file():
        print(f"error: no qmex package under {SRC}", file=sys.stderr)
        return 2
    if not workloads.GOLDENS_PATH.is_file():
        print(f"error: missing {workloads.GOLDENS_PATH}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    try:
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = loadavg()

    attempted = sum(len(p["latencies"]) for p in m["passes"])
    failures = [f for p in m["passes"] for f in p["failures"]]
    values, samples, raw = summarize(m)
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}"]
    lines += [f"env {k} = {v}" for k, v in env.items()]
    lines += [f"passes {len(m['passes'])}  requests/pass {sum(map(len, m['plan']))}"]
    lines += [f"{k:<16} {values[k]:.6g} {u}  (n={samples[k]})" for k, u in END_TO_END]
    lines += [f"raw wall_s median {raw['raw_wall_s']:.6g} s; calibrated/raw median {raw['speed']:.4g}"]
    lines += [f"{'ops_failed_frac':<16} {len(failures) / attempted:.6g} fraction  ({len(failures)}/{attempted})"]
    lines += [f"FAILED {f}" for f in failures[:20]]

    if args.trace:
        import tracing

        layers, repeat = layer_summary(m)
        traced = sum(p["trace"] for p in m["passes"])
        lines += [f"traced passes {traced}; counts repeat across them: {'yes' if repeat else 'NO'}"]
        lines += [f"{k:<44} {layers[k]:.6g} {u}" for k, u in tracing.PER_LAYER if k in layers]
        absent = [k for k, _ in tracing.PER_LAYER if k not in layers]
        lines += [f"absent (wrapped target missing): {' '.join(absent)}"] if absent else []
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracing.PER_LAYER if k in layers}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "env": env,
        "values": values,
        "samples": samples,
        **raw,
        "failures": failures,
        "metrics": metrics,
        "plan": m["plan"],
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in m["passes"]],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for i, p in enumerate(m["passes"]):
                for j, spans in enumerate(p.get("spans", [])):
                    fh.write(json.dumps({"pass": i, "process": j, "spans": spans}) + "\n")
        lines.append(f"spans written to {stem.with_suffix('.spans.jsonl').relative_to(ROOT)}")

    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
