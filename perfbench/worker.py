"""One benchmark process: import qmex, run requests, check them, report.

Started by run.py in a fresh interpreter for every process of a pass.
Reads one JSON job on stdin:

    {"src": <dir holding the qmex package>, "requests": [...],
     "trace": bool, "corrupt_first": bool}

and writes one JSON result as the last line of stdout. A calibration
task runs just before the first request and just after the last one.
Requests run back to back; their outputs are checked against the
goldens only after the last one ends, so checking is not timed.
corrupt_first changes a copy of the first output before it is checked;
the self-test uses it to prove that the gate counts a wrong output as
failed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _partitions(n: int, cap: int):
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def calibrate() -> float:
    """Seconds this interpreter takes for a fixed pure-Python task.

    The task uses no qmex code and mixes the kinds of work qmex's hot
    paths do: big-int list comprehensions (the series kernels), index
    loops over a list (the in-place division kernel), and a recursive
    generator building tuples and sets (the enumeration oracle). Its
    time tracks how fast the shared machine runs at the moment; run.py
    divides by it.
    """
    t0 = perf_counter()
    n = 500
    c = [1] + [0] * n
    for m in range(1, n + 1):
        c[m:] = [x + y for x, y in zip(c[m:], c)]
    for m in range(1, 250):
        for j in range(m, n + 1):
            c[j] -= c[j - m]
    sum(1 for p in _partitions(26, 26) if len(set(p)) == len(p))
    return perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set size of this interpreter, in MiB.

    VmHWM counts only this process's memory. ru_maxrss is the fallback
    where /proc is missing: on Linux it also holds the parent's peak when
    the child was started by vfork, as subprocess does.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    t0 = perf_counter()
    import qmex

    setup_s = perf_counter() - t0
    if not os.path.abspath(qmex.__file__).startswith(src + os.sep):
        print(f"imported qmex from {qmex.__file__}, not from {src}", file=sys.stderr)
        return 1

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    requests = job["requests"]
    outputs, errors, latencies = [], [], []
    cal_before = calibrate()
    start = perf_counter()
    for req in requests:
        t = perf_counter()
        try:
            outputs.append(workloads.execute(req))
            errors.append(None)
        except Exception as exc:  # a failed request is counted, not fatal
            outputs.append(None)
            errors.append(f"{workloads.golden_key(req)}: {type(exc).__name__}: {exc}")
        latencies.append(perf_counter() - t)
    wall_s = perf_counter() - start if requests else 0.0
    cal_s = (cal_before + calibrate()) / 2
    rss_mb = peak_rss_mb()

    goldens = workloads.load_goldens()
    stdout_bytes = 0
    for i, (req, out) in enumerate(zip(requests, outputs)):
        if errors[i] is not None:
            continue
        if req[0] == "cli":
            stdout_bytes += len(out[1].encode())
        if i == 0 and job.get("corrupt_first"):
            out = workloads.corrupt(out)
        try:
            errors[i] = workloads.check(req, out, goldens)
        except (LookupError, ValueError, TypeError) as exc:
            errors[i] = f"{workloads.golden_key(req)}: unreadable output ({exc})"

    result = {
        "setup_s": setup_s,
        "cal_s": cal_s,
        "wall_s": wall_s,
        "latencies": latencies,
        "failures": [e for e in errors if e is not None],
        "rss_mb": rss_mb,
    }
    if tracer is not None:
        raw = tracer.raw()
        raw["cli.stdout_bytes"] = stdout_bytes
        result.update(raw=raw, absent=sorted(tracer.absent), spans=tracer.spans)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
