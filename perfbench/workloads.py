"""Seeded request plans, request execution and the golden-output gate.

A plan is a list of processes; each process is a list of requests run
one after another in one fresh interpreter. A request is a JSON list:

    ["cli", argv]             qmex.cli.run(argv), stdout captured
    ["build", name, form, N]  qfunctions.build_named(name, N, Form(form))
    ["verify", name, N]       identities.verify(name, N)
    ["tauberian", t]          asymptotics.tauberian_ratio(t, required_order(t))
    ["eta", t]                asymptotics.eta_ratio(t, required_order(t))

Only qmex.cli.run and public library functions are called, so the
benchmark survives refactors of qmex internals. This module imports
qmex lazily: the worker times that import as set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

WORKLOADS = ("verify-all", "build-2000", "session", "hrr")

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

# Every catalogued route as (name, form), chern-sigma-maex excluded: it is
# O(N^3) (5.8 s at N=1000), so build-2000 runs it at CHERN_ORDER instead.
ROUTES = (
    ("a", "canonical"),
    ("a-d", "canonical"),
    ("a-d", "alt1"),
    ("distinct", "canonical"),
    ("sigma", "canonical"),
    ("sigma", "alt1"),
    ("sigma-d-maex", "canonical"),
    ("sigma-d-mex", "canonical"),
    ("sigma-d-mex", "alt1"),
    ("sigma-d-moex", "canonical"),
    ("sigma-d-moex", "alt1"),
    ("sigma-d-moex", "alt2"),
    ("sigma-l", "canonical"),
    ("sigma-mex", "canonical"),
    ("sigma-star", "canonical"),
)
BUILD_ORDER = 2000
CHERN_ORDER = 400
# Routes whose builders other routes call (distinct_gen, sigma_series in
# both forms, sigma_star_series). build-2000 requests them first, in this
# order, so that each request pays for the same work whatever the seed;
# the seed shuffles the rest, whose costs then do not depend on order.
SHARED_ROUTES = (("distinct", "canonical"), ("sigma", "canonical"), ("sigma", "alt1"), ("sigma-star", "canonical"))

# session: every route is built at each ladder order, every series
# identity is verified at each verify order, and both float ratios run
# at each t; these distinct requests arrive in one fixed shuffled order.
# Each build then comes once more, at a seeded place after its first
# occurrence. Builders share sub-builds (distinct_gen, sigma, ...), so
# which request pays for a shared key depends on the order of first
# occurrences; keeping that order fixed keeps every latency, and so the
# percentiles, the same for every seed. The seed moves the exact-key
# repeats, which are cache hits.
SESSION_LADDER = (100, 300, 600, 1200)
SESSION_VERIFY_ORDERS = (100, 200, 300)
SESSION_TS = (0.25, 0.2, 0.15, 0.125, 0.1)
SERIES_IDENTITIES = (
    "thm-sigma-d-mex",
    "sigma-sum-identity",
    "a-d-form-equivalence",
    "moex-form-equivalence",
    "euler-identity",
    "d-i-sum",
    "refined-mex-weighted-sum",
    "refined-mex-unweighted-sum",
    "refined-omex-sum",
    "refined-moex-weighted-sum",
    "refined-maex-weighted-sum",
)

# hrr: for n > 200 the Rademacher value of sigma_mex(n) exceeds 2^53, so a
# double cannot identify the integer (n = 250 gives residual 0.375 and the
# wrong integer). n stays in 1..HRR_MAX_N.
HRR_REQUESTS = 20
HRR_TERMS = 20
HRR_MAX_N = 200

# Relative tolerance between a float ratio and its golden value, far
# above rounding noise from a reordered sum, and c10's eta tolerance.
FLOAT_RTOL = 1e-9
ETA_TOL = 0.02


def route_key(name: str, form: str) -> str:
    return name if form == "canonical" else f"{name}.{form}"


def series_argv(name: str, form: str, order: int) -> list:
    return ["series", name, "--order", str(order), "--form", form]


def make_plan(workload: str, seed: int) -> list:
    """The processes of one pass; the same seed gives the same plan."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        # No input to vary: the seed is recorded but changes nothing.
        return [[["cli", ["verify", "--all"]]]]
    if workload == "build-2000":
        rest = [["cli", series_argv(n, f, BUILD_ORDER)] for n, f in ROUTES if (n, f) not in SHARED_ROUTES]
        rest.append(["cli", series_argv("chern-sigma-maex", "canonical", CHERN_ORDER)])
        rng.shuffle(rest)
        return [[["cli", series_argv(n, f, BUILD_ORDER)] for n, f in SHARED_ROUTES] + rest]
    if workload == "session":
        builds = [["build", name, form, n] for name, form in ROUTES for n in SESSION_LADDER]
        reqs = builds + [["verify", i, n] for i in SERIES_IDENTITIES for n in SESSION_VERIFY_ORDERS]
        reqs += [[kind, t] for t in SESSION_TS for kind in ("tauberian", "eta")]
        random.Random("session-first-occurrences").shuffle(reqs)
        for req in builds:
            reqs.insert(rng.randint(reqs.index(req) + 1, len(reqs)), req)
        return [reqs]
    if workload == "hrr":
        ns = [rng.randint(1, HRR_MAX_N) for _ in range(HRR_REQUESTS)]
        return [[["cli", ["hrr", "--n", str(n), "--terms", str(HRR_TERMS)]]] for n in ns]
    raise ValueError(f"unknown workload {workload!r}")


def execute(req: list):
    """Run one request and return its raw output."""
    kind = req[0]
    if kind == "cli":
        import qmex.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = qmex.cli.run(req[1])
        return [rc, buf.getvalue()]
    if kind == "build":
        from qmex.qfunctions import Form, build_named

        return build_named(req[1], req[3], Form(req[2])).series.coefficients()
    if kind == "verify":
        from qmex.identities import verify

        return verify(req[1], req[2]).status.value
    if kind in ("tauberian", "eta"):
        from qmex import asymptotics

        fn = asymptotics.tauberian_ratio if kind == "tauberian" else asymptotics.eta_ratio
        return fn(req[1], asymptotics.required_order(req[1]))
    raise ValueError(f"unknown request kind {kind!r}")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def coeffs_sha(coeffs) -> str:
    return sha(",".join(map(str, coeffs)))


def golden_key(req: list) -> str:
    if req[0] == "cli":
        return " ".join(req[1])
    if req[0] == "build":
        return f"{route_key(req[1], req[2])}@{req[3]}"
    return f"{req[0]}@{req[1]}"


def load_goldens() -> dict:
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check(req: list, out, goldens: dict):
    """None when the output is correct, else a one-line reason."""
    kind = req[0]
    key = golden_key(req)
    if kind == "cli":
        rc, text = out
        if rc != 0:
            return f"{key}: exit code {rc}"
        if req[1][0] == "hrr":
            n = int(req[1][2])
            row = text.splitlines()[1].split(",")
            got = (int(row[0]), int(row[1]), int(row[3]))
            want = (n, HRR_TERMS, int(goldens["sigma_mex"][n]))
            return None if got == want else f"{key}: (n, terms, rounded) = {got}, want {want}"
        want = goldens["stdout_sha256"].get(key)
        return None if sha(text) == want else f"{key}: stdout differs from the golden"
    if kind == "build":
        want = goldens["coeffs_sha256"].get(key)
        return None if coeffs_sha(out) == want else f"{key}: coefficients differ from the golden"
    if kind == "verify":
        return None if out == "PASS" else f"{key}: {out}"
    want = goldens["ratios"][key]
    if not abs(out - want) <= FLOAT_RTOL * abs(want):
        return f"{key}: {out!r} differs from the golden {want!r}"
    if kind == "eta" and not abs(out - 1.0) < ETA_TOL:
        return f"{key}: |ratio - 1| = {abs(out - 1.0)} is not below {ETA_TOL}"
    return None


def corrupt(out):
    """A changed copy of a request output, for the gate's self-test."""
    if isinstance(out, list):  # [rc, stdout]: change the first digit of line 2
        text = out[1]
        i = next(i for i in range(text.index("\n"), len(text)) if text[i].isdigit())
        return [out[0], text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]]
    if isinstance(out, tuple):
        return (out[0] + 1,) + out[1:]
    if isinstance(out, str):
        return "FAIL"
    return out + 1.0
