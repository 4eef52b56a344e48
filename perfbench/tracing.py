"""Per-layer tracing for --trace 1 runs, installed from outside qmex.

install() replaces the public entry points of each qmex layer with
wrappers that record a span [name, start, end, parent, route] and a few
work counts. qmex modules import functions by name, and the catalogue
dicts and the identity registry hold direct references, so every
reference to a wrapped object inside qmex is rebound. A target that no
longer exists is skipped and the metrics it feeds are reported absent.
Untraced runs never import this module.

Layers and their span names:

    cli          cli.run
    identities   identities.verify
    qfunctions   qfunctions.build (one per builder call, tagged with its route)
    series       series.mul, series.invert, series.poch, series.eval,
                 series.binomial (the three in-place kernels, wrapped under
                 the names qfunctions imports)
    partitions   partitions.oracle
    asymptotics  asymptotics.hrr, .kloosterman, .dedekind, .bessel,
                 .tauberian, .eta
"""

from __future__ import annotations

import dataclasses
import inspect
import statistics
from collections import Counter
from time import perf_counter

from workloads import ROUTES, route_key

# Builder function -> catalogued series name. refined_series and
# dcount_series build slices, not catalogued routes.
SERIES_NAME = {
    "a_series": "a",
    "a_d_series": "a-d",
    "chern_sigma_maex_series": "chern-sigma-maex",
    "distinct_gen": "distinct",
    "sigma_series": "sigma",
    "sigma_L_series": "sigma-l",
    "sigma_d_maex_series": "sigma-d-maex",
    "sigma_d_mex_series": "sigma-d-mex",
    "sigma_d_moex_series": "sigma-d-moex",
    "sigma_mex_series": "sigma-mex",
    "sigma_star_series": "sigma-star",
}
BUILDERS = tuple(SERIES_NAME) + ("refined_series", "dcount_series")
ORACLES = ("stat_sum_oracle", "refined_count_oracle", "two_colored_distinct_count")
KERNELS = ("_mul_binomial_inplace", "_div_binomial_inplace", "_shift_inplace")
ROUTE_KEYS = sorted([route_key(n, f) for n, f in ROUTES] + ["chern-sigma-maex"])

# (metric, unit); the order in which the run prints them.
PER_LAYER = (
    [
        ("partitions.oracle_calls", "count"),
        ("partitions.enumerated", "count"),
        ("partitions.useful_ratio", "ratio"),
        ("partitions.self_s", "s"),
        ("series.mul_calls", "count"),
        ("series.mul_s", "s"),
        ("series.mul_terms", "count"),
        ("series.mul_bytes", "bytes"),
        ("series.invert_calls", "count"),
        ("series.invert_s", "s"),
        ("series.poch_calls", "count"),
        ("series.poch_s", "s"),
        ("series.poch_factors", "count"),
        ("series.binomial_calls", "count"),
        ("series.binomial_s", "s"),
        ("series.eval_s", "s"),
        ("qfunctions.builds", "count"),
        ("qfunctions.self_s", "s"),
    ]
    + [(f"qfunctions.build_s.{r}", "s") for r in ROUTE_KEYS]
    + [
        ("qfunctions.cache_hits", "count"),
        ("qfunctions.cache_misses", "count"),
        ("qfunctions.hit_ratio", "ratio"),
        ("qfunctions.redundant_builds", "count"),
        ("identities.verify_calls", "count"),
        ("identities.checks", "count"),
        ("identities.compare_s", "s"),
        ("asymptotics.hrr_s", "s"),
        ("asymptotics.kloosterman_calls", "count"),
        ("asymptotics.kloosterman_s", "s"),
        ("asymptotics.dedekind_calls", "count"),
        ("asymptotics.dedekind_hits", "count"),
        ("asymptotics.dedekind_s", "s"),
        ("asymptotics.bessel_s", "s"),
        ("cli.self_s", "s"),
        ("cli.stdout_bytes", "bytes"),
        ("trace.overhead_s", "s"),
    ]
)

# Raw keys holding seconds, which run.py turns into calibrated seconds.
TIMED_PREFIXES = ("incl:", "self:", "route:")

# Counts that must repeat exactly across traced runs of one seed.
REPEATING = tuple(m for m, unit in PER_LAYER if unit in ("count", "bytes"))


def _nbytes(coeffs) -> int:
    return sum((abs(c).bit_length() + 7) // 8 for c in coeffs)


class Tracer:
    """Spans and counts of one interpreter, kept in memory until it ends."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or -1, route or None]
        self.counts: Counter = Counter()
        self.absent: set = set()  # metrics whose wrapped target is missing
        self._stack: list = []
        self._enum_keys: set = set()
        self._built: dict = {}  # (builder, non-order args) -> largest order built

    # -- wrappers --------------------------------------------------------

    def timed(self, name, fn, before=None, after=None):
        """Wrap fn in a span. before(args, kwargs) runs ahead of the span and
        returns a state; after(span, state) runs once the span is closed."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[1], span[2] = t0, perf_counter()
                stack.pop()
                if after:
                    after(span, state)

        return wrapper

    def builder(self, fname, fn):
        """Span per builder call, tagged with its route; cache hits and
        misses come from the builder's own lru_cache counters."""
        sig = inspect.signature(fn)
        info = getattr(fn, "cache_info", None)
        base = SERIES_NAME.get(fname)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            params = dict(bound.arguments)
            order = params.pop("order")
            form = params.get("form")
            route = None
            if base is not None:
                route = route_key(base, form.value if form is not None else "canonical")
            key = (fname, repr(sorted(params.items())))
            return route, key, order, info().misses if info else None

        def after(span, state):
            route, key, order, misses = state
            span[4] = route
            if info is None:
                return
            if info().misses == misses:
                self.counts["qfunctions.cache_hits"] += 1
                return
            self.counts["qfunctions.cache_misses"] += 1
            if self._built.get(key, -1) >= order:
                self.counts["qfunctions.redundant_builds"] += 1
            self._built[key] = max(order, self._built.get(key, -1))

        return self.timed("qfunctions.build", fn, before, after)

    def enumerator(self, fn):
        """Count enumerations and the partitions they yield."""
        sig = inspect.signature(fn)
        counts = self.counts

        def counted(it):
            n = 0
            try:
                for p in it:
                    n += 1
                    yield p
            finally:
                counts["partitions.enumerated"] += n

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts["partitions.enumerations"] += 1
            self._enum_keys.add(tuple(bound.arguments.values()))
            return counted(it)

        return wrapper

    # -- results ---------------------------------------------------------

    def raw(self) -> dict:
        """Additive per-process sums; derive() turns summed raws into metrics."""
        n = len(self.spans)
        child = [0.0] * n
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = Counter(self.counts)
        out["partitions.distinct_enumerations"] = len(self._enum_keys)
        for i, (name, start, end, _, route) in enumerate(self.spans):
            dur = end - start
            out[f"calls:{name}"] += 1
            out[f"incl:{name}"] += dur
            out[f"self:{name.split('.')[0]}"] += dur - child[i]
            if route is not None:
                out[f"route:{route}"] += dur
        return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(raw: dict, absent) -> dict:
    """Per-layer metrics from summed raw values; absent names are dropped."""
    g = lambda k: raw.get(k, 0)  # noqa: E731
    m = {
        "partitions.oracle_calls": g("calls:partitions.oracle"),
        "partitions.enumerated": g("partitions.enumerated"),
        "partitions.useful_ratio": _ratio(
            g("partitions.distinct_enumerations"), g("partitions.enumerations")
        ),
        "partitions.self_s": g("self:partitions"),
        "series.mul_calls": g("calls:series.mul"),
        "series.mul_s": g("incl:series.mul"),
        "series.mul_terms": g("series.mul_terms"),
        "series.mul_bytes": g("series.mul_bytes"),
        "series.invert_calls": g("calls:series.invert"),
        "series.invert_s": g("incl:series.invert"),
        "series.poch_calls": g("calls:series.poch"),
        "series.poch_s": g("incl:series.poch"),
        "series.poch_factors": g("series.poch_factors"),
        "series.binomial_calls": g("calls:series.binomial"),
        "series.binomial_s": g("incl:series.binomial"),
        "series.eval_s": g("incl:series.eval"),
        "qfunctions.builds": g("qfunctions.cache_misses"),
        "qfunctions.self_s": g("self:qfunctions"),
        "qfunctions.cache_hits": g("qfunctions.cache_hits"),
        "qfunctions.cache_misses": g("qfunctions.cache_misses"),
        "qfunctions.hit_ratio": _ratio(
            g("qfunctions.cache_hits"),
            g("qfunctions.cache_hits") + g("qfunctions.cache_misses"),
        ),
        "qfunctions.redundant_builds": g("qfunctions.redundant_builds"),
        "identities.verify_calls": g("calls:identities.verify"),
        "identities.checks": g("identities.checks"),
        "identities.compare_s": g("self:identities"),
        "asymptotics.hrr_s": g("incl:asymptotics.hrr"),
        "asymptotics.kloosterman_calls": g("calls:asymptotics.kloosterman"),
        "asymptotics.kloosterman_s": g("incl:asymptotics.kloosterman"),
        "asymptotics.dedekind_calls": g("calls:asymptotics.dedekind"),
        "asymptotics.dedekind_hits": g("asymptotics.dedekind_hits"),
        "asymptotics.dedekind_s": g("incl:asymptotics.dedekind"),
        "asymptotics.bessel_s": g("incl:asymptotics.bessel"),
        "cli.self_s": g("self:cli"),
        "cli.stdout_bytes": g("cli.stdout_bytes"),
    }
    for r in ROUTE_KEYS:
        m[f"qfunctions.build_s.{r}"] = g(f"route:{r}")
    return {k: v for k, v in m.items() if k not in absent}


def median_metrics(passes: list) -> dict:
    """Median of each timing over passes; counts from the first pass."""
    out = dict(passes[0])
    for k, unit in PER_LAYER:
        if unit == "s" and k in out:
            out[k] = statistics.median(p[k] for p in passes)
    return out


# ----------------------------------------------------------------------
# installation


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points for the rest of the process."""
    import qmex.asymptotics as A
    import qmex.cli as C
    import qmex.identities as I
    import qmex.partitions as P
    import qmex.qfunctions as Q
    import qmex.series as S

    modules = (S, P, Q, I, A, C)
    registry_checks = [c for d in I.registry() for c in d.checks] if hasattr(I, "registry") else []

    def rebind(orig, new):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is orig:
                            val[k] = new
                        elif isinstance(v, tuple) and any(x is orig for x in v):
                            val[k] = tuple(new if x is orig else x for x in v)
        for check in registry_checks:
            for f in dataclasses.fields(check):
                if getattr(check, f.name) is orig:
                    object.__setattr__(check, f.name, new)

    def patch(owner, attr, make, feeds, everywhere=True):
        orig = vars(owner).get(attr)
        if orig is None:
            tracer.absent.update(feeds)
            return
        new = make(orig)
        if everywhere:
            rebind(orig, new)
        else:
            setattr(owner, attr, new)

    counts = tracer.counts
    IntSeries = getattr(S, "IntSeries", None)

    # series
    def mul_work(args, kwargs):
        a, b = args
        if isinstance(b, IntSeries):
            n = min(a.order, b.order) + 1
            ca, cb = a.coefficients()[:n], b.coefficients()[:n]
            counts["series.mul_terms"] += sum(1 for c in ca if c) * sum(1 for c in cb if c)
            counts["series.mul_bytes"] += _nbytes(ca) + _nbytes(cb)

    mul_feeds = ("series.mul_calls", "series.mul_s", "series.mul_terms", "series.mul_bytes")
    if IntSeries is None:
        tracer.absent.update(mul_feeds + ("series.invert_calls", "series.invert_s", "series.eval_s"))
    else:
        patch(IntSeries, "__mul__", lambda f: tracer.timed("series.mul", f, mul_work), mul_feeds, False)
        patch(IntSeries, "invert", lambda f: tracer.timed("series.invert", f),
              ("series.invert_calls", "series.invert_s"), False)
        patch(IntSeries, "eval_at", lambda f: tracer.timed("series.eval", f), ("series.eval_s",), False)

    def poch_wrapper(fn):
        sig = inspect.signature(fn)

        def factors(args, kwargs):
            b = sig.bind(*args, **kwargs).arguments
            a, step, count, order = b["a"], b["step"], b["count"], b["order"]
            k = (order - a) // step + 1 if a <= order else 0
            counts["series.poch_factors"] += k if count is None else min(count, k)

        return tracer.timed("series.poch", fn, factors)

    patch(S, "poch", poch_wrapper, ("series.poch_calls", "series.poch_s", "series.poch_factors"))
    for name in KERNELS:
        patch(Q, name, lambda f: tracer.timed("series.binomial", f),
              ("series.binomial_calls", "series.binomial_s"), False)

    # qfunctions
    cache_feeds = ("qfunctions.builds", "qfunctions.cache_hits", "qfunctions.cache_misses",
                   "qfunctions.hit_ratio", "qfunctions.redundant_builds")
    for name in BUILDERS:
        fn = vars(Q).get(name)
        if fn is not None and not hasattr(fn, "cache_info"):
            tracer.absent.update(cache_feeds)
        patch(Q, name, lambda f, name=name: tracer.builder(name, f), ("qfunctions.self_s",))

    # partitions
    for name in ORACLES:
        patch(P, name, lambda f: tracer.timed("partitions.oracle", f),
              ("partitions.oracle_calls", "partitions.self_s"))
    patch(P, "enum_partitions", tracer.enumerator, ("partitions.enumerated", "partitions.useful_ratio"))

    # identities
    n_checks = {d.name: len(d.checks) for d in I.registry()} if hasattr(I, "registry") else {}

    def count_checks(args, kwargs):
        counts["identities.checks"] += n_checks.get(args[0] if args else kwargs.get("name"), 0)

    patch(I, "verify", lambda f: tracer.timed("identities.verify", f, count_checks),
          ("identities.verify_calls", "identities.checks", "identities.compare_s"))

    # asymptotics
    patch(A, "hrr_sigma_mex", lambda f: tracer.timed("asymptotics.hrr", f), ("asymptotics.hrr_s",))
    patch(A, "kloosterman_A", lambda f: tracer.timed("asymptotics.kloosterman", f),
          ("asymptotics.kloosterman_calls", "asymptotics.kloosterman_s"))
    patch(A, "bessel_I1", lambda f: tracer.timed("asymptotics.bessel", f), ("asymptotics.bessel_s",))
    patch(A, "tauberian_ratio", lambda f: tracer.timed("asymptotics.tauberian", f), ())
    patch(A, "eta_ratio", lambda f: tracer.timed("asymptotics.eta", f), ())

    def dedekind_wrapper(fn):
        info = getattr(fn, "cache_info", None)
        if info is None:
            tracer.absent.add("asymptotics.dedekind_hits")
            return tracer.timed("asymptotics.dedekind", fn)

        def after(span, misses):
            if info().misses == misses:
                counts["asymptotics.dedekind_hits"] += 1

        return tracer.timed("asymptotics.dedekind", fn, lambda a, k: info().misses, after)

    patch(A, "dedekind_sum", dedekind_wrapper, ("asymptotics.dedekind_calls", "asymptotics.dedekind_s"))

    # cli
    patch(C, "run", lambda f: tracer.timed("cli.run", f), ("cli.self_s",))
