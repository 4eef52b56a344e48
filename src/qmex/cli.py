"""Command line front end.

Exit codes: 0 for success (and for PASS verdicts), 1 for a verification
FAIL or a numerical-integrity failure, 2 for usage errors. Output on
stdout is deterministic for a given command line; timestamps appear
only in exported files, never in stdout payloads.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import __version__
from .asymptotics import (
    AsymKind,
    NumericalIntegrityError,
    asym_value,
    eta_ratio,
    hrr_sigma_mex,
    tauberian_ratio,
)
from .identities import registry, verify_each
from .partitions import StatKind, stat_sum_oracle
from .qfunctions import Form, NamedSeries, RefinedKind, available_series, build_named, refined_series


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _record(named: NamedSeries, meta: Optional[dict] = None) -> dict:
    base = {"package": "qmex", "version": __version__}
    if meta:
        base.update(meta)
    return {
        "name": named.name,
        "form": named.form.value,
        "order": named.series.order,
        "coeffs": [str(c) for c in named.series.coefficients()],
        "meta": base,
    }


def _emit_series(named: NamedSeries, fmt: str, out=None, meta: Optional[dict] = None) -> None:
    out = out or sys.stdout
    if fmt == "csv":
        lines = [f"{n},{c}\n" for n, c in enumerate(named.series.coefficients())]
        out.write("n,value\n" + "".join(lines))
    else:
        import json  # here, where JSON is written, not by import qmex.cli

        print(json.dumps(_record(named, meta), indent=2), file=out)


# ----------------------------------------------------------------------
# handlers


def _cmd_series(args: argparse.Namespace) -> int:
    named = build_named(args.name, args.order, Form(args.form))
    _emit_series(named, args.format)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    kind = StatKind(args.stat)
    # top n first: an over-budget --n refuses before any enumeration
    values = [stat_sum_oracle(kind, n, args.distinct) for n in range(args.n, -1, -1)]
    print("n,value")
    for n, value in enumerate(reversed(values)):
        print(f"{n},{value}")
    return 0


def _report_line(report) -> str:
    head = f"{report.status.value} {report.name} (range {report.range_checked})"
    if report.first_mismatch is not None:
        m = report.first_mismatch
        head += f" at n={m.n}: lhs={m.lhs} rhs={m.rhs} [{m.check}]"
    if report.note:
        head += f" note: {report.note}"
    return head


def _cmd_verify(args: argparse.Namespace) -> int:
    names = [d.name for d in registry()] if args.all else [args.identity]
    reports = verify_each(names, args.order, args.oracle_max)
    for report in reports:
        print(_report_line(report))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_hrr(args: argparse.Namespace) -> int:
    res = hrr_sigma_mex(args.n, args.terms)
    print("n,terms,partial_sum,rounded,residual")
    print(f"{res.n},{res.terms},{res.partial_sum!r},{res.rounded},{res.residual!r}")
    return 0


def _cmd_asym(args: argparse.Namespace) -> int:
    value = asym_value(AsymKind(args.kind), args.n)
    print("kind,n,value")
    print(f"{args.kind},{args.n},{value!r}")
    return 0


def _cmd_tauberian(args: argparse.Namespace) -> int:
    tauberian = tauberian_ratio(args.t, args.order)
    eta = eta_ratio(args.t, args.order)
    print("name,value")
    print(f"tauberian_ratio,{tauberian!r}")
    print(f"eta_ratio,{eta!r}")
    return 0


def _cmd_refine(args: argparse.Namespace) -> int:
    s = refined_series(args.order, RefinedKind(args.kind), args.index)
    named = NamedSeries(f"refined-{args.kind}-{args.index}", Form.CANONICAL, s)
    _emit_series(named, args.format)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone  # only an exported file has a timestamp

    named = build_named(args.name, args.order, Form(args.form))
    meta = {"generated_at": datetime.now(timezone.utc).isoformat()}
    with open(args.out, "w", encoding="utf-8") as fh:
        _emit_series(named, args.format, fh, meta)
    print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# parser


@functools.cache  # one parser per process: run() is called once per request
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmex",
        description="Exact q-series for excludant statistics of integer partitions.",
    )
    parser.add_argument("--version", action="version", version=f"qmex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print a cataloged series")
    p.add_argument("name", choices=available_series())
    p.add_argument("--order", type=_nonneg, required=True)
    p.add_argument("--form", choices=[f.value for f in Form], default="canonical")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("oracle", help="brute-force statistic sums")
    p.add_argument("stat", choices=[k.value for k in StatKind])
    p.add_argument("--n", type=_nonneg, required=True)
    p.add_argument("--distinct", action="store_true")
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify", help="check registered identities")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--identity", choices=sorted(d.name for d in registry()))
    p.add_argument("--order", type=_nonneg, default=None, help="series comparison order")
    p.add_argument("--oracle-max", type=_nonneg, default=None, help="maximal n for oracle entries")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("hrr", help="exact-phase Rademacher partial sum")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--terms", type=_positive, default=10)
    p.set_defaults(handler=_cmd_hrr)

    p = sub.add_parser("asym", help="leading-order growth of a statistic sum")
    p.add_argument("--kind", choices=[k.value for k in AsymKind], required=True)
    p.add_argument("--n", type=_positive, required=True)
    p.set_defaults(handler=_cmd_asym)

    p = sub.add_parser("tauberian", help="series value at exp(-t) against prediction")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--order", type=_nonneg, required=True)
    p.set_defaults(handler=_cmd_tauberian)

    p = sub.add_parser("refine", help="one slice of a refined family")
    p.add_argument("kind", choices=[k.value for k in RefinedKind])
    p.add_argument("--index", type=_nonneg, required=True)
    p.add_argument("--order", type=_nonneg, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("export", help="write a series to a file")
    p.add_argument("name", choices=available_series())
    p.add_argument("--order", type=_nonneg, required=True)
    p.add_argument("--form", choices=[f.value for f in Form], default="canonical")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_export)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except NumericalIntegrityError as exc:
        print(f"numerical integrity failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
