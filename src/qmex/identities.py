"""Registry of series identities and the machinery that checks them.

Every entry pins one clean mathematical statement to executable code.
A SERIES_SERIES identity compares two independently built series
coefficient by coefficient; a SERIES_ORACLE identity compares a series
against brute-force partition enumeration. Comparison is exact integer
equality, never approximate: these are theorems, and a single
mismatched coefficient is a failure that reports the smallest bad
index.

Beyond the registry there are three scan-style checks (monotonicity,
parity, positivity) whose statements quantify over a coefficient range
rather than equating two series.

Every verdict takes one path: a bad range is refused before any work
(verify_each refuses before it verifies any entry), the first row
(n, got, want, label, holds) that does not hold is the Mismatch, and a
VerificationReport is PASS exactly when it holds no Mismatch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, combinations, count, filterfalse, repeat
from operator import attrgetter, eq, ge, itemgetter, lt
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .partitions import (
    CountKind,
    StatKind,
    _pentagonal,
    refined_count_oracle,
    stat_sum_oracle,
    two_colored_distinct_count,
)
from .qfunctions import (
    Form,
    RefinedKind,
    _CATALOGUE,
    _check_order,
    _slices,
    a_d_series,
    a_series,
    build_named,
    chern_sigma_maex_series,
    dcount_series,
    distinct_gen,
    refined_series,
    sigma_L_series,
    sigma_d_maex_series,
    sigma_d_mex_series,
    sigma_d_moex_series,
    sigma_mex_series,
)
from .series import INFINITE, IntSeries, one, poch

SeriesBuilder = Callable[[int], IntSeries]
Oracle = Callable[[int], int]


class Comparison(enum.Enum):
    SERIES_SERIES = "series-series"
    SERIES_ORACLE = "series-oracle"


class Status(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"


# The two check records stay dataclasses while perfbench/tracing.py
# rebinds the builders they hold through dataclasses.fields.
@dataclass(frozen=True)
class SeriesPair:
    """Two routes to the same series."""

    label: str
    lhs: SeriesBuilder
    rhs: SeriesBuilder


@dataclass(frozen=True)
class OraclePair:
    """A series against an enumeration oracle."""

    label: str
    series: SeriesBuilder
    oracle: Oracle


Check = Union[SeriesPair, OraclePair]


class IdentityDescriptor(NamedTuple):
    """One registered identity.

    checks holds every concrete comparison the identity bundles (a
    three-form equivalence carries all pairwise comparisons, for
    instance). default_range is the coefficient range used when the
    caller does not pick one: a truncation order for SERIES_SERIES, a
    maximal n for SERIES_ORACLE.
    """

    name: str
    comparison: Comparison
    checks: tuple[Check, ...]
    default_range: int
    statement: str


class Mismatch(NamedTuple):
    n: int
    lhs: int
    rhs: int
    check: str


class VerificationReport(NamedTuple):
    name: str
    range_checked: int
    first_mismatch: Optional[Mismatch] = None
    note: Optional[str] = None

    @property
    def status(self) -> Status:
        return Status.PASS if self.first_mismatch is None else Status.FAIL

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None


# ----------------------------------------------------------------------
# the one verdict path

_Row = tuple[int, int, int, str, bool]  # (n, got, want, check label, whether it holds)


def _upto(series: IntSeries, rng: int) -> tuple[int, ...]:
    """Coefficients 0..rng of series; IndexError if it stops short, so no zip truncates it."""
    series.coefficient(rng)
    return series.coefficients()[: rng + 1]


def _rows(ns: Iterable[int], got: Sequence[int], want: Sequence[int], label: str, holds=eq) -> Iterator[_Row]:
    """Row i is (ns[i], got[i], want[i], label, holds(got[i], want[i])), to the shortest input."""
    return zip(ns, got, want, repeat(label), map(holds, got, want))  # zip and map: the compare runs in C


def _first_failure(rows: Iterable[_Row]) -> Optional[Mismatch]:
    """The first row that does not hold, as a Mismatch; None if all hold."""
    row = next(filterfalse(itemgetter(4), rows), None)
    return None if row is None else Mismatch(*row[:4])


# ----------------------------------------------------------------------
# builders used by more than one entry


def _sliced(kind: Optional[RefinedKind], weight: Callable[[int], int]) -> SeriesBuilder:
    """sum_k weight(k) * slice k of a family (None: the mex > i tails of dcount_series).

    Every slice nonzero at the order comes from the running quotients of
    qfunctions._slices and, unless its weight is 0, is added into one
    list: a route apart from the aggregate builders, which sum q-series
    terms and multiply.
    """

    def build(order: int) -> IntSeries:
        total = [0] * (order + 1)
        for k, low, body in _slices(kind, order):
            w = weight(k)
            if w:
                total[low:] = [t + w * v for t, v in zip(total[low:], body)]
        return IntSeries(total)

    return build


def _route(name: str, form: Form) -> SeriesBuilder:
    """One form of a catalogued series, looked up by name at call time."""
    return lambda o: build_named(name, o, form).series


def _shifted_smallest_gt(i: int) -> Oracle:
    t = i * (i + 1) // 2  # the staircase 1 + 2 + ... + i, where dcount slice i starts
    return lambda n: refined_count_oracle(CountKind.SMALLEST_GT, i, n - t, True) if n >= t else 0


def _odd_mex_count_all(n: int) -> int:
    return refined_count_oracle(CountKind.ODD_MEX, 0, n)


# ----------------------------------------------------------------------
# the registry itself

_SS = Comparison.SERIES_SERIES
_SO = Comparison.SERIES_ORACLE


def _build_registry() -> tuple[IdentityDescriptor, ...]:
    entries: list[IdentityDescriptor] = []

    def ss(name: str, statement: str, *checks: Check, rng: int = 300) -> None:
        entries.append(IdentityDescriptor(name, _SS, tuple(checks), rng, statement))

    def so(name: str, statement: str, *checks: Check, rng: int) -> None:
        entries.append(IdentityDescriptor(name, _SO, tuple(checks), rng, statement))

    def enumerated(series: SeriesBuilder, oracle: Oracle) -> OraclePair:
        return OraclePair("series-vs-enumeration", series, oracle)

    def forms_agree(name: str, series: str, statement: str) -> None:
        """Register every pair of the catalogued forms of series, in catalogue order."""
        checks = (
            SeriesPair(f"{a.value}-vs-{b.value}", _route(series, a), _route(series, b))
            for a, b in combinations(_CATALOGUE[series][1], 2)
        )
        ss(name, statement, *checks)

    forms_agree(
        "thm-sigma-d-mex",
        "sigma-d-mex",
        "sigma-sum-identity times the unit (-q;q)_inf: sigma-d-mex CANONICAL = ALT1",
    )
    forms_agree(
        "sigma-sum-identity",
        "sigma",
        "sum_{n>=0} q^(n(n+1)/2)/(-q;q)_n = sum_{m>=1} m q^(m(m-1)/2)/(-q;q)_m",
    )
    forms_agree(
        "a-d-form-equivalence",
        "a-d",
        "odd-mex count over distinct partitions: alternating triangular sum "
        "= sum over q^(n(2n+1))/(-q;q)_(2n+1)",
    )
    forms_agree(
        "moex-form-equivalence",
        "sigma-d-moex",
        "moex-sum over distinct partitions: q^(n^2)/(-q;q^2)_n sum "
        "= alternating q^n (q^2;q^2)_(n-1) sum = 1 + sigma_star(-q), "
        "all times (-q;q)_inf",
    )
    ss(
        "euler-identity",
        "(-q;q)_inf (q;q^2)_inf = 1, equivalently distinct = 1/odd-parts",
        SeriesPair("product-is-one", lambda o: poch(1, 1, 1, INFINITE, o) * poch(-1, 1, 2, INFINITE, o), one),
        SeriesPair("distinct-vs-inverted-odd", distinct_gen, lambda o: poch(-1, 1, 2, INFINITE, o).invert()),
    )
    ss(
        "d-i-sum",
        "code check, not a theorem: the mex > i tails of _slices, summed over i >= 0, regroup "
        "sigma-d-mex CANONICAL (-q;q)_inf sum_n q^(n(n+1)/2)/(-q;q)_n, built by _nested_sum",
        SeriesPair("sum-vs-sigma-d-mex", _sliced(None, lambda i: 1), sigma_d_mex_series),
    )
    ss(
        "refined-mex-weighted-sum",
        "code check, not a theorem: sum_m m [mex slice m of _slices] regroups "
        "sigma-d-mex ALT1 (-q;q)_inf sum_m m q^(m(m-1)/2)/(-q;q)_m, built by _nested_sum",
        SeriesPair("weighted-slices", _sliced(RefinedKind.MEX, lambda m: m), sigma_d_mex_series),
    )
    ss(
        "refined-mex-unweighted-sum",
        "sum_m [distinct partitions with mex = m] = (-q;q)_inf",
        SeriesPair("unweighted-slices", _sliced(RefinedKind.MEX, lambda m: 1), distinct_gen),
    )
    ss(
        "refined-omex-sum",
        "sum_k [distinct partitions with mex = 2k+1] = odd-mex count over distinct",
        SeriesPair("omex-slices", _sliced(RefinedKind.MEX, lambda m: m % 2), a_d_series),
    )
    ss(
        "refined-moex-weighted-sum",
        "sum_k (2k+1) [distinct partitions with moex = 2k+1] = moex-sum over distinct",
        SeriesPair(
            "weighted-moex-slices", _sliced(RefinedKind.MOEX, lambda k: 2 * k + 1), sigma_d_moex_series
        ),
    )
    ss(
        "refined-maex-weighted-sum",
        "code check, not a theorem: sum_k k [maex slice k of _slices] regroups sigma-d-maex's double sum",
        SeriesPair("weighted-maex-slices", _sliced(RefinedKind.MAEX, lambda k: k), sigma_d_maex_series),
    )

    so(
        "sigma-mex-equals-d2-oracle",
        "mex-sum over all partitions of n = number of two-colored "
        "distinct-part partition pairs of total weight n = [q^n] (-q;q)_inf^2",
        OraclePair("series-vs-mex-sum", sigma_mex_series, lambda n: stat_sum_oracle(StatKind.MEX, n)),
        OraclePair("series-vs-pair-count", sigma_mex_series, two_colored_distinct_count),
        rng=30,
    )
    so(
        "sigma-d-mex-oracle",
        "[q^n] (-q;q)_inf sigma(q) = mex-sum over distinct partitions of n",
        enumerated(sigma_d_mex_series, lambda n: stat_sum_oracle(StatKind.MEX, n, True)),
        rng=40,
    )
    so(
        "a-d-oracle",
        "[q^n] odd-mex series = count of distinct partitions of n with odd mex",
        enumerated(a_d_series, lambda n: refined_count_oracle(CountKind.ODD_MEX, 0, n, True)),
        rng=40,
    )
    so(
        "sigma-d-moex-oracle",
        "[q^n] moex series = moex-sum over distinct partitions of n",
        enumerated(sigma_d_moex_series, lambda n: stat_sum_oracle(StatKind.MOEX, n, True)),
        rng=40,
    )
    so(
        "sigma-d-maex-oracle",
        "[q^n] maex double sum = maex-sum over distinct partitions of n",
        enumerated(sigma_d_maex_series, lambda n: stat_sum_oracle(StatKind.MAEX, n, True)),
        rng=40,
    )
    so(
        "chern-sigma-maex-oracle",
        "[q^n] maex double sum over all partitions = maex-sum over all partitions",
        enumerated(chern_sigma_maex_series, lambda n: stat_sum_oracle(StatKind.MAEX, n)),
        rng=30,
    )
    so(
        "sigma-l-oracle",
        "[q^n] sum_m d(m) q^m/(q;q)_inf = largest-part sum over all partitions of n",
        enumerated(sigma_L_series, lambda n: stat_sum_oracle(StatKind.LARGEST, n)),
        rng=30,
    )
    so(
        "a-series-oracle-gate",
        "[q^n] odd-mex series over all partitions = count of partitions of n with odd mex",
        enumerated(a_series, _odd_mex_count_all),
        rng=35,
    )
    so(
        "d-i-bijection",
        "distinct partitions of n with mex > i = distinct partitions of "
        "n - i(i+1)/2 with all parts > i (staircase removal)",
        *[
            c
            for i in (1, 2, 3, 4)
            for c in (
                OraclePair(
                    f"dcount-{i}-vs-mex-gt",
                    (lambda i: lambda o: dcount_series(o, i))(i),
                    (lambda i: lambda n: refined_count_oracle(CountKind.MEX_GT, i, n, True))(i),
                ),
                OraclePair(
                    f"dcount-{i}-vs-shifted-smallest-gt",
                    (lambda i: lambda o: dcount_series(o, i))(i),
                    _shifted_smallest_gt(i),
                ),
            )
        ],
        rng=40,
    )
    so(
        "refined-mex-slice-oracle",
        "[q^n] mex slice m = count of distinct partitions of n with mex = m",
        *[
            OraclePair(
                f"slice-{m}-vs-enumeration",
                (lambda m: lambda o: refined_series(o, RefinedKind.MEX, m))(m),
                (lambda m: lambda n: refined_count_oracle(CountKind.MEX_EQ, m, n, True))(m),
            )
            for m in (1, 2, 3)
        ],
        rng=40,
    )

    return tuple(entries)


_REGISTRY = _build_registry()
_BY_NAME = {d.name: d for d in _REGISTRY}


def registry() -> list[IdentityDescriptor]:
    """All registered identities, in registration order."""
    return list(_REGISTRY)


def verify(name: str, order_or_nmax: Optional[int] = None) -> VerificationReport:
    """Check one registered identity over a coefficient range.

    The range is a truncation order for series-vs-series entries and a
    maximal n for oracle entries; None picks the entry's default.
    Unknown names raise KeyError.
    """
    return verify_descriptor(_BY_NAME[name], order_or_nmax)


def verify_each(
    names: Iterable[str], order: Optional[int] = None, oracle_max: Optional[int] = None
) -> list[VerificationReport]:
    """verify() each named identity at order (series-series) or oracle_max (oracle).

    The range of every entry (None: its default) is checked by _range before any is verified:
    series-series entries first, then oracle entries, each largest range first, so that the
    census walked for the first oracle serves every lower n. The sort is stable, so entries
    that share a range refuse in the order of names, and the reports keep that order.
    """
    descs = [_BY_NAME[name] for name in names]
    asked = [(d, order if d.comparison is _SS else oracle_max) for d in descs]

    def rank(pair: tuple[IdentityDescriptor, Optional[int]]) -> tuple[bool, int]:
        desc, rng = pair
        return desc.comparison is not _SS, -(desc.default_range if rng is None else rng)

    for desc, rng in sorted(asked, key=rank):
        _range(desc, rng)
    return [verify(desc.name, rng) for desc, rng in asked]


def _range(desc: IdentityDescriptor, order_or_nmax: Optional[int]) -> int:
    """The range to verify desc over (None: its default), refused before any series is built.

    A negative range or a series-series order above MAX_ORDER raises
    ValueError. Every oracle is evaluated at the top of the range, so a
    range past the enumeration budget raises before any smaller n is walked.
    """
    rng = desc.default_range if order_or_nmax is None else order_or_nmax
    if rng < 0:
        raise ValueError("verification range must be non-negative")
    if desc.comparison is _SS:
        _check_order(rng)
    for check in desc.checks:
        if isinstance(check, OraclePair):
            check.oracle(rng)
    return rng


def verify_descriptor(desc: IdentityDescriptor, order_or_nmax: Optional[int] = None) -> VerificationReport:
    """Run every check of a descriptor over its _range; FAIL carries the smallest bad n.

    Of two checks that fail at the same n, the first registered is reported.
    """
    rng = _range(desc, order_or_nmax)
    firsts = []
    for check in desc.checks:
        if isinstance(check, SeriesPair):
            got, want = _upto(check.lhs(rng), rng), _upto(check.rhs(rng), rng)
        else:
            got, want = _upto(check.series(rng), rng), [check.oracle(n) for n in range(rng + 1)]
        firsts.append(_first_failure(_rows(count(), got, want, check.label)))
    return VerificationReport(desc.name, rng, min(filter(None, firsts), key=attrgetter("n"), default=None))


# ----------------------------------------------------------------------
# scan-style checks


def _check_scan(name: str, nmax: int, least: int) -> None:
    """Refuse a scan range below least or above MAX_ORDER before any work."""
    if nmax < least:
        raise ValueError(f"{name} scan needs nmax >= {least}")
    _check_order(nmax)


def monotonicity_check(nmax: int) -> VerificationReport:
    """Strict growth of the distinct-mex sum from n = 7 on.

    The sum is flat from 6 to 7 (both coefficients are 8) and strictly
    increasing afterwards; the flat step is recorded as a note, the
    strict part is the checked claim.
    """
    _check_scan("monotonicity", nmax, 8)
    s = _upto(sigma_d_mex_series(nmax), nmax)
    note = f"boundary equality at 6 -> 7 (both {s[6]})" if s[6] == s[7] else None
    first = _first_failure(_rows(count(7), s[7:], s[8:], "strict-increase", lt))
    return VerificationReport("monotonicity", nmax, first, note)


def parity_check(nmax: int) -> VerificationReport:
    """Parity of the odd-mex count over all partitions.

    a(n) is odd exactly when n = j(3j-1) or j(3j+1) for some j >= 1
    (n = 0 is left out of the scan), and the mex-sum over all
    partitions has the same parity as a(n). The series for a(n) is
    gated against the enumeration oracle up to n = 35 before the
    pattern is trusted.
    """
    _check_scan("parity", nmax, 1)
    gate = min(nmax, 35)
    gated = [_odd_mex_count_all(n) for n in range(gate, -1, -1)][::-1]  # top first: one walk
    a = _upto(a_series(nmax), nmax)
    special = {2 * g for g, _ in _pentagonal(nmax // 2)}
    odd, pentagonal = [c % 2 for c in a[1:]], [int(n in special) for n in range(1, nmax + 1)]
    mex_sum = [c % 2 for c in _upto(sigma_mex_series(nmax), nmax)[1:]]
    # the gate, then from n = 1 on the pentagonal pattern before the mex-sum parity at each n
    pattern = _rows(count(1), odd, pentagonal, "odd-iff-pentagonal-pair")
    parity = _rows(count(1), mex_sum, odd, "mex-sum-parity")
    rows = chain(_rows(count(), a, gated, "oracle-gate"), chain.from_iterable(zip(pattern, parity)))
    first = _first_failure(rows)
    return VerificationReport("parity", nmax, first, None if first else f"oracle gate to {gate}")


def positivity_check(nmax: int) -> VerificationReport:
    """The odd-mex count over distinct partitions vanishes only at n = 1."""
    _check_scan("positivity", nmax, 2)
    s = _upto(a_d_series(nmax), nmax)
    zero = _rows((1,), s[1:2], (0,), "zero-at-one")
    rest = (s[0], *s[2:])  # every n but 1
    positive = _rows((0, *range(2, nmax + 1)), rest, (1,) * nmax, "strictly-positive", ge)
    return VerificationReport("positivity", nmax, _first_failure(chain(zero, positive)))
