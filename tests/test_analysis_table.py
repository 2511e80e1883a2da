"""The per-group record table: one fold, the same answers, each record once.

Three things are checked here.  First, every public analysis function,
now a function of :class:`~repro.analysis.table.RecordTable`, returns what
the filter-based implementation it replaced returned, dict order
included.  That implementation is kept below as the reference, verbatim
but for two helpers standing in for the deleted ``durations_ms`` /
``by_resolver`` store methods.  Second, a report, a figure and the phase
tables read each record of their source exactly once and never call
``filter``.  Third, a successful record with a non-finite timing is
refused by name instead of making medians depend on record order.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import Dict, List, Optional, Set

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import availability, correlation, figures, longitudinal
from repro.analysis import phases, response_times, sessions, tables
from repro.analysis.figures import FigureRow, PAPER_FIGURES, region_panel_hostnames
from repro.analysis.longitudinal import DriftReport, ResolverDrift
from repro.analysis.phases import PhaseBreakdown, PhaseDelta
from repro.analysis.response_times import LocalWinner, VantageDelta
from repro.analysis.sessions import SessionCell, WarmColdDelta, ZeroRttAcceptance
from repro.analysis.stats import median, quantile, summarize_or_none
from repro.analysis.table import RecordTable
from repro.catalog.browsers import mainstream_hostnames
from repro.core.errors_taxonomy import ESTABLISHMENT_VALUES
from repro.core.results import MeasurementRecord, ResultStore
from repro.errors import AnalysisError
from repro.session import SESSION_STATES, WARM_STATES

# ---------------------------------------------------------------------------
# The reference: the filter-based bodies the table replaced
# ---------------------------------------------------------------------------


def _durations(store, **criteria) -> List[float]:
    """The deleted ``RecordSource.durations_ms``."""
    records = store.filter(success=True, **criteria)
    return [r.duration_ms for r in records if r.duration_ms is not None]


def _by_resolver(store, **criteria) -> Dict[str, List[MeasurementRecord]]:
    """The deleted ``RecordSource.by_resolver``."""
    grouped: Dict[str, List[MeasurementRecord]] = {}
    for record in store.filter(**criteria):
        grouped.setdefault(record.resolver, []).append(record)
    return grouped


class Oracle:
    """Each public analysis function as it read its records before the table."""

    # -- availability ---------------------------------------------------------

    @staticmethod
    def availability_report(store):
        records = store.filter(kind="dns_query")
        successes = sum(1 for r in records if r.success)
        failures = [r for r in records if not r.success]
        breakdown = Counter(r.error_class or "unknown" for r in failures)
        establishment = sum(
            count
            for error_class, count in breakdown.items()
            if error_class in ESTABLISHMENT_VALUES
        )
        share = establishment / len(failures) if failures else 0.0
        return availability.AvailabilityReport(
            successes=successes,
            errors=len(failures),
            error_breakdown=breakdown,
            connection_establishment_share=share,
        )

    @staticmethod
    def per_resolver_error_breakdown(store, vantage=None):
        profiles = {}
        for resolver, records in _by_resolver(store, kind="dns_query", vantage=vantage).items():
            failures = [r for r in records if not r.success]
            profiles[resolver] = availability.ResolverErrorProfile(
                resolver=resolver,
                attempts=len(records),
                errors=len(failures),
                breakdown=Counter(r.error_class or "unknown" for r in failures),
            )
        return profiles

    @staticmethod
    def error_class_shares(store, vantage=None):
        failures = store.filter(kind="dns_query", vantage=vantage, success=False)
        if not failures:
            return {}
        counts = Counter(r.error_class or "unknown" for r in failures)
        total = sum(counts.values())
        return {error_class: count / total for error_class, count in counts.items()}

    @staticmethod
    def retry_burden(store):
        records = store.filter(kind="dns_query")
        if not records:
            return 0.0
        return sum(r.attempts for r in records) / len(records)

    @staticmethod
    def per_resolver_availability(store, vantage=None):
        rates = {}
        for resolver, records in _by_resolver(store, kind="dns_query", vantage=vantage).items():
            successes = sum(1 for r in records if r.success)
            rates[resolver] = successes / len(records) if records else 0.0
        return rates

    @staticmethod
    def unresponsive_resolvers(store, vantage=None):
        return sorted(
            resolver
            for resolver, rate in Oracle.per_resolver_availability(store, vantage).items()
            if rate == 0.0
        )

    @staticmethod
    def failure_pattern_consistency(store):
        failures_by_round: Dict[int, Set[str]] = {}
        always_failed = {
            resolver
            for resolver, rate in Oracle.per_resolver_availability(store).items()
            if rate == 0.0
        }
        for record in store.filter(kind="dns_query", success=False):
            if record.resolver in always_failed:
                continue
            failures_by_round.setdefault(record.round_index, set()).add(record.resolver)
        rounds = [failures_by_round[k] for k in sorted(failures_by_round)]
        similarities = []
        for previous, current in zip(rounds, rounds[1:]):
            union = previous | current
            if not union:
                continue
            similarities.append(len(previous & current) / len(union))
        return median(similarities) if similarities else 0.0

    # -- response times -------------------------------------------------------

    @staticmethod
    def query_durations(store, vantage=None, resolver=None):
        return _durations(store, kind="dns_query", vantage=vantage, resolver=resolver)

    @staticmethod
    def ping_durations(store, vantage=None, resolver=None):
        return _durations(store, kind="ping", vantage=vantage, resolver=resolver)

    @staticmethod
    def resolver_medians(store, vantage=None, resolvers=None):
        wanted = set(resolvers) if resolvers is not None else None
        out = {}
        for resolver, records in _by_resolver(
            store, kind="dns_query", vantage=vantage, success=True
        ).items():
            if wanted is not None and resolver not in wanted:
                continue
            durations = [r.duration_ms for r in records if r.duration_ms is not None]
            if durations:
                out[resolver] = median(durations)
        return out

    @staticmethod
    def largest_vantage_deltas(store, resolvers, near_vantage, far_vantage):
        near = Oracle.resolver_medians(store, vantage=near_vantage, resolvers=resolvers)
        far = Oracle.resolver_medians(store, vantage=far_vantage, resolvers=resolvers)
        deltas = [
            VantageDelta(
                resolver=resolver,
                near_vantage=near_vantage,
                far_vantage=far_vantage,
                near_median_ms=near[resolver],
                far_median_ms=far[resolver],
            )
            for resolver in near
            if resolver in far
        ]
        deltas.sort(key=lambda d: d.delta_ms, reverse=True)
        return deltas[:5]

    @staticmethod
    def local_winners(store, vantage, candidates, mainstream):
        mainstream = list(mainstream)
        medians = Oracle.resolver_medians(store, vantage=vantage)
        winners = []
        for candidate in candidates:
            candidate_median = medians.get(candidate)
            if candidate_median is None:
                continue
            beaten = tuple(
                m for m in mainstream if m in medians and candidate_median < medians[m]
            )
            if beaten:
                winners.append(
                    LocalWinner(
                        resolver=candidate,
                        vantage=vantage,
                        median_ms=candidate_median,
                        beats=beaten,
                    )
                )
        winners.sort(key=lambda w: w.median_ms)
        return winners

    @staticmethod
    def variability(store, resolver, vantage=None):
        durations = Oracle.query_durations(store, vantage=vantage, resolver=resolver)
        if len(durations) < 4:
            return None
        return quantile(durations, 0.75) - quantile(durations, 0.25)

    # -- figures and tables ---------------------------------------------------

    @staticmethod
    def figure_rows(store, vantage, hostnames, mainstream_hostnames=()):
        mainstream = set(mainstream_hostnames)
        rows = []
        for hostname in hostnames:
            rows.append(
                FigureRow(
                    resolver=hostname,
                    mainstream=hostname in mainstream,
                    dns_stats=summarize_or_none(
                        Oracle.query_durations(store, vantage=vantage, resolver=hostname)
                    ),
                    ping_stats=summarize_or_none(
                        Oracle.ping_durations(store, vantage=vantage, resolver=hostname)
                    ),
                )
            )
        rows.sort(
            key=lambda row: row.dns_stats.median if row.dns_stats is not None else float("inf")
        )
        return rows

    @staticmethod
    def paper_figure(store, figure, mainstream_hostnames, home_vantages=()):
        region, vantages = PAPER_FIGURES[figure]
        hostnames = region_panel_hostnames(region)
        panels = {}
        for vantage in vantages:
            if vantage.startswith("home") and home_vantages:
                panels["home-pooled"] = Oracle._pooled_home_rows(
                    store, list(home_vantages), hostnames, mainstream_hostnames
                )
            else:
                panels[vantage] = Oracle.figure_rows(
                    store, vantage, hostnames, mainstream_hostnames
                )
        return panels

    @staticmethod
    def _pooled_home_rows(store, home_vantages, hostnames, mainstream_hostnames):
        mainstream = set(mainstream_hostnames)
        rows = []
        for hostname in hostnames:
            dns_samples: List[float] = []
            ping_samples: List[float] = []
            for vantage in home_vantages:
                dns_samples.extend(Oracle.query_durations(store, vantage=vantage, resolver=hostname))
                ping_samples.extend(Oracle.ping_durations(store, vantage=vantage, resolver=hostname))
            rows.append(
                FigureRow(
                    resolver=hostname,
                    mainstream=hostname in mainstream,
                    dns_stats=summarize_or_none(dns_samples),
                    ping_stats=summarize_or_none(ping_samples),
                )
            )
        rows.sort(key=lambda row: row.dns_stats.median if row.dns_stats is not None else float("inf"))
        return rows

    @staticmethod
    def table2_rows(store):
        return Oracle.largest_vantage_deltas(
            store, tables._region_non_mainstream("AS"), "ec2-seoul", "ec2-frankfurt"
        )

    @staticmethod
    def table3_rows(store):
        return Oracle.largest_vantage_deltas(
            store, tables._region_non_mainstream("EU"), "ec2-frankfurt", "ec2-seoul"
        )

    # -- phases ---------------------------------------------------------------

    @staticmethod
    def phase_breakdown(store, resolver, vantage=None):
        records = store.filter(
            kind="dns_query",
            vantage=vantage,
            resolver=resolver,
            success=True,
            predicate=lambda r: r.duration_ms is not None,
        )
        if not records:
            return None

        def field_median(name):
            values = [getattr(r, name) for r in records if getattr(r, name) is not None]
            return median(values) if values else None

        return PhaseBreakdown(
            resolver=resolver,
            vantage=vantage or "(all)",
            count=len(records),
            median_total_ms=median([r.duration_ms for r in records]),
            median_connect_ms=field_median("connect_ms"),
            median_tls_ms=field_median("tls_ms"),
            median_query_ms=field_median("query_ms"),
        )

    @staticmethod
    def phase_breakdowns(store, vantages=None, resolvers=None):
        if vantages is None:
            vantages = sorted({r.vantage for r in store.filter(kind="dns_query")})
        wanted = set(resolvers) if resolvers is not None else None
        out = []
        for vantage in vantages:
            seen = sorted({r.resolver for r in store.filter(kind="dns_query", vantage=vantage)})
            for resolver in seen:
                if wanted is not None and resolver not in wanted:
                    continue
                breakdown = Oracle.phase_breakdown(store, resolver, vantage)
                if breakdown is not None:
                    out.append(breakdown)
        return out

    @staticmethod
    def phase_deltas(store, resolvers, near_vantage, far_vantage):
        deltas = []
        for resolver in resolvers:
            near = Oracle.phase_breakdown(store, resolver, near_vantage)
            far = Oracle.phase_breakdown(store, resolver, far_vantage)
            if near is None or far is None:
                continue
            deltas.append(PhaseDelta(resolver=resolver, near=near, far=far))
        deltas.sort(key=lambda d: d.added_total_ms, reverse=True)
        return deltas

    @staticmethod
    def error_phases(store):
        counts: Dict[str, int] = {}
        for record in store.filter(kind="dns_query", success=False):
            phase = record.failed_phase or "(unknown)"
            counts[phase] = counts.get(phase, 0) + 1
        return dict(sorted(counts.items()))

    # -- correlation ----------------------------------------------------------

    @staticmethod
    def latency_correlations_from_records(records, vantages=None):
        wanted = list(dict.fromkeys(vantages)) if vantages is not None else None
        seen: set = set()
        dns: Dict = {}
        pings: Dict = {}
        for record in records:
            seen.add(record.vantage)
            if not record.success or record.duration_ms is None:
                continue
            if wanted is not None and record.vantage not in wanted:
                continue
            key = (record.vantage, record.resolver)
            if record.kind == "dns_query":
                dns.setdefault(key, []).append(record.duration_ms)
            elif record.kind == "ping":
                pings.setdefault(key, []).append(record.duration_ms)
        out = {}
        for vantage in wanted if wanted is not None else sorted(seen):
            found = correlation.LatencyCorrelation(vantage=vantage)
            for resolver in sorted(r for v, r in dns if v == vantage):
                ping_samples = pings.get((vantage, resolver), [])
                if len(ping_samples) < 3:
                    continue
                found.pairs.append(
                    (resolver, median(ping_samples), median(dns[(vantage, resolver)]))
                )
            if len(found.pairs) < 3:
                out[vantage] = AnalysisError(
                    f"not enough resolvers with both ping and DNS data from {vantage}"
                )
            else:
                out[vantage] = found
        return out

    # -- longitudinal ---------------------------------------------------------

    class _CampaignTallies:
        def __init__(self, records, vantage=None):
            self.first_seen: Dict[str, float] = {}
            self.durations: Dict = {}
            self.query_counts: Dict = {}
            first_seen = self.first_seen
            for record in records:
                campaign = record.campaign
                if campaign not in first_seen or record.started_at_ms < first_seen[campaign]:
                    first_seen[campaign] = record.started_at_ms
                if record.kind != "dns_query":
                    continue
                if vantage is not None and record.vantage != vantage:
                    continue
                key = (campaign, record.resolver)
                counts = self.query_counts.setdefault(key, [0, 0])
                counts[1] += 1
                if record.success:
                    counts[0] += 1
                    if record.duration_ms is not None:
                        self.durations.setdefault(key, []).append(record.duration_ms)

        def ordered(self):
            return sorted(self.first_seen, key=self.first_seen.__getitem__)

        def _medians(self, campaign):
            return {
                resolver: median(samples)
                for (c, resolver), samples in self.durations.items()
                if c == campaign and samples
            }

        def _availability(self, campaign, resolver):
            successes, total = self.query_counts.get((campaign, resolver), (0, 0))
            return successes / total if total else 0.0

        def reports(self, base, laters):
            base_medians = self._medians(base)
            reports = []
            for later in laters:
                later_medians = self._medians(later)
                report = DriftReport(base_campaign=base, later_campaign=later)
                for resolver in sorted(set(base_medians) & set(later_medians)):
                    report.per_resolver.append(
                        ResolverDrift(
                            resolver=resolver,
                            base_median_ms=base_medians[resolver],
                            later_median_ms=later_medians[resolver],
                            base_availability=self._availability(base, resolver),
                            later_availability=self._availability(later, resolver),
                        )
                    )
                reports.append(report)
            return reports

    @staticmethod
    def campaigns_in_order(store):
        return Oracle._CampaignTallies(store).ordered()

    @staticmethod
    def drift_reports_from_records(records, vantage=None):
        tallies = Oracle._CampaignTallies(records, vantage)
        ordered = tallies.ordered()
        if len(ordered) < 2:
            raise AnalysisError("need at least two campaigns for drift analysis")
        return tallies.reports(ordered[0], ordered[1:])

    # -- sessions -------------------------------------------------------------

    @staticmethod
    def _query_records(source):
        return [
            r
            for r in source
            if r.kind == "dns_query" and r.success and r.duration_ms is not None
        ]

    @staticmethod
    def session_cells(records_by_policy, per_vantage=False):
        cells = []
        for policy, source in records_by_policy.items():
            groups: Dict = {}
            for record in Oracle._query_records(source):
                vantage = record.vantage if per_vantage else "(all)"
                groups.setdefault((record.transport, vantage), []).append(record)
            for (transport, vantage) in sorted(groups):
                members = groups[(transport, vantage)]
                counts = {state: 0 for state in SESSION_STATES}
                for record in members:
                    counts[record.session_state or "cold"] += 1

                def field_median(name):
                    values = [getattr(r, name) for r in members if getattr(r, name) is not None]
                    return median(values) if values else None

                cells.append(
                    SessionCell(
                        policy=policy,
                        transport=transport,
                        vantage=vantage,
                        count=len(members),
                        state_counts=counts,
                        median_total_ms=median([r.duration_ms for r in members]),
                        median_connect_ms=field_median("connect_ms"),
                        median_tls_ms=field_median("tls_ms"),
                    )
                )
        return cells

    @staticmethod
    def warm_cold_deltas(records_by_policy):
        deltas = []
        for policy, source in records_by_policy.items():
            by_transport: Dict = {}
            for record in Oracle._query_records(source):
                by_transport.setdefault(record.transport, []).append(record)
            for transport in sorted(by_transport):
                members = by_transport[transport]
                warm = [r.duration_ms for r in members if (r.session_state or "cold") in WARM_STATES]
                if not warm:
                    continue
                cold = [r.duration_ms for r in members if (r.session_state or "cold") == "cold"]
                deltas.append(
                    WarmColdDelta(
                        policy=policy,
                        transport=transport,
                        cold_count=len(cold),
                        warm_count=len(warm),
                        cold_p95_ms=quantile(cold, 0.95) if cold else None,
                        warm_p95_ms=quantile(warm, 0.95),
                    )
                )
        return deltas

    @staticmethod
    def zero_rtt_acceptance(records_by_policy):
        rows = []
        for policy, source in records_by_policy.items():
            accepted: Dict[str, int] = {}
            fallback: Dict[str, int] = {}
            for record in Oracle._query_records(source):
                state = record.session_state or "cold"
                if state == "zero_rtt":
                    accepted[record.transport] = accepted.get(record.transport, 0) + 1
                elif state == "resumed":
                    fallback[record.transport] = fallback.get(record.transport, 0) + 1
            if not accepted:
                continue
            for transport in sorted(set(accepted) | set(fallback)):
                rows.append(
                    ZeroRttAcceptance(
                        policy=policy,
                        transport=transport,
                        accepted=accepted.get(transport, 0),
                        fallback=fallback.get(transport, 0),
                    )
                )
        return rows

    @staticmethod
    def session_report(records_by_policy, per_vantage=False):
        sections = [
            "## Session scenario matrix",
            sessions.render_session_cells(Oracle.session_cells(records_by_policy, per_vantage)),
        ]
        deltas = Oracle.warm_cold_deltas(records_by_policy)
        if deltas:
            sections.append("\n## Warm vs cold p95 (within-run baseline)")
            sections.append(sessions.render_warm_cold_table(deltas))
        acceptance = Oracle.zero_rtt_acceptance(records_by_policy)
        if acceptance:
            sections.append("\n## 0-RTT acceptance")
            sections.append(sessions.render_zero_rtt_table(acceptance))
        return "\n".join(sections)


# ---------------------------------------------------------------------------
# Small random record sets
# ---------------------------------------------------------------------------

CAMPAIGNS = ("base", "later", "third")
VANTAGES = ("ec2-seoul", "ec2-frankfurt", "home-chicago-1", "home-chicago-2")
RESOLVERS = ("dns.google", "dns.twnic.tw", "dns.alidns.com", "dns.brahma.world", "doh.ffmuc.net")
ERROR_CLASSES = (None, "connect_timeout", "tls_handshake", "http_error", "timeout")
FAILED_PHASES = (None, "tcp_connect", "tls_handshake", "query")
#: Few distinct values, so medians tie and sorts must break ties in order.
TIMES = st.sampled_from((1.0, 2.0, 2.5, 4.0, 40.0, 300.0))


@st.composite
def measurement(draw) -> MeasurementRecord:
    kind = draw(st.sampled_from(("dns_query", "dns_query", "ping", "dns_query_attempt")))
    success = draw(st.booleans())
    optional_time = st.one_of(st.none(), TIMES)
    return MeasurementRecord(
        campaign=draw(st.sampled_from(CAMPAIGNS)),
        vantage=draw(st.sampled_from(VANTAGES)),
        resolver=draw(st.sampled_from(RESOLVERS)),
        kind=kind,
        transport="icmp" if kind == "ping" else draw(st.sampled_from(("doh", "doq"))),
        domain=None if kind == "ping" else "google.com",
        round_index=draw(st.integers(0, 3)),
        started_at_ms=draw(st.sampled_from((0.0, 5.0, 10.0))),
        duration_ms=draw(optional_time if success else st.none()),
        success=success,
        error_class=None if success else draw(st.sampled_from(ERROR_CLASSES)),
        attempts=draw(st.integers(1, 3)),
        connect_ms=draw(optional_time) if success else None,
        tls_ms=draw(optional_time) if success else None,
        query_ms=draw(optional_time) if success else None,
        failed_phase=None if success else draw(st.sampled_from(FAILED_PHASES)),
        session_state=draw(st.sampled_from((None,) + SESSION_STATES)),
    )


record_lists = st.lists(measurement(), max_size=40)


def _query(vantage: str, error_class: Optional[str] = None) -> MeasurementRecord:
    return MeasurementRecord(
        campaign="base", vantage=vantage, resolver="dns.google", kind="dns_query",
        transport="doh", domain="google.com", round_index=0, started_at_ms=0.0,
        duration_ms=None if error_class else 1.0, success=not error_class,
        error_class=error_class,
    )


#: Two groups whose first failures interleave: pooled over vantages, the
#: second group's error class failed first, so it comes first.
INTERLEAVED_FAILURES = [
    _query("ec2-seoul"),
    _query("ec2-frankfurt", "timeout"),
    _query("ec2-seoul", "connect_timeout"),
]


def _plain(value):
    """``value`` with every mapping's order made part of its equality."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            [(f.name, _plain(getattr(value, f.name))) for f in dataclasses.fields(value)],
        )
    if isinstance(value, dict):  # Counter included
        return [(key, _plain(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, AnalysisError):
        return ("AnalysisError", str(value))
    return value


def _outcome(function, *args, **kwargs):
    try:
        return _plain(function(*args, **kwargs))
    except Exception as exc:  # both sides must fail the same way
        return ("raised", type(exc).__name__, str(exc))


def _store(records) -> ResultStore:
    store = ResultStore()
    store.extend(records)
    return store


def _calls(store):
    """(name, new function, oracle function, args, kwargs) for every public function."""
    mainstream = ("dns.google",)
    for name, module in (
        ("availability_report", availability),
        ("retry_burden", availability),
        ("error_phases", phases),
    ):
        yield name, getattr(module, name), getattr(Oracle, name), (store,), {}
    for vantage in (None, "ec2-seoul", "home-chicago-1"):
        for name, module in (
            ("per_resolver_error_breakdown", availability),
            ("error_class_shares", availability),
            ("per_resolver_availability", availability),
            ("unresponsive_resolvers", availability),
            ("resolver_medians", response_times),
        ):
            yield name, getattr(module, name), getattr(Oracle, name), (store,), {"vantage": vantage}
        for resolver in RESOLVERS[:3]:
            yield "variability", response_times.variability, Oracle.variability, \
                (store, resolver), {"vantage": vantage}
        yield "drift_reports_from_records", longitudinal.drift_reports_from_records, \
            Oracle.drift_reports_from_records, (store,), {"vantage": vantage}
    yield "resolver_medians", response_times.resolver_medians, Oracle.resolver_medians, (store,), {
        "vantage": "ec2-frankfurt", "resolvers": RESOLVERS[1:4]}
    yield "failure_pattern_consistency", availability.failure_pattern_consistency, \
        Oracle.failure_pattern_consistency, (store,), {}
    yield "largest_vantage_deltas", response_times.largest_vantage_deltas, \
        Oracle.largest_vantage_deltas, (store, RESOLVERS, "ec2-seoul", "ec2-frankfurt"), {}
    yield "local_winners", response_times.local_winners, Oracle.local_winners, \
        (store, "ec2-seoul", RESOLVERS[1:], mainstream), {}
    for vantage in VANTAGES:
        yield "figure_rows", figures.figure_rows, Oracle.figure_rows, \
            (store, vantage, RESOLVERS, mainstream), {}
    for figure in sorted(PAPER_FIGURES):
        yield "paper_figure", figures.paper_figure, Oracle.paper_figure, \
            (store, figure, mainstream_hostnames()), {"home_vantages": VANTAGES[2:]}
    yield "table2_rows", tables.table2_rows, Oracle.table2_rows, (store,), {}
    yield "table3_rows", tables.table3_rows, Oracle.table3_rows, (store,), {}
    yield "phase_breakdowns", phases.phase_breakdowns, Oracle.phase_breakdowns, (store,), {}
    yield "phase_breakdowns", phases.phase_breakdowns, Oracle.phase_breakdowns, (store,), {
        "vantages": VANTAGES[1:], "resolvers": RESOLVERS[:2]}
    yield "phase_deltas", phases.phase_deltas, Oracle.phase_deltas, \
        (store, RESOLVERS, "ec2-frankfurt", "ec2-seoul"), {}
    yield "latency_correlations_from_records", correlation.latency_correlations_from_records, \
        Oracle.latency_correlations_from_records, (store,), {}
    yield "latency_correlations_from_records", correlation.latency_correlations_from_records, \
        Oracle.latency_correlations_from_records, (store,), {
            "vantages": ["ec2-seoul", "nowhere", "ec2-seoul"]}
    yield "campaigns_in_order", longitudinal.campaigns_in_order, Oracle.campaigns_in_order, \
        (store,), {}


@settings(max_examples=150, deadline=None)
@given(records=record_lists)
@example(records=INTERLEAVED_FAILURES)
def test_every_analysis_function_matches_the_filter_based_reference(records):
    store = _store(records)
    for name, new, old, args, kwargs in _calls(store):
        assert _outcome(new, *args, **kwargs) == _outcome(old, *args, **kwargs), name


@settings(max_examples=100, deadline=None)
@given(records=record_lists)
def test_sample_lists_match_the_reference_as_multisets(records):
    # A sample list's order is not part of its contract — every consumer
    # sorts it — and the table keeps no per-sample positions.
    store = _store(records)
    for vantage in (None, "ec2-seoul"):
        for resolver in (None, "dns.google"):
            assert sorted(
                response_times.query_durations(store, vantage=vantage, resolver=resolver)
            ) == sorted(Oracle.query_durations(store, vantage=vantage, resolver=resolver))


@settings(max_examples=100, deadline=None)
@given(first=record_lists, second=record_lists, per_vantage=st.booleans())
def test_session_tables_match_the_reference(first, second, per_vantage):
    by_policy = {"keep-alive": _store(first), "zero-rtt": _store(second)}
    for name in ("warm_cold_deltas", "zero_rtt_acceptance"):
        new, old = getattr(sessions, name), getattr(Oracle, name)
        assert _outcome(new, by_policy) == _outcome(old, by_policy), name
    for name in ("session_cells", "session_report"):
        new, old = getattr(sessions, name), getattr(Oracle, name)
        assert _outcome(new, by_policy, per_vantage) == _outcome(old, by_policy, per_vantage), name


# ---------------------------------------------------------------------------
# Each record is read once
# ---------------------------------------------------------------------------


class CountingSource:
    """A record source that counts the records it yields and refuses ``filter``."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.yielded = 0

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):
        for record in self.inner:
            self.yielded += 1
            yield record

    def filter(self, *args, **kwargs):
        raise AssertionError("analysis called filter: it must read the records once")


@pytest.fixture(scope="module")
def mini_study():
    from repro.experiments.campaigns import study_legs
    from repro.parallel import run_campaigns
    from tests.conftest import MINI_CATALOG_HOSTNAMES

    return run_campaigns(
        study_legs(
            home_rounds=2, ec2_rounds=2, target_hostnames=MINI_CATALOG_HOSTNAMES,
        ),
        world_seed=0,
        shards=1,
    ).store


@pytest.fixture(params=["store", "warehouse"])
def study_source(request, mini_study, tmp_path):
    if request.param == "store":
        return mini_study
    from repro.store import Warehouse

    return Warehouse.from_records(mini_study.records, tmp_path / "wh")


def test_report_reads_each_record_once(study_source, mini_study):
    from repro.experiments.paper import generate_report

    source = CountingSource(study_source)
    report = generate_report(store=source)
    assert source.yielded == len(mini_study)
    assert report.describe() == generate_report(store=mini_study).describe()


def test_figure_reads_each_record_once(study_source, mini_study):
    from repro.experiments.campaigns import HOME_VANTAGE_NAMES

    source = CountingSource(study_source)
    figures.paper_figure(source, "figure2", mainstream_hostnames(), HOME_VANTAGE_NAMES)
    assert source.yielded == len(mini_study)


def test_phase_tables_read_each_record_once(study_source, mini_study, capsys):
    from repro.cli import _print_phase_tables

    source = CountingSource(study_source)
    _print_phase_tables(source)
    assert source.yielded == len(mini_study)
    assert "Failed phase" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Non-finite timings
# ---------------------------------------------------------------------------


def _timed(duration_ms: Optional[float], **fields) -> MeasurementRecord:
    return MeasurementRecord(
        campaign="c", vantage="v", resolver="r", kind="dns_query", transport="doh",
        domain="google.com", round_index=0, started_at_ms=0.0,
        duration_ms=duration_ms, success=True, **fields,
    )


@pytest.mark.parametrize(
    "bad",
    [
        _timed(math.nan),
        _timed(math.inf),
        _timed(3.0, connect_ms=math.nan),
        _timed(None, query_ms=-math.inf),
    ],
)
def test_a_non_finite_timing_is_refused_by_name(bad):
    # NaN used to make the median of one set of values depend on the order
    # its records came in.
    with pytest.raises(AnalysisError, match="campaign 'c', vantage 'v', resolver 'r'"):
        RecordTable([_timed(1.0), bad, _timed(2.0)])


def test_a_failed_record_with_a_non_finite_duration_is_not_read():
    failed = dataclasses.replace(_timed(math.nan), success=False)
    assert RecordTable([failed]).groups


def test_figure_on_a_results_file_with_nan_exits_2(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "bad.jsonl"
    path.write_text(_timed(4.0).to_json() + "\n" + _timed(math.nan).to_json() + "\n")
    assert main(["figure", "figure1", "--input", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("repro-dns figure: non-finite timing")
    assert len(err.splitlines()) == 1
