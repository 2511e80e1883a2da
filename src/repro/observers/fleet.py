"""The observer fleet: record ingestion, daily evaluation, the report.

An :class:`ObserverFleet` consumes the canonical measurement stream —
live run, warehouse scan, JSONL file, or a parallel run's merged store —
and buckets each final DNS-query record into per-(observer, group,
virtual-day) accumulators: the :class:`~repro.monitor.detectors.Tally`
the monitor's windows count with, read by the same
:func:`~repro.monitor.detectors.reading`, or one of the two fleet-only
folds (transport adoption, answer disagreement).  ``observe`` only ever
*accumulates* into order-independent state (counters, duration
multisets, answer cells); all evaluation happens in
:meth:`ObserverFleet.finalize`, which walks days in ascending order
feeding each group's long-horizon baseline.

That split is the determinism argument: the accumulated state is a pure
function of the record *multiset* (no arrival-order dependence at all),
and finalize's traversal order is fixed (observer name, then day, then
group), so the event JSONL and the world-health index are byte-identical
for any worker count, any record source, and any re-chunking of the same
records — a strictly stronger guarantee than the monitor's, which needs
per-group arrival order preserved.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.render import render_table
from repro.core.results import MeasurementRecord
from repro.core.scheduler import MS_PER_DAY
from repro.monitor.detectors import LATENCY_QUANTILES, Tally, reading
from repro.monitor.events import SEVERITIES, EventLog
from repro.observers.health import WorldHealthIndex
from repro.observers.significance import (
    Candidate,
    Group,
    SignificanceModel,
    debounce_day,
)
from repro.observers.spec import ObserverRegistry, ObserverSpec, default_registry
from repro.transports import QUIC_TRANSPORTS, SESSION_TRANSPORTS

#: Encrypted transports, for the adoption-share denominator: the ones
#: carried over TLS or QUIC, which is also what gives them sessions.
_ENCRYPTED_TRANSPORTS = frozenset(SESSION_TRANSPORTS)
#: QUIC-carried DNS counts as "modern": DoQ and DoH/3 by transport, plus
#: any DoH record that negotiated HTTP/3 (http_version "h3").
_QUIC_TRANSPORTS = frozenset(QUIC_TRANSPORTS)
_MODERN_HTTP_VERSIONS = frozenset({"h3"})


def _region_map() -> Dict[str, str]:
    from repro.catalog.resolvers import CATALOG

    return {
        entry.hostname: entry.region or "unlocatable" for entry in CATALOG
    }


# -- the fleet-only per-day accumulators ---------------------------------------
#
# One instance per (observer, group, virtual day), beside the Tally the
# other kinds keep.  Each is a bag of counters / multisets, so the
# (value, samples) it yields depends only on which records were added,
# never on their order.


class _AdoptionAcc:
    """QUIC-carried share of successful encrypted queries."""

    __slots__ = ("encrypted", "modern")

    def __init__(self) -> None:
        self.encrypted = 0
        self.modern = 0

    def observe(self, record: MeasurementRecord) -> None:
        if not record.success or record.transport not in _ENCRYPTED_TRANSPORTS:
            return
        self.encrypted += 1
        if (
            record.transport in _QUIC_TRANSPORTS
            or record.http_version in _MODERN_HTTP_VERSIONS
        ):
            self.modern += 1

    def reading(self) -> Tuple[Optional[float], int]:
        if not self.encrypted:
            return None, 0
        return self.modern / self.encrypted, self.encrypted


class _DisagreementAcc:
    """Daily answer-disagreement rate via the consensus diff engine.

    Cells are the diff engine's (campaign, round, vantage, domain) groups
    restricted to the day; members are (resolver, canonical form).  The
    reading is disagreeing comparisons over comparable ones, exactly the
    per-resolver rate of :mod:`repro.diff` folded fleet-wide.  Records
    without a captured wire contribute nothing (a campaign without
    ``capture_responses`` simply gives this observer no data).
    """

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells: Dict[Tuple[str, int, str, str], List[Tuple[str, object]]] = {}

    def observe(self, record: MeasurementRecord) -> None:
        if not record.response_wire:
            return
        from repro.dnswire.canonical import canonical_form_from_wire

        key = (
            record.campaign,
            record.round_index,
            record.vantage,
            record.domain or "",
        )
        self.cells.setdefault(key, []).append(
            (record.resolver, canonical_form_from_wire(bytes.fromhex(record.response_wire)))
        )

    def reading(self) -> Tuple[Optional[float], int]:
        from repro.diff.engine import elect_consensus
        from repro.dnswire.canonical import CLASS_AGREE, classify, diff_forms

        comparable = 0
        disagree = 0
        for key in sorted(self.cells):
            members = sorted(self.cells[key], key=lambda m: m[0])
            forms = [form for _, form in members]
            consensus = elect_consensus(forms)
            if consensus is None:
                continue
            for _, form in members:
                mismatches = diff_forms(form, consensus)
                comparable += 1
                if classify(mismatches, form, consensus) != CLASS_AGREE:
                    disagree += 1
        if not comparable:
            return None, 0
        return disagree / comparable, comparable


#: The kinds a Tally cannot read; every other kind is a :func:`reading`.
_FLEET_ONLY = {"adoption_share": _AdoptionAcc, "disagreement_rate": _DisagreementAcc}


def _day_reading(kind: str, acc) -> Tuple[Optional[float], int]:
    """(value, samples behind it) of one group's day."""
    if kind in _FLEET_ONLY:
        return acc.reading()
    samples = len(acc.durations) if kind in LATENCY_QUANTILES else acc.count
    return reading(kind, acc), samples


class ObserverReport:
    """Finalized fleet output: the event log plus the world-health index."""

    def __init__(
        self,
        specs: List[ObserverSpec],
        events: EventLog,
        index: WorldHealthIndex,
        records_seen: int,
        days_observed: int,
    ) -> None:
        self.specs = specs
        self.events = events
        self.index = index
        self.records_seen = records_seen
        self.days_observed = days_observed

    def summary_rows(self) -> List[Dict[str, object]]:
        per: Dict[str, Dict[str, object]] = {
            spec.name: {
                "observer": spec.name,
                "days": 0,
                "significant": 0,
                "silences": 0,
                "worst": "-",
                "last_value": None,
            }
            for spec in self.specs
        }
        for event in self.events:
            row = per.get(event.name)
            if row is None:
                continue
            row["days"] = int(row["days"]) + 1
            if event.status == "significant":
                row["significant"] = int(row["significant"]) + 1
                worst = str(row["worst"])
                if worst == "-" or (
                    SEVERITIES.index(event.severity) > SEVERITIES.index(worst)
                ):
                    row["worst"] = event.severity
            else:
                row["silences"] = int(row["silences"]) + 1
            if event.value is not None:
                row["last_value"] = event.value
        return [per[spec.name] for spec in self.specs]

    def render(self) -> str:
        rows = [
            (
                str(row["observer"]),
                str(row["days"]),
                str(row["significant"]),
                str(row["silences"]),
                str(row["worst"]),
                "-" if row["last_value"] is None else f"{row['last_value']:.4f}",
            )
            for row in self.summary_rows()
        ]
        fleet_table = render_table(
            ("observer", "days", "significant", "silences", "worst", "last value"),
            rows,
        )
        latest = self.index.latest()
        lines = [
            "# Observer fleet",
            "",
            (
                f"records={self.records_seen} days={self.days_observed} "
                f"events={len(self.events.with_status('significant'))} "
                f"silences={len(self.events.with_status('silence'))}"
            ),
            "",
            fleet_table,
            "",
            "# World health",
            "",
            self.index.render(last=14),
            "",
            (
                "index: no measured days"
                if latest is None
                else (
                    f"index: latest score {latest.score:.1f} "
                    f"(trend {latest.trend:.1f}, {latest.band}), "
                    f"min {self.index.min_score():.1f}, "
                    f"worst band {self.index.worst_band()}"
                )
            ),
            "",
        ]
        return "\n".join(lines)


class ObserverFleet:
    """Streaming fleet over measurement records, evaluated per virtual day."""

    def __init__(
        self,
        specs: Optional[Iterable[ObserverSpec]] = None,
    ) -> None:
        if specs is None:
            registry: ObserverRegistry = default_registry()
            self.specs: List[ObserverSpec] = registry.specs()
        else:
            self.specs = sorted(specs, key=lambda spec: spec.name)
        self.records_seen = 0
        self._regions = _region_map()
        # (observer name, group, day) -> accumulator
        self._cells: Dict[Tuple[str, Group, int], object] = {}

    # -- ingestion ---------------------------------------------------------

    def _group_of(self, spec: ObserverSpec, record: MeasurementRecord) -> Group:
        """The record's values along ``spec.axes``."""
        if spec.scope == "fleet":
            group: Group = ()
        elif spec.scope == "region":
            group = (self._regions.get(record.resolver, "unlocatable"),)
        else:
            group = (getattr(record, spec.scope),)  # resolver or vantage
        if spec.kind == "latency_p95":
            group += (record.transport,)
        return group

    def observe(self, record: MeasurementRecord) -> None:
        """Fold one record into per-day state.  Pure accumulation."""
        if record.kind != "dns_query":
            return
        self.records_seen += 1
        day = int(record.started_at_ms // MS_PER_DAY)
        for spec in self.specs:
            key = (spec.name, self._group_of(spec, record), day)
            acc = self._cells.get(key)
            if acc is None:
                acc = self._cells[key] = _FLEET_ONLY.get(spec.kind, Tally)()
            acc.observe(record)

    def replay(self, records: Iterable[MeasurementRecord]) -> None:
        for record in records:
            self.observe(record)

    # -- evaluation --------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len({(name, group) for name, group, _ in self._cells})

    def finalize(self, metrics: Optional[object] = None) -> ObserverReport:
        """Evaluate every observer-day in canonical order; build the report.

        ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` (or
        anything with ``set_gauge``); fleet and world-health state land as
        ``observer.*`` gauges next to the monitor's ``monitor.*`` series.
        """
        events = EventLog()
        days_observed: set = set()
        # Regroup cells per spec: day -> group -> accumulator.
        per_spec: Dict[str, Dict[int, Dict[Group, object]]] = {
            spec.name: {} for spec in self.specs
        }
        for (name, group, day), acc in self._cells.items():
            per_spec[name].setdefault(day, {})[group] = acc

        baselines: Dict[Tuple[str, Group], SignificanceModel] = {}
        for spec in self.specs:
            days = per_spec[spec.name]
            models: Dict[Group, SignificanceModel] = {}
            for day in sorted(days):
                candidates: List[Candidate] = []
                readings = 0
                samples = 0
                warming = 0
                max_abs_z: Optional[float] = None
                for group in sorted(days[day]):
                    value, count = _day_reading(spec.kind, days[day][group])
                    if value is None or count < spec.min_samples:
                        continue
                    model = models.get(group)
                    if model is None:
                        model = models[group] = SignificanceModel(spec)
                    warmed = model.warmed_up
                    candidate, zscore = model.evaluate(group, value, count)
                    readings += 1
                    samples += count
                    if not warmed:
                        warming += 1
                    if zscore is not None and (
                        max_abs_z is None or abs(zscore) > max_abs_z
                    ):
                        max_abs_z = abs(zscore)
                    if candidate is not None:
                        candidates.append(candidate)
                if not readings:
                    continue  # nothing cleared the sample gate: day unmeasured
                days_observed.add(day)
                events.emit(
                    debounce_day(
                        spec,
                        day,
                        day * MS_PER_DAY,
                        candidates,
                        readings,
                        samples,
                        warming,
                        max_abs_z,
                    )
                )
            for group, model in models.items():
                baselines[(spec.name, group)] = model

        events.canonical_sort()
        index = WorldHealthIndex.from_events(events, self.specs, MS_PER_DAY)
        report = ObserverReport(
            specs=self.specs,
            events=events,
            index=index,
            records_seen=self.records_seen,
            days_observed=len(days_observed),
        )
        if metrics is not None and getattr(metrics, "enabled", True):
            self._export_gauges(metrics, report, baselines)
        return report

    def _export_gauges(
        self,
        metrics: object,
        report: ObserverReport,
        baselines: Dict[Tuple[str, Group], SignificanceModel],
    ) -> None:
        metrics.set_gauge("observer.records_seen", float(self.records_seen))
        metrics.set_gauge("observer.specs", float(len(self.specs)))
        metrics.set_gauge("observer.days", float(report.days_observed))
        metrics.set_gauge(
            "observer.events", float(len(report.events.with_status("significant")))
        )
        metrics.set_gauge(
            "observer.silences", float(len(report.events.with_status("silence")))
        )
        for row in report.summary_rows():
            labels = {"observer": str(row["observer"])}
            metrics.set_gauge(
                "observer.significant_days", float(int(row["significant"])), **labels
            )
            if row["last_value"] is not None:
                metrics.set_gauge(
                    "observer.last_value", float(row["last_value"]), **labels
                )
        for (name, group) in sorted(baselines):
            model = baselines[(name, group)]
            labels = {"observer": name, **dict(zip(model.spec.axes, group))}
            metrics.set_gauge(
                "observer.baseline_mean", model.baseline.mean, **labels
            )
            metrics.set_gauge("observer.baseline_std", model.baseline.std, **labels)
        latest = report.index.latest()
        if latest is not None:
            metrics.set_gauge("observer.health_score", latest.score)
            metrics.set_gauge("observer.health_trend", latest.trend)
            low = report.index.min_score()
            if low is not None:
                metrics.set_gauge("observer.health_min_score", low)
