"""The streaming monitor: record ingestion, alerting, verdicts.

A :class:`Monitor` holds one set of detectors per
``(campaign, vantage, resolver, transport)`` group of final DNS queries and is fed one
:class:`~repro.core.results.MeasurementRecord` at a time through
:meth:`Monitor.observe`, usually through :meth:`Monitor.replay` over a
record stream (a run's merged records, a warehouse's canonical iterator,
a JSONL file).  ``observe`` is a pure state update over record fields.

Determinism of the exported artifacts rests on two facts.  Per group,
records arrive in the canonical (virtual-time) order whether replayed
sorted or in a serial campaign's arrival order — rounds are scheduled
hours apart and queries within a measurement chain sequentially — so
every group's detector trajectory, and hence its alert set, is identical
either way.  Across groups, arrival order *can* differ, so
:meth:`Monitor.finalize` sorts the alert log by its canonical key before
export.  Final verdicts come from an embedded
:class:`~repro.store.aggregates.AggregateBook`, whose counters and
histograms are order-independent, which is why re-evaluating a
warehouse's persisted aggregates yields verdicts identical to a replay's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.results import MeasurementRecord
from repro.monitor.detectors import (
    LATENCY_QUANTILES,
    CusumDetector,
    RollingWindow,
    reading,
)
from repro.monitor.events import (
    EventLog,
    HealthEvent,
    Scoreboard,
    SloVerdict,
    rounded,
)
from repro.monitor.slo import SloPolicy, default_policy
from repro.store.aggregates import AggregateBook

#: The axes of an SLO group, in key order.
SLO_AXES = ("campaign", "vantage", "resolver", "transport")
GroupKey = Tuple[str, str, str, str]

#: kind -> (the detector an alert names, the metric a verdict names)
_KIND_NAMES = {
    "availability": ("success_window", "success_rate"),
    "latency_p95": ("latency_window", "latency_p95"),
    "latency_p99": ("latency_window", "latency_p99"),
    "error_budget": ("error_burst", "error_share"),
}


class _GroupState:
    """Per-group detector bundle plus per-objective firing flags."""

    __slots__ = ("group", "window", "cusum", "specs", "firing")

    def __init__(self, policy: SloPolicy, key: GroupKey) -> None:
        self.group = dict(zip(SLO_AXES, key))
        self.window = RollingWindow(policy.window)
        self.cusum = CusumDetector(policy.cusum)
        self.specs = policy.specs_for(*key[1:])
        self.firing: Dict[str, bool] = {spec.name: False for spec in self.specs}


class Monitor:
    """Streaming SLO evaluation over a stream of measurement records."""

    def __init__(self, policy: Optional[SloPolicy] = None) -> None:
        self.policy = policy if policy is not None else default_policy()
        self.alerts = EventLog()
        self.records_seen = 0
        self._book = AggregateBook()
        self._groups: Dict[GroupKey, _GroupState] = {}

    # -- ingestion ---------------------------------------------------------

    def observe(self, record: MeasurementRecord) -> None:
        """Fold one record into detector state; may emit alerts.

        Pure state update — no I/O, no clock, no RNG.
        """
        self.records_seen += 1
        self._book.observe(record)
        if record.kind != "dns_query":
            return
        key = (record.campaign, record.vantage, record.resolver, record.transport)
        state = self._groups.get(key)
        if state is None:
            state = self._groups[key] = _GroupState(self.policy, key)
        state.window.push(
            record.started_at_ms,
            record.success,
            record.duration_ms,
            record.error_class,
        )
        if record.success and record.duration_ms is not None:
            crossing = state.cusum.update(record.duration_ms)
            if crossing is not None:
                # A point event, not a firing/resolved pair: the statistic
                # resets on crossing, so each alarm marks one detected shift.
                baseline = state.cusum.baseline
                self._emit(record, state, "latency-shift", "cusum", "warning",
                           "firing", crossing, {
                               "threshold": state.cusum.config.h,
                               "baseline_mean_ms": rounded(baseline.mean),
                               "baseline_std_ms": rounded(baseline.std),
                               "observed_ms": record.duration_ms,
                           })
        if len(state.window) >= self.policy.window.min_samples:
            self._evaluate_specs(record, state)

    def replay(self, records: Iterable[MeasurementRecord]) -> None:
        """Feed a whole record stream (warehouse iterator, loaded store)."""
        for record in records:
            self.observe(record)

    # -- alerting ----------------------------------------------------------

    def _emit(
        self,
        record: MeasurementRecord,
        state: _GroupState,
        name: str,
        detector: str,
        severity: str,
        status: str,
        value: Optional[float],
        evidence: Dict[str, object],
    ) -> None:
        window = state.window
        oldest, newest = window.span
        self.alerts.emit(
            HealthEvent(
                source="slo",
                name=name,
                group=dict(state.group),
                at_ms=record.started_at_ms,
                status=status,
                severity=severity,
                value=rounded(value),
                evidence={
                    "round_index": record.round_index,
                    "detector": detector,
                    "window": {
                        "count": window.tally.count,
                        "successes": window.tally.successes,
                        "oldest_ms": oldest,
                        "newest_ms": newest,
                    },
                    **evidence,
                },
            )
        )

    def _evaluate_specs(self, record: MeasurementRecord, state: _GroupState) -> None:
        tally = state.window.tally
        for spec in state.specs:
            value = reading(spec.kind, tally, spec.budget_classes())
            breach = spec.breached(value)
            if breach == state.firing[spec.name]:
                continue
            state.firing[spec.name] = breach
            evidence: Dict[str, object] = {
                "threshold": spec.threshold,
                "error_counts": state.window.error_counts(),
            }
            if spec.kind in LATENCY_QUANTILES:
                evidence["quantile"] = LATENCY_QUANTILES[spec.kind]
            elif spec.kind == "error_budget":
                evidence["classes"] = list(spec.budget_classes())
            self._emit(record, state, spec.name, _KIND_NAMES[spec.kind][0],
                       spec.severity, "firing" if breach else "resolved",
                       value, evidence)

    # -- reads -------------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def verdicts(self) -> List[SloVerdict]:
        """Final per-group pass/fail of every objective, from aggregates."""
        return verdicts_from_book(self._book, self.policy)

    def scoreboard(self) -> Scoreboard:
        return Scoreboard.from_verdicts(self.verdicts(), self.alerts)

    def finalize(self, metrics: Optional[object] = None) -> EventLog:
        """Canonical-sort the alert log; optionally export gauges.

        ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` (or
        anything with ``set_gauge``); detector state lands as
        ``monitor.*`` gauges so the monitoring layer shows up in the same
        exposition as everything else.
        """
        self.alerts.canonical_sort()
        if metrics is not None and getattr(metrics, "enabled", True):
            metrics.set_gauge("monitor.groups", float(len(self._groups)))
            metrics.set_gauge("monitor.alerts", float(len(self.alerts)))
            metrics.set_gauge("monitor.records_seen", float(self.records_seen))
            for key in sorted(self._groups):
                state = self._groups[key]
                labels = dict(zip(SLO_AXES[1:], key[1:]))
                metrics.set_gauge(
                    "monitor.success_ratio",
                    reading("availability", state.window.tally),
                    **labels,
                )
                metrics.set_gauge(
                    "monitor.ewma_ms", state.cusum.baseline.mean, **labels
                )
                metrics.set_gauge("monitor.cusum_stat", state.cusum.stat, **labels)
        return self.alerts


def verdicts_from_book(book: AggregateBook, policy: SloPolicy) -> List[SloVerdict]:
    """Evaluate a policy's objectives against run-level aggregates.

    Works identically on a monitor's embedded book and on
    ``Warehouse.aggregates()``, because both are built by folding the same
    records into the same order-independent counters and histograms —
    that equality is what lets batch re-evaluation reproduce the
    monitor's verdicts exactly.  Each value is :func:`reading` over the
    group's summary, the same reading the window alerts on.
    """
    verdicts: List[SloVerdict] = []
    for group in book.groups(kind="dns_query"):
        if group.count < policy.window.min_samples:
            continue
        for spec in policy.specs_for(group.vantage, group.resolver, group.transport):
            value = reading(spec.kind, group, spec.budget_classes())
            verdicts.append(
                SloVerdict(
                    slo=spec.name,
                    vantage=group.vantage,
                    resolver=group.resolver,
                    transport=group.transport,
                    metric=_KIND_NAMES[spec.kind][1],
                    value=value,
                    threshold=spec.threshold,
                    passed=not spec.breached(value),
                    severity=spec.severity,
                    samples=group.count,
                )
            )
    verdicts.sort(key=lambda v: (v.vantage, v.resolver, v.transport, v.slo))
    return verdicts
