"""The streaming monitor: record ingestion, alerting, verdicts.

A :class:`Monitor` holds one set of detectors per
``(campaign, vantage, resolver, transport, kind)`` group and is fed one
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
from repro.monitor.alerts import AlertEvent, AlertLog, Scoreboard, SloVerdict
from repro.monitor.detectors import CusumDetector, RollingWindow
from repro.monitor.slo import SloPolicy, SloSpec, default_policy
from repro.store.aggregates import AggregateBook

GroupKey = Tuple[str, str, str, str, str]

_KIND_TO_QUANTILE = {"latency_p95": 0.95, "latency_p99": 0.99}


class _GroupState:
    """Per-group detector bundle plus per-objective firing flags."""

    __slots__ = ("window", "cusum", "specs", "firing", "last_round")

    def __init__(self, policy: SloPolicy, specs: List[SloSpec]) -> None:
        self.window = RollingWindow(policy.window)
        self.cusum = CusumDetector(policy.cusum)
        self.specs = specs
        self.firing: Dict[str, bool] = {spec.name: False for spec in specs}
        self.last_round = -1


class Monitor:
    """Streaming SLO evaluation over a stream of measurement records."""

    def __init__(self, policy: Optional[SloPolicy] = None) -> None:
        self.policy = policy if policy is not None else default_policy()
        self.alerts = AlertLog()
        self.records_seen = 0
        self._book = AggregateBook()
        self._groups: Dict[GroupKey, _GroupState] = {}
        self._finalized = False

    # -- ingestion ---------------------------------------------------------

    def observe(self, record: MeasurementRecord) -> None:
        """Fold one record into detector state; may emit alerts.

        Pure state update — no I/O, no clock, no RNG.
        """
        self.records_seen += 1
        self._book.observe(record)
        if record.kind != "dns_query":
            return
        key: GroupKey = (
            record.campaign,
            record.vantage,
            record.resolver,
            record.transport,
            record.kind,
        )
        state = self._groups.get(key)
        if state is None:
            state = _GroupState(
                self.policy,
                self.policy.specs_for(
                    record.vantage, record.resolver, record.transport
                ),
            )
            self._groups[key] = state
        state.last_round = record.round_index
        state.window.push(
            record.started_at_ms,
            record.success,
            record.duration_ms,
            record.error_class,
        )
        if record.success and record.duration_ms is not None:
            crossing = state.cusum.update(record.duration_ms)
            if crossing is not None:
                self._emit_cusum_alert(record, state, crossing)
        if len(state.window) >= self.policy.window.min_samples:
            self._evaluate_specs(record, state)

    def replay(self, records: Iterable[MeasurementRecord]) -> None:
        """Feed a whole record stream (warehouse iterator, loaded store)."""
        for record in records:
            self.observe(record)

    # -- alerting ----------------------------------------------------------

    def _window_snapshot(self, state: _GroupState) -> Dict[str, object]:
        oldest, newest = state.window.span
        return {
            "count": state.window.count,
            "successes": state.window.successes,
            "oldest_ms": oldest,
            "newest_ms": newest,
        }

    def _emit(
        self,
        record: MeasurementRecord,
        state: _GroupState,
        *,
        slo: str,
        detector: str,
        severity: str,
        status: str,
        evidence: Dict[str, object],
    ) -> None:
        self.alerts.emit(
            AlertEvent(
                campaign=record.campaign,
                vantage=record.vantage,
                resolver=record.resolver,
                transport=record.transport,
                slo=slo,
                detector=detector,
                severity=severity,
                status=status,
                round_index=record.round_index,
                at_ms=record.started_at_ms,
                window=self._window_snapshot(state),
                evidence=evidence,
            )
        )

    def _emit_cusum_alert(
        self, record: MeasurementRecord, state: _GroupState, crossing: float
    ) -> None:
        # Point event, not a firing/resolved pair: the statistic resets on
        # crossing, so each alarm marks one detected shift.
        self._emit(
            record,
            state,
            slo="latency-shift",
            detector="cusum",
            severity="warning",
            status="firing",
            evidence={
                "statistic": round(crossing, 6),
                "threshold": state.cusum.config.h,
                "baseline_mean_ms": round(state.cusum.baseline.mean, 6),
                "baseline_std_ms": round(state.cusum.baseline.std, 6),
                "observed_ms": record.duration_ms,
            },
        )

    def _evaluate_specs(self, record: MeasurementRecord, state: _GroupState) -> None:
        for spec in state.specs:
            value, breach, evidence = self._check_spec(spec, state)
            was_firing = state.firing[spec.name]
            if breach and not was_firing:
                state.firing[spec.name] = True
                self._emit(
                    record,
                    state,
                    slo=spec.name,
                    detector=_DETECTOR_NAMES[spec.kind],
                    severity=spec.severity,
                    status="firing",
                    evidence=evidence,
                )
            elif was_firing and not breach:
                state.firing[spec.name] = False
                self._emit(
                    record,
                    state,
                    slo=spec.name,
                    detector=_DETECTOR_NAMES[spec.kind],
                    severity=spec.severity,
                    status="resolved",
                    evidence=evidence,
                )

    def _check_spec(
        self, spec: SloSpec, state: _GroupState
    ) -> Tuple[Optional[float], bool, Dict[str, object]]:
        window = state.window
        if spec.kind == "availability":
            value = window.success_ratio
            breach = value < spec.threshold
            evidence: Dict[str, object] = {
                "success_ratio": round(value, 6),
                "floor": spec.threshold,
                "failures": window.failures,
                "error_counts": window.error_counts(),
            }
            return value, breach, evidence
        if spec.kind in _KIND_TO_QUANTILE:
            q = _KIND_TO_QUANTILE[spec.kind]
            value = window.latency_quantile(q)
            breach = value is not None and value > spec.threshold
            evidence = {
                "quantile": q,
                "value_ms": None if value is None else round(value, 6),
                "ceiling_ms": spec.threshold,
                "successes": window.successes,
            }
            return value, breach, evidence
        # error_budget
        classes = spec.budget_classes()
        value = window.error_share(classes)
        breach = value > spec.threshold
        evidence = {
            "error_share": round(value, 6),
            "budget": spec.threshold,
            "classes": list(classes),
            "error_counts": window.error_counts(),
        }
        return value, breach, evidence

    # -- reads -------------------------------------------------------------

    @property
    def group_count(self) -> int:
        return len(self._groups)

    def book(self) -> AggregateBook:
        """The monitor's order-independent aggregate view of the run."""
        return self._book

    def verdicts(self) -> List[SloVerdict]:
        """Final per-group pass/fail of every objective, from aggregates."""
        return verdicts_from_book(self._book, self.policy)

    def scoreboard(self) -> Scoreboard:
        return Scoreboard.from_verdicts(self.verdicts(), self.alerts)

    def finalize(self, metrics: Optional[object] = None) -> AlertLog:
        """Canonical-sort the alert log; optionally export gauges.

        ``metrics`` is a :class:`~repro.obs.metrics.MetricsRegistry` (or
        anything with ``set_gauge``); detector state lands as
        ``monitor.*`` gauges so the monitoring layer shows up in the same
        exposition as everything else.
        """
        self.alerts.canonical_sort()
        self._finalized = True
        if metrics is not None and getattr(metrics, "enabled", True):
            metrics.set_gauge("monitor.groups", float(len(self._groups)))
            metrics.set_gauge("monitor.alerts", float(len(self.alerts)))
            metrics.set_gauge("monitor.records_seen", float(self.records_seen))
            for key in sorted(self._groups):
                state = self._groups[key]
                labels = {
                    "vantage": key[1],
                    "resolver": key[2],
                    "transport": key[3],
                }
                metrics.set_gauge(
                    "monitor.success_ratio", state.window.success_ratio, **labels
                )
                metrics.set_gauge(
                    "monitor.ewma_ms", state.cusum.baseline.mean, **labels
                )
                metrics.set_gauge("monitor.cusum_stat", state.cusum.stat, **labels)
        return self.alerts


_DETECTOR_NAMES = {
    "availability": "success_window",
    "latency_p95": "latency_window",
    "latency_p99": "latency_window",
    "error_budget": "error_burst",
}


def verdicts_from_book(book: AggregateBook, policy: SloPolicy) -> List[SloVerdict]:
    """Evaluate a policy's objectives against run-level aggregates.

    Works identically on a monitor's embedded book and on
    ``Warehouse.aggregates()``, because both are built by folding the same
    records into the same order-independent counters and histograms —
    that equality is what lets batch re-evaluation reproduce the
    monitor's verdicts exactly.
    """
    verdicts: List[SloVerdict] = []
    for group in book.groups(kind="dns_query"):
        if group.count < policy.window.min_samples:
            continue
        vantage, resolver, transport = group.vantage, group.resolver, group.transport
        for spec in policy.specs_for(vantage, resolver, transport):
            if spec.kind == "availability":
                metric = "success_rate"
                value: Optional[float] = group.success_rate
                passed = value >= spec.threshold
            elif spec.kind in _KIND_TO_QUANTILE:
                metric = spec.kind
                value = (
                    group.histogram.quantile(_KIND_TO_QUANTILE[spec.kind])
                    if group.histogram.count
                    else None
                )
                passed = value is None or value <= spec.threshold
            else:
                metric = "error_share"
                matched = sum(
                    group.error_classes.get(c, 0) for c in spec.budget_classes()
                )
                value = matched / group.count
                passed = value <= spec.threshold
            verdicts.append(
                SloVerdict(
                    slo=spec.name,
                    vantage=vantage,
                    resolver=resolver,
                    transport=transport,
                    metric=metric,
                    value=value,
                    threshold=spec.threshold,
                    passed=passed,
                    severity=spec.severity,
                    samples=group.count,
                )
            )
    verdicts.sort(key=lambda v: (v.vantage, v.resolver, v.transport, v.slo))
    return verdicts
