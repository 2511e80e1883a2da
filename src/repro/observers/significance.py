"""The significance model: long-horizon baselines, graded events, debounce.

World-observer semantics, transplanted onto the measurement stream:

* every observer keeps one **per-group baseline** — an EWMA mean/variance
  over *daily* readings (:class:`~repro.monitor.detectors.EwmaTracker`,
  reused from the monitor layer) — and compares each new reading against
  it;
* a reading becomes a **candidate** only when the change is both
  practically large (``min_delta``, absolute or relative) and
  statistically surprising (z-score vs the baseline spread);
* the fleet debounces candidates to **at most one significance event per
  observer per virtual day** — the most severe candidate wins, the rest
  are counted on the event as ``suppressed``;
* a day with readings but no surviving candidate produces an explicit
  **silence checkpoint**, so "nothing changed" is itself recorded data
  and a gap in the event stream always means "no measurements", never
  "nobody looked".

Everything is pure arithmetic over daily readings processed in ascending
day order, so the event stream is a function of the record multiset —
the determinism the equivalence suite pins down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.files import JsonlLog
from repro.monitor.detectors import EwmaTracker
from repro.observers.spec import ObserverSpec

#: Event statuses: a graded change, or an explicit all-quiet checkpoint.
STATUS_SIGNIFICANT = "significant"
STATUS_SILENCE = "silence"

#: Severity ranking used by the debounce (higher = more severe).
_SEVERITY_RANK = {"none": 0, "warning": 1, "critical": 2}


def day_start_ms(day: int, ms_per_day: float) -> float:
    return day * ms_per_day


@dataclass(frozen=True)
class SignificanceEvent:
    """One observer-day outcome: a graded change or a silence checkpoint."""

    observer: str
    group: str  # the winning group, or "*" for a fleet-wide silence line
    day: int  # virtual day index (floor(started_at_ms / MS_PER_DAY))
    at_ms: float  # virtual start of the day
    status: str  # "significant" | "silence"
    severity: str  # "warning" | "critical" | "none" (silence)
    value: Optional[float]
    baseline_mean: Optional[float]
    baseline_std: Optional[float]
    delta: Optional[float]
    zscore: Optional[float]
    direction: str  # "up" | "down" | "none"
    samples: int  # records behind the winning reading (or the whole day)
    suppressed: int  # debounced sibling candidates from other groups
    evidence: Dict[str, Any] = field(default_factory=dict)

    def sort_key(self) -> Tuple:
        # One event per (observer, day) — the key is already unique; the
        # trailing fields keep loaded/merged logs totally ordered anyway.
        return (self.day, self.observer, self.group, self.status)

    def to_dict(self) -> Dict[str, Any]:
        def _r(x: Optional[float]) -> Optional[float]:
            return None if x is None else round(x, 6)

        return {
            "observer": self.observer,
            "group": self.group,
            "day": self.day,
            "at_ms": self.at_ms,
            "status": self.status,
            "severity": self.severity,
            "value": _r(self.value),
            "baseline_mean": _r(self.baseline_mean),
            "baseline_std": _r(self.baseline_std),
            "delta": _r(self.delta),
            "zscore": _r(self.zscore),
            "direction": self.direction,
            "samples": self.samples,
            "suppressed": self.suppressed,
            "evidence": self.evidence,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SignificanceEvent":
        return cls(
            observer=data["observer"],
            group=data["group"],
            day=data["day"],
            at_ms=data["at_ms"],
            status=data["status"],
            severity=data["severity"],
            value=data.get("value"),
            baseline_mean=data.get("baseline_mean"),
            baseline_std=data.get("baseline_std"),
            delta=data.get("delta"),
            zscore=data.get("zscore"),
            direction=data.get("direction", "none"),
            samples=data.get("samples", 0),
            suppressed=data.get("suppressed", 0),
            evidence=dict(data.get("evidence", {})),
        )


class SignificanceLog(JsonlLog[SignificanceEvent]):
    """Append-only event collection with canonical JSONL export."""

    event_type = SignificanceEvent
    what = "significance event"

    def significant(self) -> List[SignificanceEvent]:
        return [e for e in self._events if e.status == STATUS_SIGNIFICANT]

    def silences(self) -> List[SignificanceEvent]:
        return [e for e in self._events if e.status == STATUS_SILENCE]


@dataclass
class Candidate:
    """A group's graded reading, before the per-observer-day debounce."""

    group: str
    severity: str
    value: float
    baseline_mean: float
    baseline_std: float
    delta: float
    zscore: float
    direction: str
    samples: int

    def rank_key(self) -> Tuple:
        # Most severe first, then most surprising; group name breaks ties
        # so the debounce winner never depends on evaluation order.
        return (-_SEVERITY_RANK[self.severity], -abs(self.zscore), self.group)


class SignificanceModel:
    """One group's long-horizon baseline plus the grading rule."""

    __slots__ = ("spec", "baseline")

    def __init__(self, spec: ObserverSpec) -> None:
        self.spec = spec
        self.baseline = EwmaTracker(spec.baseline.alpha)

    @property
    def warmed_up(self) -> bool:
        return self.baseline.count >= self.spec.baseline.min_days

    def evaluate(
        self, group: str, value: float, samples: int
    ) -> Tuple[Optional[Candidate], Optional[float]]:
        """Grade one daily reading, then fold it into the baseline.

        Returns ``(candidate, zscore)``: the candidate is ``None`` when
        the reading is unsurprising (or the baseline is still warming
        up); the z-score is ``None`` only during warm-up.  The baseline
        *always* absorbs the reading afterwards — a sustained shift fires
        once and then becomes the new normal, the same one-shot semantics
        the monitor's CUSUM uses.
        """
        cfg = self.spec.baseline
        candidate: Optional[Candidate] = None
        zscore: Optional[float] = None
        if self.warmed_up:
            mean = self.baseline.mean
            std = max(self.baseline.std, cfg.std_floor)
            delta = value - mean
            zscore = delta / std
            if cfg.relative:
                magnitude = abs(delta) / mean if mean > 0.0 else float("inf")
            else:
                magnitude = abs(delta)
            if magnitude >= cfg.min_delta and abs(zscore) >= cfg.z_warning:
                severity = (
                    "critical" if abs(zscore) >= cfg.z_critical else "warning"
                )
                candidate = Candidate(
                    group=group,
                    severity=severity,
                    value=value,
                    baseline_mean=mean,
                    baseline_std=self.baseline.std,
                    delta=delta,
                    zscore=zscore,
                    direction="up" if delta > 0 else "down",
                    samples=samples,
                )
        self.baseline.update(value)
        return candidate, zscore


def debounce_day(
    spec: ObserverSpec,
    day: int,
    at_ms: float,
    candidates: List[Candidate],
    readings: int,
    samples: int,
    warming: int,
    max_abs_z: Optional[float],
) -> SignificanceEvent:
    """Collapse one observer-day into exactly one event.

    ``candidates`` are the graded readings that survived their group
    baselines; the most severe one becomes the day's significance event
    and the rest are recorded as ``suppressed``.  With no candidates the
    day closes with a silence checkpoint carrying the coverage evidence
    (groups read, records seen, groups still warming up, the most extreme
    z observed) — the "we looked and nothing moved" record.
    """
    if candidates:
        ordered = sorted(candidates, key=Candidate.rank_key)
        winner = ordered[0]
        return SignificanceEvent(
            observer=spec.name,
            group=winner.group,
            day=day,
            at_ms=at_ms,
            status=STATUS_SIGNIFICANT,
            severity=winner.severity,
            value=winner.value,
            baseline_mean=winner.baseline_mean,
            baseline_std=winner.baseline_std,
            delta=winner.delta,
            zscore=winner.zscore,
            direction=winner.direction,
            samples=winner.samples,
            suppressed=len(ordered) - 1,
            evidence={
                "readings": readings,
                "records": samples,
                "suppressed_groups": [c.group for c in ordered[1:]],
            },
        )
    return SignificanceEvent(
        observer=spec.name,
        group="*",
        day=day,
        at_ms=at_ms,
        status=STATUS_SILENCE,
        severity="none",
        value=None,
        baseline_mean=None,
        baseline_std=None,
        delta=None,
        zscore=None,
        direction="none",
        samples=samples,
        suppressed=0,
        evidence={
            "readings": readings,
            "records": samples,
            "warming": warming,
            "max_abs_z": None if max_abs_z is None else round(max_abs_z, 6),
        },
    )
