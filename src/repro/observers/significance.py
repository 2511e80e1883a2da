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

Both are :class:`~repro.monitor.events.HealthEvent` s, the event the SLO
monitor writes too.  Everything is pure arithmetic over daily readings
processed in ascending day order, so the event stream is a function of
the record multiset — the determinism the equivalence suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.monitor.detectors import EwmaTracker
from repro.monitor.events import SEVERITIES, HealthEvent, rounded
from repro.observers.spec import ObserverSpec

#: A group: its values along the observer's ``axes``, in order.
Group = Tuple[str, ...]


@dataclass
class Candidate:
    """A group's graded reading, before the per-observer-day debounce."""

    group: Group
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
        return (-SEVERITIES.index(self.severity), -abs(self.zscore), self.group)


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
        self, group: Group, value: float, samples: int
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
) -> HealthEvent:
    """Collapse one observer-day into exactly one event.

    ``candidates`` are the graded readings that survived their group
    baselines; the most severe one becomes the day's significance event
    and the rest are recorded as ``suppressed``.  With no candidates the
    day closes with a fleet-wide silence checkpoint carrying the coverage
    evidence (groups read, records seen, groups still warming up, the most
    extreme z observed) — the "we looked and nothing moved" record.
    """
    coverage = {"day": day, "readings": readings, "records": samples}
    if not candidates:
        return HealthEvent(
            source="observer", name=spec.name, group={}, at_ms=at_ms,
            status="silence", severity="none", value=None,
            evidence={**coverage, "warming": warming, "max_abs_z": rounded(max_abs_z)},
        )
    winner, *others = sorted(candidates, key=Candidate.rank_key)
    return HealthEvent(
        source="observer",
        name=spec.name,
        group=dict(zip(spec.axes, winner.group)),
        at_ms=at_ms,
        status="significant",
        severity=winner.severity,
        value=rounded(winner.value),
        evidence={
            **coverage,
            "baseline_mean": rounded(winner.baseline_mean),
            "baseline_std": rounded(winner.baseline_std),
            "delta": rounded(winner.delta),
            "z": rounded(winner.zscore),
            "direction": winner.direction,
            "samples": winner.samples,
            "suppressed": len(others),
            "suppressed_groups": [dict(zip(spec.axes, c.group)) for c in others],
        },
    )
