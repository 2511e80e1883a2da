"""The world-health index: one scored series over the whole fleet.

Each measured virtual day collapses into a single number: start from 100,
subtract a penalty for every significance event fired that day (scaled by
the owning observer's ``weight`` and the event's severity), clamp to
``[0, 100]``.  A slow EWMA over the daily scores gives the trend line an
operator actually watches — one bad day dents it, a bad month drags it.

The index is computed from the canonical-sorted event log alone, so it is
order-independent over equivalent record streams by construction: same
records, same events, same index — byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.render import render_table
from repro.files import read_jsonl, write_text
from repro.monitor.events import HEALTH_STATES, HealthEvent
from repro.observers.spec import ObserverSpec

#: Penalty per significance event, before the observer weight.
SEVERITY_PENALTIES = {"warning": 15.0, "critical": 40.0}

#: The health states, healthiest first, with the score floor of each.
HEALTH_BANDS: Tuple[Tuple[str, float], ...] = tuple(
    zip(HEALTH_STATES, (90.0, 70.0, 40.0, 0.0))
)

#: EWMA weight of one day in the trend line (half-life ~4.6 days).
TREND_ALPHA = 0.14


def band_of(score: float) -> str:
    for name, floor in HEALTH_BANDS:
        if score >= floor:
            return name
    return HEALTH_BANDS[-1][0]


@dataclass(frozen=True)
class HealthSample:
    """The index at one measured virtual day."""

    day: int
    at_ms: float
    score: float
    trend: float  # EWMA-smoothed score
    band: str  # band of the *trend* — the operator-facing state
    events: int  # significance events this day
    silences: int  # silence checkpoints this day
    observers: int  # observers that reported (events + silences)
    #: Per-observer penalty actually charged this day (only non-zero ones).
    contributions: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "day": self.day,
            "at_ms": self.at_ms,
            "score": round(self.score, 6),
            "trend": round(self.trend, 6),
            "band": self.band,
            "events": self.events,
            "silences": self.silences,
            "observers": self.observers,
            "contributions": {
                k: round(v, 6) for k, v in sorted(self.contributions.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HealthSample":
        if data["band"] not in HEALTH_STATES:
            raise ValueError(f"unknown band {data['band']!r}")
        return cls(
            day=data["day"],
            at_ms=data["at_ms"],
            score=data["score"],
            trend=data["trend"],
            band=data["band"],
            events=data.get("events", 0),
            silences=data.get("silences", 0),
            observers=data.get("observers", 0),
            contributions=dict(data.get("contributions", {})),
        )


class WorldHealthIndex:
    """The rolling scored series over every measured virtual day."""

    def __init__(self, samples: List[HealthSample]) -> None:
        self._samples = samples

    @classmethod
    def from_events(
        cls,
        events: Iterable[HealthEvent],
        specs: Iterable[ObserverSpec],
        ms_per_day: float,
    ) -> "WorldHealthIndex":
        """Score every day that produced at least one event.

        Days never measured produce no sample — the index has nothing to
        say about them, and pretending otherwise would turn coverage gaps
        into fake health.  Processing ascends day order so the trend EWMA
        is well-defined; within a day only the event *set* matters.
        """
        weights = {spec.name: spec.weight for spec in specs}
        by_day: Dict[int, List[HealthEvent]] = {}
        for event in events:
            by_day.setdefault(event.evidence["day"], []).append(event)

        samples: List[HealthSample] = []
        trend: Optional[float] = None
        for day in sorted(by_day):
            day_events = by_day[day]
            contributions: Dict[str, float] = {}
            fired = 0
            silences = 0
            for event in sorted(day_events, key=HealthEvent.sort_key):
                if event.status == "significant":
                    fired += 1
                    penalty = SEVERITY_PENALTIES.get(event.severity, 0.0)
                    penalty *= weights.get(event.name, 1.0)
                    contributions[event.name] = (
                        contributions.get(event.name, 0.0) + penalty
                    )
                else:
                    silences += 1
            score = max(0.0, min(100.0, 100.0 - sum(contributions.values())))
            trend = (
                score
                if trend is None
                else trend + TREND_ALPHA * (score - trend)
            )
            samples.append(
                HealthSample(
                    day=day,
                    at_ms=day * ms_per_day,
                    score=score,
                    trend=trend,
                    band=band_of(trend),
                    events=fired,
                    silences=silences,
                    observers=len(day_events),
                    contributions=contributions,
                )
            )
        return cls(samples)

    # -- reads -------------------------------------------------------------

    def samples(self) -> List[HealthSample]:
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    def latest(self) -> Optional[HealthSample]:
        return self._samples[-1] if self._samples else None

    def min_score(self) -> Optional[float]:
        return min((s.score for s in self._samples), default=None)

    def worst_band(self) -> str:
        return max(
            (s.band for s in self._samples),
            key=HEALTH_STATES.index,
            default=HEALTH_STATES[0],
        )

    def healthy(self, floor: float = 70.0) -> bool:
        """Did the index stay at or above ``floor`` on every measured day?

        Vacuously healthy when nothing was measured: the gate's job is to
        catch detected degradation, not missing coverage (the summary
        reports coverage separately).
        """
        low = self.min_score()
        return low is None or low >= floor

    # -- serialization -----------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(sample.to_json() + "\n" for sample in self._samples)

    def save_jsonl(self, path: Union[str, Path]) -> Path:
        return write_text(path, self.to_jsonl())

    @classmethod
    def load_jsonl(cls, path: Union[str, Path]) -> "WorldHealthIndex":
        return cls(read_jsonl(path, HealthSample.from_dict, "health sample"))

    def render(self, last: Optional[int] = None) -> str:
        """The index as a table (optionally only the trailing ``last`` days)."""
        rows = self._samples if last is None else self._samples[-last:]
        table = [
            (
                str(s.day),
                f"{s.score:.1f}",
                f"{s.trend:.1f}",
                s.band,
                str(s.events),
                str(s.silences),
                ", ".join(
                    f"{name}(-{penalty:.0f})"
                    for name, penalty in sorted(s.contributions.items())
                )
                or "-",
            )
            for s in rows
        ]
        return render_table(
            ("day", "score", "trend", "band", "events", "silences", "penalties"),
            table,
        )
