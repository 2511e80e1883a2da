"""The one alerting vocabulary: health events, their log, verdicts, states.

The SLO monitor and the observer fleet are two policies over the same
records -- a record window with hysteresis and CUSUM, and a daily EWMA
baseline with debounce and silence checkpoints.  Both write a
:class:`HealthEvent` into an :class:`EventLog`, grade it with one of
:data:`SEVERITIES` and fold health into one of :data:`HEALTH_STATES`.

An event's ``group`` names its axes: ``{campaign, vantage, resolver,
transport}`` for an SLO, the observer's axes (``{region}``, ``{resolver,
transport}``, ``{vantage}``...) for an observer, ``{}`` fleet-wide.
What only one source has -- an alert's round, detector and window, an
observer-day's baseline and z -- is ``evidence``.  Events are ordered by
a canonical key built from record fields alone, so two runs over the
same measurements export the same JSONL bytes whatever the arrival order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.render import render_table
from repro.files import JsonlLog

#: Severities, mildest first: the tuple order is the rank.
SEVERITIES = ("none", "info", "warning", "critical")
#: Health states, healthiest first.  A scoreboard row is the state at the
#: rank of its worst failed objective's severity; an index day is the
#: state whose score floor its trend clears.
HEALTH_STATES = ("OK", "WATCH", "DEGRADED", "FAILING")

SOURCES = ("slo", "observer")
#: ``firing`` / ``resolved`` pair up on a threshold SLO (a CUSUM shift is a
#: lone ``firing``); an observer-day is ``significant`` or a ``silence``.
STATUSES = ("firing", "resolved", "significant", "silence")
#: The ``v`` of every event line; a reader refuses any other.
EVENT_VERSION = 2


def rounded(value: Optional[float]) -> Optional[float]:
    """An event's float as it is written: six decimals."""
    return None if value is None else round(value, 6)


@dataclass(frozen=True)
class HealthEvent:
    """One transition or one observer-day, with the evidence behind it."""

    source: str  # "slo" | "observer"
    name: str  # the objective or the observer
    group: Dict[str, str]
    at_ms: float
    status: str
    severity: str
    value: Optional[float]
    evidence: Dict[str, Any]

    def sort_key(self) -> Tuple:
        group, evidence = self.group, self.evidence
        if self.source == "slo":
            order: Tuple = (
                group["campaign"], evidence["round_index"], self.at_ms,
                group["vantage"], group["resolver"], group["transport"],
                self.name, evidence["detector"],
            )
        else:  # one event per observer and day: day, then observer
            order = (self.at_ms, self.name, tuple(group.items()))
        return (self.source, order, self.status)

    def to_dict(self) -> Dict[str, Any]:
        return {"v": EVENT_VERSION, **asdict(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HealthEvent":
        version = data.get("v") if isinstance(data, dict) else None
        if version != EVENT_VERSION:
            raise ValueError(f"event version {version!r}, expected {EVENT_VERSION}")
        for key, allowed in (
            ("source", SOURCES), ("status", STATUSES), ("severity", SEVERITIES)
        ):
            if data[key] not in allowed:
                raise ValueError(f"unknown {key} {data[key]!r}")
        return cls(
            source=data["source"],
            name=data["name"],
            group=dict(data["group"]),
            at_ms=data["at_ms"],
            status=data["status"],
            severity=data["severity"],
            value=data["value"],
            evidence=dict(data["evidence"]),
        )


class EventLog(JsonlLog[HealthEvent]):
    """The monitor's alerts or the fleet's observer-days, as one JSONL log."""

    event_type = HealthEvent
    what = "health event"

    def with_status(self, status: str) -> List[HealthEvent]:
        return [event for event in self._events if event.status == status]


@dataclass(frozen=True)
class SloVerdict:
    """Final pass/fail of one objective for one group, over the whole run."""

    slo: str
    vantage: str
    resolver: str
    transport: str
    metric: str
    value: Optional[float]
    threshold: float
    passed: bool
    severity: str
    samples: int

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class Scoreboard:
    """Health state per (vantage, resolver), from verdicts and alert volume."""

    def __init__(
        self, rows: List[Dict[str, Any]], states: Dict[Tuple[str, str], str]
    ) -> None:
        self._rows = rows
        self._states = states

    @classmethod
    def from_verdicts(
        cls,
        verdicts: Iterable[SloVerdict],
        alerts: Optional[Iterable[HealthEvent]] = None,
    ) -> "Scoreboard":
        """The state at the rank of the worst failed objective's severity:
        FAILING on a critical one, DEGRADED on a warning, WATCH on info,
        OK when nothing failed."""
        failed: Dict[Tuple[str, str], List[SloVerdict]] = {}
        for verdict in verdicts:
            failures = failed.setdefault((verdict.vantage, verdict.resolver), [])
            if not verdict.passed:
                failures.append(verdict)
        alert_counts: Dict[Tuple[str, str], int] = {}
        for event in alerts or ():
            if event.status == "firing":
                key = (event.group["vantage"], event.group["resolver"])
                alert_counts[key] = alert_counts.get(key, 0) + 1
        states: Dict[Tuple[str, str], str] = {}
        rows: List[Dict[str, Any]] = []
        for key in sorted(failed):
            failures = failed[key]
            rank = max((SEVERITIES.index(v.severity) for v in failures), default=0)
            states[key] = HEALTH_STATES[rank]
            rows.append(
                {
                    "vantage": key[0],
                    "resolver": key[1],
                    "status": HEALTH_STATES[rank],
                    "failed_slos": sorted({v.slo for v in failures}),
                    "alerts": alert_counts.get(key, 0),
                }
            )
        return cls(rows, states)

    def rows(self) -> List[Dict[str, Any]]:
        return [dict(row) for row in self._rows]

    def status(self, vantage: str, resolver: str) -> Optional[str]:
        return self._states.get((vantage, resolver))

    def worst_state(self) -> str:
        return max(self._states.values(), key=HEALTH_STATES.index, default="OK")

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in HEALTH_STATES}
        for state in self._states.values():
            counts[state] += 1
        return counts

    def render(self) -> str:
        header = ["vantage", "resolver", "status", "failed SLOs", "alerts"]
        table_rows = [
            [
                row["vantage"],
                row["resolver"],
                row["status"],
                ", ".join(row["failed_slos"]) or "-",
                str(row["alerts"]),
            ]
            for row in self._rows
        ]
        return render_table(header, table_rows)

    def to_dict(self) -> Dict[str, Any]:
        return {"rows": self.rows(), "counts": self.counts()}
