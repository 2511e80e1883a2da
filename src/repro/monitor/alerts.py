"""Alert events, the JSONL audit log, verdicts and the health scoreboard.

Alerts are plain frozen dataclasses ordered by a canonical sort key built
purely from record fields (virtual times, group identity, objective
names), so two runs that observed the same measurements export the same
JSONL bytes regardless of arrival interleaving across groups or shards.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.render import render_table
from repro.files import JsonlLog

#: Scoreboard states, from healthy to broken.
HEALTH_STATES = ("OK", "DEGRADED", "FAILING")


@dataclass(frozen=True)
class AlertEvent:
    """One monitoring state transition, with the evidence that drove it."""

    campaign: str
    vantage: str
    resolver: str
    transport: str
    slo: str
    detector: str
    severity: str
    status: str  # "firing" | "resolved"
    round_index: int
    at_ms: float
    window: Dict[str, Any] = field(default_factory=dict)
    evidence: Dict[str, Any] = field(default_factory=dict)

    def sort_key(self) -> Tuple:
        return (
            self.campaign,
            self.round_index,
            self.at_ms,
            self.vantage,
            self.resolver,
            self.transport,
            self.slo,
            self.detector,
            self.status,
        )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AlertEvent":
        # ``window`` and ``evidence`` may be absent; every other field is required.
        return cls(
            **{
                f.name: dict(data.get(f.name, {}))
                if f.default_factory is dict
                else data[f.name]
                for f in fields(cls)
            }
        )


class AlertLog(JsonlLog[AlertEvent]):
    """Append-only alert collection with canonical JSONL export."""

    event_type = AlertEvent
    what = "alert line"


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
        alerts: Optional[Iterable[AlertEvent]] = None,
    ) -> "Scoreboard":
        """FAILING on any failed critical objective, DEGRADED on any other
        failed objective, OK otherwise."""
        failed: Dict[Tuple[str, str], List[SloVerdict]] = {}
        seen: Dict[Tuple[str, str], int] = {}
        for verdict in verdicts:
            key = (verdict.vantage, verdict.resolver)
            seen[key] = seen.get(key, 0) + (0 if verdict.passed else 1)
            failed.setdefault(key, [])
            if not verdict.passed:
                failed[key].append(verdict)
        alert_counts: Dict[Tuple[str, str], int] = {}
        for event in alerts or ():
            if event.status != "firing":
                continue
            key = (event.vantage, event.resolver)
            alert_counts[key] = alert_counts.get(key, 0) + 1
        states: Dict[Tuple[str, str], str] = {}
        rows: List[Dict[str, Any]] = []
        for key in sorted(failed):
            failures = failed[key]
            if any(v.severity == "critical" for v in failures):
                state = "FAILING"
            elif failures:
                state = "DEGRADED"
            else:
                state = "OK"
            states[key] = state
            rows.append(
                {
                    "vantage": key[0],
                    "resolver": key[1],
                    "status": state,
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
        worst = "OK"
        for state in self._states.values():
            if HEALTH_STATES.index(state) > HEALTH_STATES.index(worst):
                worst = state
        return worst

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
