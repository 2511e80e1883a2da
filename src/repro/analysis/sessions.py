"""Session-policy scenario analysis: what reuse, resumption and 0-RTT buy.

The session scenario matrix (DESIGN.md §14) runs the *same* campaign —
same seed, same schedule, same world — once per
:class:`~repro.session.policy.SessionPolicy`, so records differ only in
how clients manage transport sessions between queries.  This module
turns those per-policy record sets into the three tables the study is
after:

* :func:`session_cells` — per policy × transport (optionally × vantage)
  counts by ``session_state`` plus the establishment share of the median
  response time, the session-aware analogue of
  :func:`~repro.analysis.phases.phase_breakdowns`;
* :func:`warm_cold_deltas` — warm-path vs cold-path p95 within each
  policy run.  The cold baseline is the run's *own* cold-state records
  (first contact per (vantage, resolver, transport) cell), so the
  comparison holds the network, world and RNG streams fixed;
* :func:`zero_rtt_acceptance` — among resumption-eligible handshakes of
  a 0-RTT policy run, how many carried early data vs fell back to the
  1-RTT resumed handshake after an (anti-replay) rejection.

All functions take a mapping of policy name → records, where the records
may come from a :class:`~repro.analysis.table.RecordTable`, a
:class:`~repro.core.results.ResultStore`, a
:class:`~repro.parallel.runner.ParallelRun` (RAM store or warehouse), or
any iterable of :class:`~repro.core.results.MeasurementRecord`; each is
folded once by :meth:`~repro.analysis.table.RecordTable.of`.  A record
without a session state (no policy) counts as cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.analysis.render import fmt_ms, render_table
from repro.analysis.stats import median, median_or_none, quantile
from repro.analysis.table import Group, GroupKey, RecordTable, Source, merge
from repro.session import SESSION_STATES, WARM_STATES
from repro.transports import SESSION_TRANSPORTS

#: Transports the gate/delta tables report, in display order.
SESSION_TABLE_TRANSPORTS: Tuple[str, ...] = SESSION_TRANSPORTS


def _answered(source: Source) -> Iterator[Tuple[str, GroupKey, Group]]:
    """(session state, key, group) of every DNS query group with a timed answer."""
    for key, group in RecordTable.of(source).select("dns_query"):
        if group.durations:
            yield key.session_state or "cold", key, group


# -- per-cell state breakdown ------------------------------------------------


@dataclass(frozen=True)
class SessionCell:
    """One policy × transport (× vantage) cell of the scenario matrix."""

    policy: str
    transport: str
    vantage: str
    count: int
    #: ``session_state`` → record count, every state always present.
    state_counts: Mapping[str, int]
    median_total_ms: float
    median_connect_ms: Optional[float]
    median_tls_ms: Optional[float]

    @property
    def establishment_ms(self) -> float:
        """Median TCP/QUIC connect + TLS handshake time."""
        return (self.median_connect_ms or 0.0) + (self.median_tls_ms or 0.0)

    @property
    def establishment_share(self) -> float:
        """Fraction of the median response time spent establishing."""
        if not self.median_total_ms:
            return 0.0
        return self.establishment_ms / self.median_total_ms

    @property
    def warm_share(self) -> float:
        """Fraction of queries that skipped full establishment."""
        if not self.count:
            return 0.0
        warm = sum(self.state_counts.get(state, 0) for state in WARM_STATES)
        return warm / self.count


def session_cells(
    records_by_policy: Mapping[str, Source],
    per_vantage: bool = False,
) -> List[SessionCell]:
    """One :class:`SessionCell` per policy × transport (× vantage).

    Policies keep the mapping's order (insertion order of the study);
    transports and vantages are sorted within a policy.
    """
    cells: List[SessionCell] = []
    for policy, source in records_by_policy.items():
        members: Dict[Tuple[str, str], List[Tuple[str, Group]]] = {}
        for state, key, group in _answered(source):
            vantage = key.vantage if per_vantage else "(all)"
            members.setdefault((key.transport, vantage), []).append((state, group))
        for (transport, vantage) in sorted(members):
            counts = {state: 0 for state in SESSION_STATES}
            for state, group in members[(transport, vantage)]:
                counts[state] = counts.get(state, 0) + len(group.durations)
            cell = merge(group for _state, group in members[(transport, vantage)])
            cells.append(
                SessionCell(
                    policy=policy,
                    transport=transport,
                    vantage=vantage,
                    count=len(cell.durations),
                    state_counts=counts,
                    median_total_ms=median(cell.durations),
                    median_connect_ms=median_or_none(cell.connect_ms),
                    median_tls_ms=median_or_none(cell.tls_ms),
                )
            )
    return cells


# -- warm-vs-cold p95 --------------------------------------------------------


@dataclass(frozen=True)
class WarmColdDelta:
    """Warm-path vs cold-path p95 for one policy × transport.

    Both sides come from the *same* run: ``cold`` records are the
    policy's own first-contact establishments, so the delta isolates the
    session mechanism from any cross-run variation.
    """

    policy: str
    transport: str
    cold_count: int
    warm_count: int
    cold_p95_ms: Optional[float]
    warm_p95_ms: Optional[float]

    @property
    def delta_ms(self) -> Optional[float]:
        """``warm_p95 - cold_p95``; negative means the warm path is faster."""
        if self.cold_p95_ms is None or self.warm_p95_ms is None:
            return None
        return self.warm_p95_ms - self.cold_p95_ms

    @property
    def warm_faster(self) -> bool:
        """Whether the warm-path p95 strictly beats the cold-path p95."""
        delta = self.delta_ms
        return delta is not None and delta < 0


def warm_cold_deltas(records_by_policy: Mapping[str, Source]) -> List[WarmColdDelta]:
    """Per policy × transport warm-vs-cold p95, skipping all-cold runs.

    Runs without a single warm-state record (e.g. the ``cold`` baseline
    policy) produce no rows — there is no warm path to compare.
    """
    deltas: List[WarmColdDelta] = []
    for policy, source in records_by_policy.items():
        by_transport: Dict[str, Tuple[List[float], List[float]]] = {}
        for state, key, group in _answered(source):
            warm, cold = by_transport.setdefault(key.transport, ([], []))
            if state in WARM_STATES:
                warm.extend(group.durations)
            elif state == "cold":
                cold.extend(group.durations)
        for transport in sorted(by_transport):
            warm, cold = by_transport[transport]
            if not warm:
                continue
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


# -- 0-RTT acceptance --------------------------------------------------------


@dataclass(frozen=True)
class ZeroRttAcceptance:
    """How often early data was accepted vs rejected for one transport."""

    policy: str
    transport: str
    accepted: int  # handshakes that carried 0-RTT early data
    fallback: int  # resumed 1-RTT handshakes (early data rejected)

    @property
    def eligible(self) -> int:
        return self.accepted + self.fallback

    @property
    def acceptance_rate(self) -> Optional[float]:
        if not self.eligible:
            return None
        return self.accepted / self.eligible


def zero_rtt_acceptance(
    records_by_policy: Mapping[str, Source],
) -> List[ZeroRttAcceptance]:
    """Acceptance rates for every policy run that attempted early data.

    Eligible handshakes are those that *could* have carried early data —
    state ``zero_rtt`` (accepted) or ``resumed`` (the 1-RTT fallback a
    rejection forces).  Policies that never produced either state (cold,
    keep-alive, plain resumption) yield no rows.
    """
    rows: List[ZeroRttAcceptance] = []
    for policy, source in records_by_policy.items():
        accepted: Dict[str, int] = {}
        fallback: Dict[str, int] = {}
        for state, key, group in _answered(source):
            if state == "zero_rtt":
                counts = accepted
            elif state == "resumed":
                counts = fallback
            else:
                continue
            counts[key.transport] = counts.get(key.transport, 0) + len(group.durations)
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


# -- rendering ---------------------------------------------------------------


def render_session_cells(cells: Iterable[SessionCell]) -> str:
    """Markdown table of per-cell state counts and establishment share."""
    header = (
        "Policy", "Transport", "Vantage", "n",
        "cold", "warm", "resumed", "0rtt",
        "total (ms)", "estab (ms)", "estab %", "warm %",
    )
    rows = [
        (
            c.policy,
            c.transport,
            c.vantage,
            str(c.count),
            str(c.state_counts.get("cold", 0)),
            str(c.state_counts.get("warm", 0)),
            str(c.state_counts.get("resumed", 0)),
            str(c.state_counts.get("zero_rtt", 0)),
            fmt_ms(c.median_total_ms),
            fmt_ms(c.establishment_ms),
            f"{100.0 * c.establishment_share:.0f}%",
            f"{100.0 * c.warm_share:.0f}%",
        )
        for c in cells
    ]
    return render_table(header, rows)


def render_warm_cold_table(deltas: Iterable[WarmColdDelta]) -> str:
    """Markdown table of warm-vs-cold p95 response times per policy cell."""
    header = (
        "Policy", "Transport", "cold n", "warm n",
        "cold p95 (ms)", "warm p95 (ms)", "delta (ms)",
    )
    rows = [
        (
            d.policy,
            d.transport,
            str(d.cold_count),
            str(d.warm_count),
            fmt_ms(d.cold_p95_ms),
            fmt_ms(d.warm_p95_ms),
            fmt_ms(d.delta_ms),
        )
        for d in deltas
    ]
    return render_table(header, rows)


def render_zero_rtt_table(rows: Iterable[ZeroRttAcceptance]) -> str:
    """Markdown table of 0-RTT acceptance rates per policy × transport."""
    header = ("Policy", "Transport", "eligible", "0-RTT", "fallback", "accept %")
    body = [
        (
            r.policy,
            r.transport,
            str(r.eligible),
            str(r.accepted),
            str(r.fallback),
            (
                f"{100.0 * r.acceptance_rate:.0f}%"
                if r.acceptance_rate is not None
                else "—"
            ),
        )
        for r in rows
    ]
    return render_table(header, body)


def session_report(
    records_by_policy: Mapping[str, Source],
    per_vantage: bool = False,
) -> str:
    """The full session study report: cells, warm-vs-cold p95, 0-RTT rates."""
    records_by_policy = {
        policy: RecordTable.of(source) for policy, source in records_by_policy.items()
    }
    sections = [
        "## Session scenario matrix",
        render_session_cells(session_cells(records_by_policy, per_vantage)),
    ]
    deltas = warm_cold_deltas(records_by_policy)
    if deltas:
        sections.append("\n## Warm vs cold p95 (within-run baseline)")
        sections.append(render_warm_cold_table(deltas))
    acceptance = zero_rtt_acceptance(records_by_policy)
    if acceptance:
        sections.append("\n## 0-RTT acceptance")
        sections.append(render_zero_rtt_table(acceptance))
    return "\n".join(sections)


__all__ = [
    "SESSION_TABLE_TRANSPORTS",
    "SessionCell",
    "WarmColdDelta",
    "ZeroRttAcceptance",
    "render_session_cells",
    "render_warm_cold_table",
    "render_zero_rtt_table",
    "session_cells",
    "session_report",
    "warm_cold_deltas",
    "zero_rtt_acceptance",
]
