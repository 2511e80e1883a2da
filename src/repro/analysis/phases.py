"""Phase attribution: where each millisecond of a measurement went.

Probes split every query's ``duration_ms`` into protocol phases — TCP
connect, TLS (or QUIC) handshake, and the query exchange — recorded on
the result as ``connect_ms`` / ``tls_ms`` / ``query_ms``.  This module
aggregates those fields into the per-resolver / per-vantage breakdown
tables behind the related-work observation the poster builds on: for
non-mainstream unicast resolvers measured from a distant vantage point,
connection establishment (TCP + TLS), not the resolution itself, accounts
for the majority of the added response time.

Failed queries carry ``failed_phase`` — the phase in flight when the
probe gave up — so connection errors are attributable to a specific span
(e.g. a dead resolver fails in ``tcp_connect``, a TLS fault window in
``tls_handshake``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.render import fmt_ms, render_table
from repro.analysis.stats import median, median_or_none
from repro.analysis.table import Group, RecordTable, Source


@dataclass(frozen=True)
class PhaseBreakdown:
    """Median per-phase timings for one (resolver, vantage) cell.

    Phase medians are computed independently, so they need not sum to
    ``median_total_ms`` exactly (each is a median of its own marginal);
    per-record the phases do sum to the record's duration.
    """

    resolver: str
    vantage: str
    count: int
    median_total_ms: float
    median_connect_ms: Optional[float]
    median_tls_ms: Optional[float]
    median_query_ms: Optional[float]

    @property
    def establishment_ms(self) -> float:
        """Median TCP connect + TLS/QUIC handshake time."""
        return (self.median_connect_ms or 0.0) + (self.median_tls_ms or 0.0)

    @property
    def establishment_share(self) -> float:
        """Fraction of the total spent establishing the connection."""
        if not self.median_total_ms:
            return 0.0
        return self.establishment_ms / self.median_total_ms


def _breakdown(
    resolver: str, vantage: Optional[str], cell: Optional[Group]
) -> Optional[PhaseBreakdown]:
    if cell is None or not cell.durations:
        return None
    return PhaseBreakdown(
        resolver=resolver,
        vantage=vantage or "(all)",
        count=len(cell.durations),
        median_total_ms=median(cell.durations),
        median_connect_ms=median_or_none(cell.connect_ms),
        median_tls_ms=median_or_none(cell.tls_ms),
        median_query_ms=median_or_none(cell.query_ms),
    )


def phase_breakdown(
    store: Source, resolver: str, vantage: Optional[str] = None
) -> Optional[PhaseBreakdown]:
    """Median phase timings for one resolver (optionally one vantage)."""
    cell = RecordTable.of(store).cell("dns_query", vantage=vantage, resolver=resolver)
    return _breakdown(resolver, vantage, cell)


def phase_breakdowns(
    store: Source,
    vantages: Optional[Sequence[str]] = None,
    resolvers: Optional[Iterable[str]] = None,
) -> List[PhaseBreakdown]:
    """One breakdown per (vantage, resolver) pair with successful data."""
    table = RecordTable.of(store)
    if vantages is None:
        vantages = sorted({key.vantage for key, _group in table.select("dns_query")})
    wanted = set(resolvers) if resolvers is not None else None
    out: List[PhaseBreakdown] = []
    for vantage in vantages:
        cells = table.by_resolver("dns_query", vantage=vantage)
        for resolver in sorted(cells):
            if wanted is not None and resolver not in wanted:
                continue
            breakdown = _breakdown(resolver, vantage, cells[resolver])
            if breakdown is not None:
                out.append(breakdown)
    return out


@dataclass(frozen=True)
class PhaseDelta:
    """Added latency far-vs-near, attributed to phases (Table 2/3 style)."""

    resolver: str
    near: PhaseBreakdown
    far: PhaseBreakdown

    @property
    def added_total_ms(self) -> float:
        return self.far.median_total_ms - self.near.median_total_ms

    @property
    def added_establishment_ms(self) -> float:
        return self.far.establishment_ms - self.near.establishment_ms

    @property
    def establishment_share_of_added(self) -> float:
        """Fraction of the added latency spent in TCP + TLS establishment."""
        if not self.added_total_ms:
            return 0.0
        return self.added_establishment_ms / self.added_total_ms


def phase_deltas(
    store: Source,
    resolvers: Iterable[str],
    near_vantage: str,
    far_vantage: str,
) -> List[PhaseDelta]:
    """Per-resolver far-vs-near phase attribution, largest gap first."""
    table = RecordTable.of(store)
    near_cells = table.by_resolver("dns_query", vantage=near_vantage)
    far_cells = table.by_resolver("dns_query", vantage=far_vantage)
    deltas = []
    for resolver in resolvers:
        near = _breakdown(resolver, near_vantage, near_cells.get(resolver))
        far = _breakdown(resolver, far_vantage, far_cells.get(resolver))
        if near is None or far is None:
            continue
        deltas.append(PhaseDelta(resolver=resolver, near=near, far=far))
    deltas.sort(key=lambda d: d.added_total_ms, reverse=True)
    return deltas


def error_phases(
    store: Source,
    vantage: Optional[str] = None,
    resolver: Optional[str] = None,
) -> Dict[str, int]:
    """Failed queries counted by the phase that was in flight.

    Keys are phase names (``tcp_connect``, ``tls_handshake``, …) with
    ``"(unknown)"`` for failures recorded without phase data (e.g. loaded
    from pre-phase-tracking result files).
    """
    cell = RecordTable.of(store).cell("dns_query", vantage=vantage, resolver=resolver)
    return dict(sorted(cell.failed_phases.items()))


# -- rendering ---------------------------------------------------------------


def render_phase_table(breakdowns: Sequence[PhaseBreakdown]) -> str:
    """Markdown table of per-cell phase medians and establishment share."""
    header = (
        "Vantage", "Resolver", "n", "total (ms)",
        "connect", "tls", "query", "estab %",
    )
    rows = [
        (
            b.vantage,
            b.resolver,
            str(b.count),
            fmt_ms(b.median_total_ms),
            fmt_ms(b.median_connect_ms),
            fmt_ms(b.median_tls_ms),
            fmt_ms(b.median_query_ms),
            f"{100.0 * b.establishment_share:.0f}%",
        )
        for b in breakdowns
    ]
    return render_table(header, rows)


def render_phase_delta_table(
    deltas: Sequence[PhaseDelta], title: Optional[str] = None
) -> str:
    """Markdown table attributing far-vs-near added latency to phases."""
    header = (
        "Resolver", "near (ms)", "far (ms)", "added (ms)",
        "added estab (ms)", "estab share of added",
    )
    rows = [
        (
            d.resolver,
            fmt_ms(d.near.median_total_ms),
            fmt_ms(d.far.median_total_ms),
            fmt_ms(d.added_total_ms),
            fmt_ms(d.added_establishment_ms),
            f"{100.0 * d.establishment_share_of_added:.0f}%",
        )
        for d in deltas
    ]
    table = render_table(header, rows)
    return f"{title}\n{table}" if title else table


def render_error_phases(counts: Dict[str, int]) -> str:
    """Markdown table of error counts by failed phase."""
    header = ("Failed phase", "errors")
    rows = [(phase, str(count)) for phase, count in counts.items()]
    return render_table(header, rows)
