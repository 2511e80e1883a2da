"""Response-time analysis: medians, vantage deltas, local winners.

These functions back the paper's §4 comparisons:

* per-resolver response-time distributions and medians per vantage point;
* the resolvers with the largest median difference between a local and a
  remote vantage point (Tables 2 and 3);
* local non-mainstream winners — resolvers that beat specific mainstream
  resolvers from specific vantage points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.stats import median, quantile
from repro.analysis.table import Criterion, RecordTable, Source


def query_durations(
    store: Source, vantage: Optional[str] = None, resolver: Optional[str] = None
) -> List[float]:
    """Successful DNS query durations (ms) matching the criteria.

    In record order within each group of the table, one group after
    another; every consumer sorts them.
    """
    table = RecordTable.of(store)
    return list(table.cell("dns_query", vantage=vantage, resolver=resolver).durations)


def resolver_medians(
    store: Source,
    vantage: Criterion = None,
    resolvers: Optional[Iterable[str]] = None,
) -> Dict[str, float]:
    """Median response time per resolver (resolvers with data only).

    ``vantage`` may name several vantages, whose samples are pooled (the
    paper's "U.S. Home Networks" panel).  Resolvers come in the order of
    their first successful query.
    """
    wanted = set(resolvers) if resolvers is not None else None
    cells = RecordTable.of(store).by_resolver("dns_query", vantage=vantage)
    answered = sorted(
        (cell.first_success, resolver)
        for resolver, cell in cells.items()
        if cell.first_success is not None
    )
    return {
        resolver: median(cells[resolver].durations)
        for _first, resolver in answered
        if cells[resolver].durations and (wanted is None or resolver in wanted)
    }


@dataclass(frozen=True)
class VantageDelta:
    """One row of Table 2 / Table 3."""

    resolver: str
    near_vantage: str
    far_vantage: str
    near_median_ms: float
    far_median_ms: float

    @property
    def delta_ms(self) -> float:
        return self.far_median_ms - self.near_median_ms

    @property
    def ratio(self) -> float:
        return self.far_median_ms / self.near_median_ms if self.near_median_ms else float("inf")


def largest_vantage_deltas(
    store: Source,
    resolvers: Iterable[str],
    near_vantage: str,
    far_vantage: str,
) -> List[VantageDelta]:
    """The five resolvers with the largest (far − near) median difference.

    This is how the paper builds Tables 2 and 3: take the resolvers of a
    region, compare their medians from the local vantage point against a
    remote one, and report the five biggest gaps.
    """
    table = RecordTable.of(store)
    near = resolver_medians(table, vantage=near_vantage, resolvers=resolvers)
    far = resolver_medians(table, vantage=far_vantage, resolvers=resolvers)
    deltas = [
        VantageDelta(
            resolver=resolver,
            near_vantage=near_vantage,
            far_vantage=far_vantage,
            near_median_ms=near[resolver],
            far_median_ms=far[resolver],
        )
        for resolver in near
        if resolver in far
    ]
    deltas.sort(key=lambda d: d.delta_ms, reverse=True)
    return deltas[:5]


@dataclass(frozen=True)
class LocalWinner:
    """A non-mainstream resolver beating mainstream resolvers somewhere."""

    resolver: str
    vantage: str
    median_ms: float
    beats: Tuple[str, ...]  # mainstream resolvers it outperformed


def local_winners(
    store: Source,
    vantage: str,
    candidates: Iterable[str],
    mainstream: Iterable[str],
) -> List[LocalWinner]:
    """Candidates whose median beats at least one mainstream resolver."""
    mainstream = list(mainstream)
    medians = resolver_medians(store, vantage=vantage)
    winners = []
    for candidate in candidates:
        candidate_median = medians.get(candidate)
        if candidate_median is None:
            continue
        beaten = tuple(
            m for m in mainstream
            if m in medians and candidate_median < medians[m]
        )
        if beaten:
            winners.append(
                LocalWinner(
                    resolver=candidate,
                    vantage=vantage,
                    median_ms=candidate_median,
                    beats=beaten,
                )
            )
    winners.sort(key=lambda w: w.median_ms)
    return winners


def variability(store: Source, resolver: str, vantage: Optional[str] = None) -> Optional[float]:
    """IQR of a resolver's response times (the paper's variability notion)."""
    durations = query_durations(store, vantage=vantage, resolver=resolver)
    if len(durations) < 4:
        return None
    return quantile(durations, 0.75) - quantile(durations, 0.25)
