"""Figure builders: the per-resolver boxplot panels of Figures 1–4.

Each paper figure shows, for one vantage point, the distribution of DNS
response times and ICMP ping times for every resolver of one region —
plus the cross-region reference set (the mainstream resolvers and
``ordns.he.net``), shown in every panel.  :func:`figure_rows` computes the
same rows from a result store; :func:`paper_figure` maps the paper's
figure numbers onto (region, vantage) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import BoxplotStats, summarize_or_none
from repro.analysis.table import Criterion, RecordTable, Source
from repro.catalog.resolvers import REFERENCE_HOSTNAMES, entries_by_region
from repro.errors import AnalysisError


@dataclass(frozen=True)
class FigureRow:
    """One resolver's row in a figure panel."""

    resolver: str
    mainstream: bool
    dns_stats: Optional[BoxplotStats]  # None if the resolver never answered
    ping_stats: Optional[BoxplotStats]  # None if it doesn't answer ICMP

    @property
    def has_data(self) -> bool:
        return self.dns_stats is not None


def region_panel_hostnames(region: str) -> List[str]:
    """The resolvers shown in a region's figure: region rows + references."""
    hostnames = [entry.hostname for entry in entries_by_region(region)]
    for reference in REFERENCE_HOSTNAMES:
        if reference not in hostnames:
            hostnames.append(reference)
    return hostnames


def figure_rows(
    store: Source,
    vantage: Criterion,
    hostnames: Sequence[str],
    mainstream_hostnames: Sequence[str] = (),
    sort_by_median: bool = True,
) -> List[FigureRow]:
    """Build one figure panel's rows from the records.

    ``vantage`` may name several vantages, whose samples are pooled into
    the one panel.
    """
    table = RecordTable.of(store)
    dns = table.by_resolver("dns_query", vantage=vantage)
    pings = table.by_resolver("ping", vantage=vantage)
    mainstream = set(mainstream_hostnames)
    rows = [
        FigureRow(
            resolver=hostname,
            mainstream=hostname in mainstream,
            dns_stats=summarize_or_none(dns[hostname].durations if hostname in dns else ()),
            ping_stats=summarize_or_none(pings[hostname].durations if hostname in pings else ()),
        )
        for hostname in hostnames
    ]
    if sort_by_median:
        rows.sort(
            key=lambda row: row.dns_stats.median if row.dns_stats is not None else float("inf")
        )
    return rows


#: Figure number -> (resolver region, vantage panels in paper order).
PAPER_FIGURES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    # Figure 1 is the Ohio panel of the NA figure, shown in the body.
    "figure1": ("NA", ("ec2-ohio",)),
    "figure2": ("NA", ("home-chicago-1", "ec2-ohio", "ec2-frankfurt", "ec2-seoul")),
    "figure3": ("EU", ("home-chicago-1", "ec2-ohio", "ec2-frankfurt", "ec2-seoul")),
    "figure4": ("AS", ("home-chicago-1", "ec2-ohio", "ec2-frankfurt", "ec2-seoul")),
}


def paper_figure(
    store: Source,
    figure: str,
    mainstream_hostnames: Sequence[str],
    home_vantages: Sequence[str] = (),
) -> Dict[str, List[FigureRow]]:
    """All panels of one paper figure: vantage name -> rows.

    ``home_vantages`` may list several home devices whose records are
    pooled into the single "U.S. Home Networks" panel, as the paper pools
    its four apartment units.
    """
    if figure not in PAPER_FIGURES:
        raise AnalysisError(f"unknown figure {figure!r}; know {sorted(PAPER_FIGURES)}")
    table = RecordTable.of(store)
    region, vantages = PAPER_FIGURES[figure]
    hostnames = region_panel_hostnames(region)
    panels: Dict[str, List[FigureRow]] = {}
    for vantage in vantages:
        if vantage.startswith("home") and home_vantages:
            panels["home-pooled"] = figure_rows(
                table, tuple(home_vantages), hostnames, mainstream_hostnames
            )
        else:
            panels[vantage] = figure_rows(table, vantage, hostnames, mainstream_hostnames)
    return panels
