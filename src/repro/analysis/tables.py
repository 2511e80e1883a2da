"""Table builders: Tables 1, 2 and 3 of the paper.

* Table 1 — the browser/resolver availability matrix (static data from
  :mod:`repro.catalog.browsers`);
* Table 2 — Asian non-mainstream resolvers with the largest median gap
  between the Seoul (local) and Frankfurt (remote) vantage points;
* Table 3 — European non-mainstream resolvers with the largest median gap
  between Frankfurt (local) and Seoul (remote).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.analysis.response_times import Medians, VantageDelta, largest_vantage_deltas
from repro.catalog.browsers import BROWSER_MATRIX, PROVIDERS
from repro.catalog.resolvers import entries_by_region


def table1_rows() -> Tuple[Tuple[str, ...], List[Tuple[str, ...]]]:
    """Table 1: header + one row per browser with check marks."""
    header = ("Browser",) + PROVIDERS
    rows = []
    for browser, offered in BROWSER_MATRIX.items():
        row = (browser,) + tuple(
            "yes" if provider in offered else "" for provider in PROVIDERS
        )
        rows.append(row)
    return header, rows


def _region_non_mainstream(region: str) -> List[str]:
    return [
        entry.hostname
        for entry in entries_by_region(region)
        if not entry.mainstream
    ]


def table2_rows(medians: Medians) -> List[VantageDelta]:
    """Table 2: Asian non-mainstream resolvers, Seoul vs Frankfurt medians."""
    return largest_vantage_deltas(
        medians, _region_non_mainstream("AS"), "ec2-seoul", "ec2-frankfurt"
    )


def table3_rows(medians: Medians) -> List[VantageDelta]:
    """Table 3: European non-mainstream resolvers, Frankfurt vs Seoul medians."""
    return largest_vantage_deltas(
        medians, _region_non_mainstream("EU"), "ec2-frankfurt", "ec2-seoul"
    )


def delta_table_as_text_rows(deltas: Sequence[VantageDelta]) -> List[Tuple[str, str, str]]:
    """(resolver, near median, far median) string rows for rendering."""
    return [
        (d.resolver, f"{d.near_median_ms:.0f}", f"{d.far_median_ms:.0f}")
        for d in deltas
    ]
