"""CSV export of figures and tables, for external plotting.

The ASCII renderers are for terminals; users who want to regenerate the
paper's figures with matplotlib/R get the same data as tidy CSV: one row
per resolver per panel with the full five-number summary for both the DNS
response-time and ping distributions.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, Iterable, Sequence, Union

from repro.analysis.figures import FigureRow
from repro.analysis.response_times import VantageDelta
from repro.files import write_text

FIGURE_FIELDS = (
    "panel", "resolver", "mainstream",
    "dns_count", "dns_median", "dns_q1", "dns_q3",
    "dns_whisker_low", "dns_whisker_high", "dns_outliers",
    "ping_count", "ping_median", "ping_q1", "ping_q3",
)


def figure_rows_to_csv(panels: Dict[str, Sequence[FigureRow]]) -> str:
    """Serialize figure panels (vantage -> rows) as CSV text."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=FIGURE_FIELDS)
    writer.writeheader()
    for panel, rows in panels.items():
        for row in rows:
            record: Dict[str, object] = {
                "panel": panel,
                "resolver": row.resolver,
                "mainstream": int(row.mainstream),
            }
            if row.dns_stats is not None:
                stats = row.dns_stats
                record.update(
                    dns_count=stats.count,
                    dns_median=round(stats.median, 3),
                    dns_q1=round(stats.q1, 3),
                    dns_q3=round(stats.q3, 3),
                    dns_whisker_low=round(stats.whisker_low, 3),
                    dns_whisker_high=round(stats.whisker_high, 3),
                    dns_outliers=stats.outliers,
                )
            if row.ping_stats is not None:
                ping = row.ping_stats
                record.update(
                    ping_count=ping.count,
                    ping_median=round(ping.median, 3),
                    ping_q1=round(ping.q1, 3),
                    ping_q3=round(ping.q3, 3),
                )
            writer.writerow(record)
    return buffer.getvalue()


def deltas_to_csv(deltas: Iterable[VantageDelta]) -> str:
    """Serialize Table 2/3-style rows as CSV text."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ("resolver", "near_vantage", "near_median_ms",
         "far_vantage", "far_median_ms", "delta_ms", "ratio")
    )
    for delta in deltas:
        writer.writerow(
            (
                delta.resolver,
                delta.near_vantage,
                round(delta.near_median_ms, 3),
                delta.far_vantage,
                round(delta.far_median_ms, 3),
                round(delta.delta_ms, 3),
                round(delta.ratio, 3),
            )
        )
    return buffer.getvalue()


def write_csv(text: str, path: Union[str, Path]) -> Path:
    """Write CSV text to ``path`` (creating parent directories)."""
    return write_text(path, text)

