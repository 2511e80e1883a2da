"""Text renderers: markdown tables and ASCII boxplot panels.

The paper's figures are box-and-whisker plots; :func:`render_boxplot_rows`
draws the same information as aligned text so reports and CLI output can
show the distributions without a plotting dependency.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.figures import FigureRow


def render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render a GitHub-flavoured markdown table."""
    widths = [len(str(h)) for h in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))

    def fmt(cells: Sequence[str]) -> str:
        return "| " + " | ".join(str(c).ljust(widths[i]) for i, c in enumerate(cells)) + " |"

    lines = [fmt(header), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def fmt_ms(value: Optional[float]) -> str:
    """A millisecond cell: one decimal, or an em dash for no value."""
    return f"{value:.1f}" if value is not None else "—"


def _bar(
    low: float, q1: float, med: float, q3: float, high: float,
    scale_max: float, width: int,
) -> str:
    """One ASCII box-and-whisker: ``----[==|==]------``."""
    def col(value: float) -> int:
        if scale_max <= 0:
            return 0
        return min(width - 1, max(0, int(value / scale_max * (width - 1))))

    cells = [" "] * width
    c_low, c_q1, c_med, c_q3, c_high = (col(v) for v in (low, q1, med, q3, high))
    for i in range(c_low, c_q1):
        cells[i] = "-"
    for i in range(c_q1, c_q3 + 1):
        cells[i] = "="
    for i in range(c_q3 + 1, c_high + 1):
        cells[i] = "-"
    cells[c_q1] = "["
    cells[c_q3] = "]"
    cells[c_med] = "|"
    return "".join(cells)


def render_boxplot_rows(rows: Sequence[FigureRow], include_ping: bool = True) -> str:
    """Render one figure panel as aligned 48-column ASCII boxplots.

    Mirrors the paper's truncation: distributions beyond the scale maximum
    (the highest upper whisker across rows plus 10%, capped at 600 ms like
    the paper's axes) are clipped.
    """
    populated = [row for row in rows if row.dns_stats is not None]
    if not populated:
        return "(no data)"
    width = 48
    scale_max_ms = min(600.0, max(row.dns_stats.whisker_high for row in populated) * 1.1)
    name_width = max(len(row.resolver) for row in rows) + 2
    lines = [
        f"{'resolver'.ljust(name_width)} {'median'.rjust(8)}  "
        f"0ms {'·' * (width - 10)} {scale_max_ms:.0f}ms"
    ]
    for row in rows:
        label = row.resolver + ("*" if row.mainstream else "")
        if row.dns_stats is None:
            lines.append(f"{label.ljust(name_width)} {'—'.rjust(8)}  (no successful queries)")
            continue
        stats = row.dns_stats
        bar = _bar(
            stats.whisker_low, stats.q1, stats.median, stats.q3, stats.whisker_high,
            scale_max_ms, width,
        )
        lines.append(f"{label.ljust(name_width)} {stats.median:8.1f}  {bar}")
        if include_ping and row.ping_stats is not None:
            ping = row.ping_stats
            ping_bar = _bar(
                ping.whisker_low, ping.q1, ping.median, ping.q3, ping.whisker_high,
                scale_max_ms, width,
            )
            lines.append(f"{'  (ping)'.ljust(name_width)} {ping.median:8.1f}  {ping_bar}")
    lines.append("(* = mainstream; box = IQR, | = median, - = whiskers)")
    return "\n".join(lines)


def render_delta_table(
    title: str,
    near_label: str,
    far_label: str,
    rows: Sequence[Tuple[str, str, str]],
) -> str:
    """Render a Table 2/3-style median comparison."""
    header = ("Resolver", f"{near_label} (ms)", f"{far_label} (ms)")
    return f"{title}\n" + render_table(header, list(rows))
