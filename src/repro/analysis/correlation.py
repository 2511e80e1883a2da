"""Relationship between ICMP latency and DNS response time.

§3.1: the ping probe paired with every DNS measurement "enabled us to
explore whether there was a consistent relationship between high query
response times and network latency".  This module quantifies that
relationship across resolvers: per-resolver (ping median, DNS median)
pairs, Pearson and Spearman correlation, and the fitted response-time /
RTT multiple (which exposes the handshake structure: fresh DoH ≈ 3 × RTT
plus processing).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.stats import median
from repro.core.results import MeasurementRecord, RecordSource
from repro.errors import AnalysisError


def pearson(xs: List[float], ys: List[float]) -> float:
    """Pearson product-moment correlation coefficient."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise AnalysisError("pearson needs two same-length samples (n >= 2)")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    # A variance that underflowed to a subnormal has no precision left: the
    # sample is as good as constant.
    if var_x < sys.float_info.min or var_y < sys.float_info.min:
        raise AnalysisError("pearson undefined for a constant sample")
    return cov / math.sqrt(var_x * var_y)


def _ranks(values: List[float]) -> List[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs: List[float], ys: List[float]) -> float:
    """Spearman rank correlation (Pearson on ranks, tie-aware)."""
    return pearson(_ranks(xs), _ranks(ys))


@dataclass
class LatencyCorrelation:
    """Ping-vs-DNS relationship across resolvers from one vantage point."""

    vantage: str
    pairs: List[Tuple[str, float, float]] = field(default_factory=list)  # (resolver, ping, dns)

    @property
    def pearson_r(self) -> float:
        return pearson([p for _r, p, _d in self.pairs], [d for _r, _p, d in self.pairs])

    @property
    def spearman_rho(self) -> float:
        return spearman([p for _r, p, _d in self.pairs], [d for _r, _p, d in self.pairs])

    @property
    def median_rtt_multiple(self) -> float:
        """Median of (DNS median / ping median) across resolvers.

        Fresh-connection DoH should sit near 3 (TCP + TLS 1.3 + HTTP all
        pay one round trip each) plus a processing offset.
        """
        ratios = [dns / ping for _r, ping, dns in self.pairs if ping > 0]
        if not ratios:
            raise AnalysisError("no ping data to form ratios")
        return median(ratios)

    def outliers(self, factor: float = 2.0) -> List[Tuple[str, float, float]]:
        """Resolvers whose DNS/ping ratio is far from the cohort median.

        These are the interesting rows: high response time *not* explained
        by network latency (slow resolver processing), or vice versa.
        """
        center = self.median_rtt_multiple
        out = []
        for resolver, ping, dns in self.pairs:
            if ping <= 0:
                continue
            ratio = dns / ping
            if ratio > center * factor or ratio < center / factor:
                out.append((resolver, ping, dns))
        return out

    def describe(self) -> str:
        lines = [
            f"{self.vantage}: n={len(self.pairs)} resolvers, "
            f"pearson r={self.pearson_r:.3f}, spearman rho={self.spearman_rho:.3f}, "
            f"median DNS/ping multiple {self.median_rtt_multiple:.2f}",
        ]
        for resolver, ping, dns in self.outliers():
            lines.append(
                f"  outlier {resolver}: ping {ping:.1f} ms but DNS {dns:.1f} ms"
            )
        return "\n".join(lines)


def latency_correlation(
    store: RecordSource, vantage: str, min_samples: int = 3
) -> LatencyCorrelation:
    """Build the per-resolver (ping, DNS) correlation for one vantage point.

    Resolvers without ICMP responses are skipped (the paper shows no ping
    distribution for them).  One vantage of
    :func:`latency_correlations_from_records`, its :class:`AnalysisError`
    raised instead of returned.
    """
    outcome = latency_correlations_from_records(
        store, vantages=[vantage], min_samples=min_samples
    )[vantage]
    if isinstance(outcome, AnalysisError):
        raise outcome
    return outcome


def latency_correlations_from_records(
    records: Iterable[MeasurementRecord],
    vantages: Optional[Iterable[str]] = None,
    min_samples: int = 3,
) -> Dict[str, Union[LatencyCorrelation, AnalysisError]]:
    """The correlation per vantage, in one pass over the records.

    Consumes any record iterable — :meth:`ResultStore.iter_jsonl`, a
    warehouse scan — holding only per-(vantage, resolver) duration lists,
    so memory is O(successful samples), never O(records).  Returns one
    entry per vantage observed in the stream (or per requested vantage):
    the correlation, or the :class:`AnalysisError` explaining why that
    vantage has too little data.
    """
    wanted = list(dict.fromkeys(vantages)) if vantages is not None else None
    seen: set = set()
    dns: Dict[Tuple[str, str], List[float]] = {}
    pings: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        seen.add(record.vantage)
        if not record.success or record.duration_ms is None:
            continue
        if wanted is not None and record.vantage not in wanted:
            continue
        key = (record.vantage, record.resolver)
        if record.kind == "dns_query":
            dns.setdefault(key, []).append(record.duration_ms)
        elif record.kind == "ping":
            pings.setdefault(key, []).append(record.duration_ms)

    out: Dict[str, Union[LatencyCorrelation, AnalysisError]] = {}
    for vantage in wanted if wanted is not None else sorted(seen):
        correlation = LatencyCorrelation(vantage=vantage)
        for resolver in sorted(r for v, r in dns if v == vantage):
            ping_samples = pings.get((vantage, resolver), [])
            if len(ping_samples) < min_samples:
                continue
            correlation.pairs.append(
                (resolver, median(ping_samples), median(dns[(vantage, resolver)]))
            )
        if len(correlation.pairs) < 3:
            out[vantage] = AnalysisError(
                f"not enough resolvers with both ping and DNS data from {vantage}"
            )
        else:
            out[vantage] = correlation
    return out
