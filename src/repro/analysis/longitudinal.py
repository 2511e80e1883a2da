"""Longitudinal analysis: did resolver performance drift over time?

The paper re-measured for 1–3 days each month through May 2024 "to ensure
that resolver performance did not change drastically since October 2023".
This module compares a baseline campaign against later re-check campaigns,
flagging resolvers whose median response time or availability moved beyond
a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.stats import median
from repro.core.results import MeasurementRecord, RecordSource
from repro.errors import AnalysisError


@dataclass(frozen=True)
class ResolverDrift:
    """One resolver's change between two campaigns."""

    resolver: str
    base_median_ms: float
    later_median_ms: float
    base_availability: float
    later_availability: float

    @property
    def has_baseline(self) -> bool:
        """Whether the baseline median supports a meaningful ratio.

        A non-positive baseline median (no successful baseline samples,
        or a degenerate zero-duration median) gives the latency ratio no
        denominator — such resolvers are reported as ``no-baseline``
        rather than flagged as drifted on an infinite ratio.
        """
        return self.base_median_ms > 0

    @property
    def latency_ratio(self) -> Optional[float]:
        if not self.has_baseline:
            return None
        return self.later_median_ms / self.base_median_ms

    @property
    def availability_delta(self) -> float:
        return self.later_availability - self.base_availability

    def status(self, latency_factor: float, availability_drop: float) -> str:
        """``"stable"``, ``"drifted"``, or ``"no-baseline"``."""
        if not self.has_baseline:
            return "no-baseline"
        return (
            "drifted"
            if self.drifted(latency_factor, availability_drop)
            else "stable"
        )

    def drifted(self, latency_factor: float, availability_drop: float) -> bool:
        ratio = self.latency_ratio
        if ratio is not None and (
            ratio > latency_factor or ratio < 1.0 / latency_factor
        ):
            return True
        return self.availability_delta < -availability_drop


@dataclass
class DriftReport:
    """Comparison of one later campaign against the baseline."""

    base_campaign: str
    later_campaign: str
    per_resolver: List[ResolverDrift] = field(default_factory=list)
    latency_factor: float = 2.0
    availability_drop: float = 0.2

    @property
    def comparable(self) -> List[ResolverDrift]:
        """Resolvers with a usable latency baseline."""
        return [drift for drift in self.per_resolver if drift.has_baseline]

    @property
    def no_baseline(self) -> List[ResolverDrift]:
        """Resolvers with no usable baseline median — reported, not flagged."""
        return [drift for drift in self.per_resolver if not drift.has_baseline]

    @property
    def drifted(self) -> List[ResolverDrift]:
        return [
            drift
            for drift in self.comparable
            if drift.drifted(self.latency_factor, self.availability_drop)
        ]

    @property
    def stable_fraction(self) -> float:
        comparable = self.comparable
        if not comparable:
            return 1.0
        return 1.0 - len(self.drifted) / len(comparable)

    @property
    def median_latency_ratio(self) -> float:
        ratios = [
            drift.latency_ratio
            for drift in self.per_resolver
            if drift.latency_ratio is not None
        ]
        return median(ratios) if ratios else 1.0

    def describe(self) -> str:
        no_baseline = self.no_baseline
        suffix = f", {len(no_baseline)} without baseline" if no_baseline else ""
        lines = [
            f"{self.later_campaign} vs {self.base_campaign}: "
            f"{self.stable_fraction:.0%} of {len(self.comparable)} resolvers stable "
            f"(median latency ratio {self.median_latency_ratio:.2f}{suffix})",
        ]
        for drift in sorted(self.drifted, key=lambda d: -(d.latency_ratio or 0.0)):
            lines.append(
                f"  DRIFT {drift.resolver}: {drift.base_median_ms:.0f} -> "
                f"{drift.later_median_ms:.0f} ms "
                f"(avail {drift.base_availability:.0%} -> {drift.later_availability:.0%})"
            )
        for drift in sorted(no_baseline, key=lambda d: d.resolver):
            lines.append(
                f"  NO-BASELINE {drift.resolver}: no usable baseline median "
                f"(avail {drift.base_availability:.0%} -> {drift.later_availability:.0%})"
            )
        return "\n".join(lines)


class _CampaignTallies:
    """One pass over a record stream: all that drift analysis keeps.

    Per-(campaign, resolver) duration lists and success counters — never
    the records themselves — plus each campaign's first start time over
    *all* records.  Medians are over successful DNS durations and
    availability over all DNS query records, each restricted to
    ``vantage`` when given.
    """

    def __init__(
        self, records: Iterable[MeasurementRecord], vantage: Optional[str] = None
    ) -> None:
        self.first_seen: Dict[str, float] = {}
        self.durations: Dict[Tuple[str, str], List[float]] = {}
        self.query_counts: Dict[Tuple[str, str], List[int]] = {}  # [successes, total]
        first_seen = self.first_seen
        for record in records:
            campaign = record.campaign
            if campaign not in first_seen or record.started_at_ms < first_seen[campaign]:
                first_seen[campaign] = record.started_at_ms
            if record.kind != "dns_query":
                continue
            if vantage is not None and record.vantage != vantage:
                continue
            key = (campaign, record.resolver)
            counts = self.query_counts.setdefault(key, [0, 0])
            counts[1] += 1
            if record.success:
                counts[0] += 1
                if record.duration_ms is not None:
                    self.durations.setdefault(key, []).append(record.duration_ms)

    def ordered(self) -> List[str]:
        """Campaign names by their first record's start time."""
        return sorted(self.first_seen, key=self.first_seen.__getitem__)

    def _medians(self, campaign: str) -> Dict[str, float]:
        return {
            resolver: median(samples)
            for (c, resolver), samples in self.durations.items()
            if c == campaign and samples
        }

    def _availability(self, campaign: str, resolver: str) -> float:
        successes, total = self.query_counts.get((campaign, resolver), (0, 0))
        return successes / total if total else 0.0

    def reports(
        self,
        base: str,
        laters: Sequence[str],
        latency_factor: float,
        availability_drop: float,
    ) -> List[DriftReport]:
        """Each of ``laters`` against ``base``, over the resolvers both measured."""
        base_medians = self._medians(base)
        reports = []
        for later in laters:
            later_medians = self._medians(later)
            report = DriftReport(
                base_campaign=base,
                later_campaign=later,
                latency_factor=latency_factor,
                availability_drop=availability_drop,
            )
            for resolver in sorted(set(base_medians) & set(later_medians)):
                report.per_resolver.append(
                    ResolverDrift(
                        resolver=resolver,
                        base_median_ms=base_medians[resolver],
                        later_median_ms=later_medians[resolver],
                        base_availability=self._availability(base, resolver),
                        later_availability=self._availability(later, resolver),
                    )
                )
            reports.append(report)
        return reports


def campaigns_in_order(store: RecordSource) -> List[str]:
    """Campaign names ordered by their first record's start time."""
    return _CampaignTallies(store).ordered()


def drift_report(
    store: RecordSource,
    base_campaign: str,
    later_campaign: str,
    vantage: Optional[str] = None,
    latency_factor: float = 2.0,
    availability_drop: float = 0.2,
) -> DriftReport:
    """Compare ``later_campaign`` against ``base_campaign``.

    Resolvers present in only one of the two campaigns are skipped (no
    basis for comparison).  Raises :class:`AnalysisError` when either
    campaign has no records at all.
    """
    tallies = _CampaignTallies(store, vantage)
    if base_campaign not in tallies.first_seen:
        raise AnalysisError(f"no records for baseline campaign {base_campaign!r}")
    if later_campaign not in tallies.first_seen:
        raise AnalysisError(f"no records for campaign {later_campaign!r}")
    return tallies.reports(
        base_campaign, [later_campaign], latency_factor, availability_drop
    )[0]


def drift_reports_over_time(
    store: RecordSource,
    vantage: Optional[str] = None,
    latency_factor: float = 2.0,
) -> List[DriftReport]:
    """A report for every campaign after the first, in time order."""
    return drift_reports_from_records(
        store, vantage=vantage, latency_factor=latency_factor
    )


def drift_reports_from_records(
    records: Iterable[MeasurementRecord],
    vantage: Optional[str] = None,
    latency_factor: float = 2.0,
    availability_drop: float = 0.2,
) -> List[DriftReport]:
    """Every campaign after the first against the first, in one pass.

    Consumes any record iterable — a loaded store, a JSONL stream, a
    warehouse scan — and orders campaigns by their first start time.
    """
    tallies = _CampaignTallies(records, vantage)
    ordered = tallies.ordered()
    if len(ordered) < 2:
        raise AnalysisError("need at least two campaigns for drift analysis")
    return tallies.reports(ordered[0], ordered[1:], latency_factor, availability_drop)
