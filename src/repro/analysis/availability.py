"""Availability analysis (§4, "Are Non-Mainstream Resolvers Available?").

Reproduces the paper's availability numbers: total successful responses
versus errors, the dominant error class (connection-establishment
failures), per-resolver availability, and the check that failures are not
concentrated in a consistent subset of resolvers round after round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.stats import median
from repro.core.errors_taxonomy import ESTABLISHMENT_VALUES, ErrorClass
from repro.core.results import RecordSource


@dataclass
class AvailabilityReport:
    """The availability headline numbers."""

    successes: int
    errors: int
    error_breakdown: Counter = field(default_factory=Counter)
    connection_establishment_share: float = 0.0

    @property
    def attempts(self) -> int:
        return self.successes + self.errors

    @property
    def error_rate(self) -> float:
        return self.errors / self.attempts if self.attempts else 0.0

    @property
    def dominant_error_class(self) -> Optional[str]:
        if not self.error_breakdown:
            return None
        return self.error_breakdown.most_common(1)[0][0]

    def describe(self) -> str:
        lines = [
            f"attempts={self.attempts} successes={self.successes} "
            f"errors={self.errors} ({self.error_rate:.2%})",
            f"connection-establishment share of errors: "
            f"{self.connection_establishment_share:.1%}",
        ]
        for error_class, count in self.error_breakdown.most_common():
            lines.append(f"  {error_class}: {count}")
        return "\n".join(lines)


def availability_report(store: RecordSource, vantage: Optional[str] = None) -> AvailabilityReport:
    """Compute the availability headline numbers over DNS query records."""
    records = store.filter(kind="dns_query", vantage=vantage)
    successes = sum(1 for r in records if r.success)
    failures = [r for r in records if not r.success]
    breakdown = Counter(r.error_class or "unknown" for r in failures)
    establishment = sum(
        count
        for error_class, count in breakdown.items()
        if error_class in ESTABLISHMENT_VALUES
    )
    share = establishment / len(failures) if failures else 0.0
    return AvailabilityReport(
        successes=successes,
        errors=len(failures),
        error_breakdown=breakdown,
        connection_establishment_share=share,
    )


@dataclass
class ResolverErrorProfile:
    """Per-resolver error characterization (journal-version §5 shape)."""

    resolver: str
    attempts: int
    errors: int
    breakdown: Counter = field(default_factory=Counter)

    @property
    def error_rate(self) -> float:
        return self.errors / self.attempts if self.attempts else 0.0

    @property
    def connection_establishment_share(self) -> float:
        if not self.errors:
            return 0.0
        establishment = sum(
            count
            for error_class, count in self.breakdown.items()
            if error_class in ESTABLISHMENT_VALUES
        )
        return establishment / self.errors

    def describe(self) -> str:
        classes = ", ".join(
            f"{error_class}={count}" for error_class, count in self.breakdown.most_common()
        )
        return (
            f"{self.resolver}: {self.errors}/{self.attempts} failed "
            f"({self.error_rate:.2%}; {classes or 'no errors'})"
        )


def per_resolver_error_breakdown(
    store: RecordSource, vantage: Optional[str] = None
) -> Dict[str, ResolverErrorProfile]:
    """Per-resolver, per-class error counts over DNS query records.

    Reproduces the journal version's error taxonomy table: for each
    resolver, how many attempts failed and how the failures split across
    :class:`~repro.core.errors_taxonomy.ErrorClass` values.
    """
    profiles: Dict[str, ResolverErrorProfile] = {}
    for resolver, records in store.by_resolver(kind="dns_query", vantage=vantage).items():
        failures = [r for r in records if not r.success]
        profiles[resolver] = ResolverErrorProfile(
            resolver=resolver,
            attempts=len(records),
            errors=len(failures),
            breakdown=Counter(r.error_class or "unknown" for r in failures),
        )
    return profiles


def error_class_shares(store: RecordSource, vantage: Optional[str] = None) -> Dict[str, float]:
    """Share of each error class among all failed DNS queries."""
    failures = store.filter(kind="dns_query", vantage=vantage, success=False)
    if not failures:
        return {}
    counts = Counter(r.error_class or "unknown" for r in failures)
    total = sum(counts.values())
    return {error_class: count / total for error_class, count in counts.items()}


def retry_burden(store: RecordSource, vantage: Optional[str] = None) -> float:
    """Mean attempts per final DNS query record (1.0 = no retries needed)."""
    records = store.filter(kind="dns_query", vantage=vantage)
    if not records:
        return 0.0
    return sum(r.attempts for r in records) / len(records)


def per_resolver_availability(
    store: RecordSource, vantage: Optional[str] = None
) -> Dict[str, float]:
    """Success rate of DNS queries per resolver."""
    rates: Dict[str, float] = {}
    for resolver, records in store.by_resolver(kind="dns_query", vantage=vantage).items():
        successes = sum(1 for r in records if r.success)
        rates[resolver] = successes / len(records) if records else 0.0
    return rates


def unresponsive_resolvers(store: RecordSource, vantage: Optional[str] = None) -> List[str]:
    """Resolvers with zero successful responses from a vantage point.

    This is the paper's definition of "unresponsive from a given vantage
    point": no response to any query issued from that server.
    """
    return sorted(
        resolver
        for resolver, rate in per_resolver_availability(store, vantage).items()
        if rate == 0.0
    )


def failure_pattern_consistency(store: RecordSource) -> float:
    """How concentrated failures are in a fixed resolver subset, in [0, 1].

    For each round, collect the set of resolvers that had at least one
    failure; the score is the median Jaccard similarity between
    consecutive rounds' failure sets.  The paper observed *no consistent
    pattern* — transient failures hit different resolvers each round —
    which corresponds to a low score (persistent outages in a fixed subset
    would push it toward 1).  Rounds with no failures are skipped.
    """
    failures_by_round: Dict[int, Set[str]] = {}
    always_failed = {
        resolver
        for resolver, rate in per_resolver_availability(store).items()
        if rate == 0.0
    }
    for record in store.filter(kind="dns_query", success=False):
        if record.resolver in always_failed:
            continue  # dead resolvers are a separate phenomenon
        failures_by_round.setdefault(record.round_index, set()).add(record.resolver)
    rounds = [failures_by_round[k] for k in sorted(failures_by_round)]
    similarities = []
    for previous, current in zip(rounds, rounds[1:]):
        union = previous | current
        if not union:
            continue
        similarities.append(len(previous & current) / len(union))
    return median(similarities) if similarities else 0.0
