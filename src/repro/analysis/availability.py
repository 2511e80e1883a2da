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
from repro.analysis.table import RecordTable, Source
from repro.core.errors_taxonomy import ESTABLISHMENT_VALUES, ErrorClass


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


def availability_report(store: Source, vantage: Optional[str] = None) -> AvailabilityReport:
    """Compute the availability headline numbers over DNS query records."""
    cell = RecordTable.of(store).cell("dns_query", vantage=vantage)
    breakdown = Counter(cell.errors)
    establishment = sum(
        count
        for error_class, count in breakdown.items()
        if error_class in ESTABLISHMENT_VALUES
    )
    share = establishment / cell.failures if cell.failures else 0.0
    return AvailabilityReport(
        successes=cell.successes,
        errors=cell.failures,
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
    store: Source, vantage: Optional[str] = None
) -> Dict[str, ResolverErrorProfile]:
    """Per-resolver, per-class error counts over DNS query records.

    Reproduces the journal version's error taxonomy table: for each
    resolver, how many attempts failed and how the failures split across
    :class:`~repro.core.errors_taxonomy.ErrorClass` values.
    """
    return {
        resolver: ResolverErrorProfile(
            resolver=resolver,
            attempts=cell.count,
            errors=cell.failures,
            breakdown=Counter(cell.errors),
        )
        for resolver, cell in RecordTable.of(store).by_resolver(
            "dns_query", vantage=vantage
        ).items()
    }


def error_class_shares(store: Source, vantage: Optional[str] = None) -> Dict[str, float]:
    """Share of each error class among all failed DNS queries."""
    cell = RecordTable.of(store).cell("dns_query", vantage=vantage)
    return {
        error_class: count / cell.failures
        for error_class, count in cell.errors.items()
    }


def retry_burden(store: Source, vantage: Optional[str] = None) -> float:
    """Mean attempts per final DNS query record (1.0 = no retries needed)."""
    cell = RecordTable.of(store).cell("dns_query", vantage=vantage)
    return cell.attempts_total / cell.count if cell.count else 0.0


def per_resolver_availability(
    store: Source, vantage: Optional[str] = None
) -> Dict[str, float]:
    """Success rate of DNS queries per resolver."""
    return {
        resolver: cell.successes / cell.count
        for resolver, cell in RecordTable.of(store).by_resolver(
            "dns_query", vantage=vantage
        ).items()
    }


def unresponsive_resolvers(store: Source, vantage: Optional[str] = None) -> List[str]:
    """Resolvers with zero successful responses from a vantage point.

    This is the paper's definition of "unresponsive from a given vantage
    point": no response to any query issued from that server.
    """
    return sorted(
        resolver
        for resolver, rate in per_resolver_availability(store, vantage).items()
        if rate == 0.0
    )


def failure_pattern_consistency(store: Source) -> float:
    """How concentrated failures are in a fixed resolver subset, in [0, 1].

    For each round, collect the set of resolvers that had at least one
    failure; the score is the median Jaccard similarity between
    consecutive rounds' failure sets.  The paper observed *no consistent
    pattern* — transient failures hit different resolvers each round —
    which corresponds to a low score (persistent outages in a fixed subset
    would push it toward 1).  Rounds with no failures are skipped.
    """
    failures_by_round: Dict[int, Set[str]] = {}
    for resolver, cell in RecordTable.of(store).by_resolver("dns_query").items():
        if not cell.successes:
            continue  # dead resolvers are a separate phenomenon
        for round_index in cell.failed_rounds:
            failures_by_round.setdefault(round_index, set()).add(resolver)
    rounds = [failures_by_round[k] for k in sorted(failures_by_round)]
    similarities = []
    for previous, current in zip(rounds, rounds[1:]):
        union = previous | current
        if not union:
            continue
        similarities.append(len(previous & current) / len(union))
    return median(similarities) if similarities else 0.0
