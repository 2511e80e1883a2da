"""Incremental aggregation: per-group online summaries built at ingest.

The warehouse keeps one :class:`GroupSummary` per ``(vantage, resolver,
transport, kind)`` — success and per-error-class counters, total retry
attempts, and a fixed-bucket latency histogram over successful durations
(the same buckets as :mod:`repro.obs.metrics`, so estimates are
deterministic and summaries merge exactly by adding counts).  An
:class:`AggregateBook` is the full collection, persisted next to the
segments as ``aggregates.json``.

Because every counter and bucket is extensive, the availability and
response-time tables the paper reports are served straight from the book
— no record rescan — and serving from aggregates equals recomputing from
a full scan: counts are exact, and the histogram statistics come out of
the very same buckets either way.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.core.errors_taxonomy import ESTABLISHMENT_VALUES
from repro.core.results import MeasurementRecord
from repro.errors import ResultsFormatError
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram

#: The aggregation key.  ``kind`` is included on top of the issue's
#: (vantage, resolver, transport) triple so DNS queries, intermediate
#: retry attempts and pings never pool into one distribution.
AggregateKey = Tuple[str, str, str, str]  # (vantage, resolver, transport, kind)


class GroupSummary:
    """Online summary of one (vantage, resolver, transport, kind) group."""

    __slots__ = (
        "vantage", "resolver", "transport", "kind",
        "count", "successes", "attempts_total", "error_classes", "histogram",
    )

    def __init__(
        self,
        vantage: str,
        resolver: str,
        transport: str,
        kind: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.vantage = vantage
        self.resolver = resolver
        self.transport = transport
        self.kind = kind
        self.count = 0
        self.successes = 0
        self.attempts_total = 0
        self.error_classes: Counter = Counter()
        self.histogram = Histogram(bounds)

    @property
    def key(self) -> AggregateKey:
        return (self.vantage, self.resolver, self.transport, self.kind)

    @property
    def errors(self) -> int:
        return self.count - self.successes

    def latency_quantile(self, q: float) -> Optional[float]:
        """The histogram's estimate (``None`` without a timed success)."""
        return self.histogram.quantile(q)

    def observe(self, record: MeasurementRecord) -> None:
        self.count += 1
        self.attempts_total += record.attempts
        if record.success:
            self.successes += 1
            if record.duration_ms is not None:
                self.histogram.observe(record.duration_ms)
        else:
            self.error_classes[record.error_class or "unknown"] += 1

    def merge(self, other: "GroupSummary") -> None:
        self.count += other.count
        self.successes += other.successes
        self.attempts_total += other.attempts_total
        self.error_classes.update(other.error_classes)
        self.histogram.merge(other.histogram)

    def to_dict(self) -> dict:
        return {
            "vantage": self.vantage,
            "resolver": self.resolver,
            "transport": self.transport,
            "kind": self.kind,
            "count": self.count,
            "successes": self.successes,
            "attempts_total": self.attempts_total,
            "error_classes": {k: self.error_classes[k] for k in sorted(self.error_classes)},
            "histogram": self.histogram.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroupSummary":
        # Every slot is set from the dump, so ``__init__`` (an empty Counter
        # and a zeroed Histogram, both thrown away) is skipped: loading the
        # book is most of what an aggregate-served query costs.
        summary = cls.__new__(cls)
        summary.vantage = data["vantage"]
        summary.resolver = data["resolver"]
        summary.transport = data["transport"]
        summary.kind = data["kind"]
        summary.count = data["count"]
        summary.successes = data["successes"]
        summary.attempts_total = data["attempts_total"]
        summary.error_classes = Counter(data["error_classes"])
        summary.histogram = Histogram.from_dict(data["histogram"])
        return summary


class AggregateBook:
    """All group summaries of one warehouse, mergeable and persistable."""

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self._groups: Dict[AggregateKey, GroupSummary] = {}

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def total_records(self) -> int:
        return sum(group.count for group in self._groups.values())

    def observe(self, record: MeasurementRecord) -> None:
        key = (record.vantage, record.resolver, record.transport, record.kind)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = GroupSummary(*key, bounds=self.bounds)
        group.observe(record)

    def merge(self, other: "AggregateBook") -> None:
        for key in sorted(other._groups):
            theirs = other._groups[key]
            group = self._groups.get(key)
            if group is None:
                group = self._groups[key] = GroupSummary(*key, bounds=self.bounds)
            group.merge(theirs)

    @classmethod
    def from_records(
        cls,
        records: Iterable[MeasurementRecord],
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> "AggregateBook":
        """The slow path: one summary pass over a full record scan.

        Exists so tests (and skeptical users) can verify the persisted
        incremental aggregates equal a from-scratch recomputation.
        """
        book = cls(bounds)
        for record in records:
            book.observe(record)
        return book

    def groups(self, vantage: Optional[str] = None) -> Iterator[GroupSummary]:
        """DNS-query summaries (of one vantage, if given), in sorted key order."""
        for key in sorted(self._groups):
            group = self._groups[key]
            if group.kind != "dns_query":
                continue
            if vantage is not None and group.vantage != vantage:
                continue
            yield group

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "bounds": list(self.bounds),
            "groups": [self._groups[key].to_dict() for key in sorted(self._groups)],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AggregateBook":
        try:
            book = cls(tuple(data["bounds"]))
            for entry in data["groups"]:
                summary = GroupSummary.from_dict(entry)
                book._groups[summary.key] = summary
            return book
        except (KeyError, TypeError, ValueError) as exc:
            raise ResultsFormatError(f"malformed aggregate book: {exc}") from exc

    def save_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Compact, like the segment sidecars: nobody reads 546 histograms
        # one number per line, and ``indent`` costs json's C encoder.
        path.write_text(
            json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load_json(cls, path: Union[str, Path]) -> "AggregateBook":
        path = Path(path)
        try:
            return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, ResultsFormatError) as exc:
            # Not there; not UTF-8 or not JSON (both ``ValueError``); wrong shape.
            raise ResultsFormatError(f"unreadable aggregate book {path}: {exc}") from exc


# -- aggregate-served tables ---------------------------------------------------


def availability_from_aggregates(
    book: AggregateBook, vantage: Optional[str] = None
):
    """The paper's availability headline numbers, served from aggregates.

    Equals :func:`repro.analysis.availability.availability_report` over a
    full record scan exactly — every input is an integer counter.
    """
    from repro.analysis.availability import AvailabilityReport

    successes = 0
    breakdown: Counter = Counter()
    for group in book.groups(vantage):
        successes += group.successes
        breakdown.update(group.error_classes)
    errors = sum(breakdown.values())
    establishment = sum(
        count
        for error_class, count in breakdown.items()
        if error_class in ESTABLISHMENT_VALUES
    )
    return AvailabilityReport(
        successes=successes,
        errors=errors,
        error_breakdown=breakdown,
        connection_establishment_share=establishment / errors if errors else 0.0,
    )


def per_resolver_availability_from_aggregates(
    book: AggregateBook, vantage: Optional[str] = None
) -> Dict[str, float]:
    """Success rate of DNS queries per resolver, served from aggregates."""
    successes: Counter = Counter()
    counts: Counter = Counter()
    for group in book.groups(vantage):
        successes[group.resolver] += group.successes
        counts[group.resolver] += group.count
    return {
        resolver: successes[resolver] / counts[resolver]
        for resolver in counts
        if counts[resolver]
    }


@dataclass(frozen=True)
class ResponseTimeSummary:
    """Histogram-backed response-time statistics of one resolver."""

    resolver: str
    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    min_ms: float
    max_ms: float


def response_time_summaries(
    book: AggregateBook, vantage: Optional[str] = None
) -> Dict[str, ResponseTimeSummary]:
    """Per-resolver response-time table from the persisted histograms.

    Quantiles are the deterministic fixed-bucket estimates of
    :class:`repro.obs.metrics.Histogram`; serving them from the book is
    identical to rebuilding the same histograms from a full record scan,
    and needs no record access at all.
    """
    merged: Dict[str, Histogram] = {}
    for group in book.groups(vantage):
        if not group.histogram.count:
            continue
        histogram = merged.get(group.resolver)
        if histogram is None:
            merged[group.resolver] = histogram = Histogram(book.bounds)
        histogram.merge(group.histogram)
    return {
        resolver: ResponseTimeSummary(
            resolver=resolver,
            count=histogram.count,
            mean_ms=histogram.mean,
            p50_ms=histogram.p50,
            p95_ms=histogram.p95,
            p99_ms=histogram.p99,
            min_ms=histogram.min,
            max_ms=histogram.max,
        )
        for resolver, histogram in sorted(merged.items())
    }
