"""Measurement records and the JSON results store.

The paper's tool "writes the results to a JSON file" after each set of
measurements.  :class:`ResultStore` keeps records in memory for analysis
and (de)serializes them as JSON Lines, one record per line, so month-long
campaigns stream to disk without holding file-size state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Union,
    runtime_checkable,
)

from repro.errors import ResultsFormatError


@dataclass
class MeasurementRecord:
    """One probe outcome.

    ``kind`` is ``"dns_query"`` for a response-time measurement over any
    DNS transport, ``"ping"`` for an ICMP latency measurement, and
    ``"dns_query_attempt"`` for an intermediate failed attempt recorded
    when a campaign's retry policy keeps per-attempt records (analysis
    operates on the final ``"dns_query"`` records only).
    """

    campaign: str
    vantage: str
    resolver: str
    kind: str  # "dns_query" | "ping" | "dns_query_attempt"
    transport: str  # "doh" | "dot" | "do53" | "doq" | "doh3" | "icmp"
    domain: Optional[str]
    round_index: int
    started_at_ms: float
    duration_ms: Optional[float]  # None when the probe failed
    success: bool
    error_class: Optional[str] = None
    rcode: Optional[int] = None
    http_status: Optional[int] = None
    http_version: Optional[str] = None
    tls_version: Optional[str] = None
    response_size: Optional[int] = None
    connection_reused: bool = False
    #: Which attempt produced this outcome (1 = first try); > 1 means the
    #: campaign's retry policy re-issued the query after failures.
    attempts: int = 1
    #: Phase timings (ms) splitting ``duration_ms`` into its protocol
    #: stages: TCP connect, TLS (or QUIC) handshake, and the query
    #: exchange (HTTP/DNS exchange + response parse).  ``None`` when the
    #: phase did not occur (connection reuse, UDP transport) or never
    #: completed.  For successful records the present phases sum to
    #: ``duration_ms``.
    connect_ms: Optional[float] = None
    tls_ms: Optional[float] = None
    query_ms: Optional[float] = None
    #: The phase that was in flight when a failed probe gave up
    #: (``None`` for successes), attributing each error to a span.
    failed_phase: Optional[str] = None
    #: Raw DNS response bytes, hex-encoded, captured when the campaign
    #: runs with ``capture_responses`` for answer differencing; ``None``
    #: otherwise (and always for pings and unanswered probes).
    response_wire: Optional[str] = None
    #: Session dimension (see :mod:`repro.session`): how this query's
    #: transport session was used — ``cold`` / ``warm`` / ``resumed`` /
    #: ``zero_rtt`` — and which policy mode produced it.  Both are
    #: ``None`` (and omitted from the JSON form, keeping legacy output
    #: byte-identical) for campaigns without an active session policy.
    session_state: Optional[str] = None
    session_policy: Optional[str] = None

    def to_json(self) -> str:
        # One flat dict built from the fields by name: ``asdict`` deep-copies
        # (20 of its 26 us on a flat record), and reading ``__dict__`` makes
        # CPython materialise the instance dict and slows every later
        # attribute load on the record.  tests/test_results_format.py holds
        # this list to ``dataclasses.fields``.
        data = {
            "campaign": self.campaign,
            "vantage": self.vantage,
            "resolver": self.resolver,
            "kind": self.kind,
            "transport": self.transport,
            "domain": self.domain,
            "round_index": self.round_index,
            "started_at_ms": self.started_at_ms,
            "duration_ms": self.duration_ms,
            "success": self.success,
            "error_class": self.error_class,
            "rcode": self.rcode,
            "http_status": self.http_status,
            "http_version": self.http_version,
            "tls_version": self.tls_version,
            "response_size": self.response_size,
            "connection_reused": self.connection_reused,
            "attempts": self.attempts,
            "connect_ms": self.connect_ms,
            "tls_ms": self.tls_ms,
            "query_ms": self.query_ms,
            "failed_phase": self.failed_phase,
            "response_wire": self.response_wire,
        }
        # Session fields appeared after the format froze; omit them when
        # unset so cold/legacy campaigns keep emitting byte-identical
        # JSONL (the golden-master equivalence suites depend on it).
        if self.session_state is not None:
            data["session_state"] = self.session_state
        if self.session_policy is not None:
            data["session_policy"] = self.session_policy
        return json.dumps(data, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "MeasurementRecord":
        return cls.parse_line(line)

    @classmethod
    def parse_line(
        cls,
        line: str,
        source: Optional[Union[str, Path]] = None,
        line_number: Optional[int] = None,
    ) -> "MeasurementRecord":
        """Parse one JSONL line into a record.

        A malformed or truncated line raises
        :class:`~repro.errors.ResultsFormatError` naming ``source`` and the
        1-based ``line_number`` (when given) instead of leaking an
        anonymous ``json.JSONDecodeError`` without file context.
        """
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise ValueError(
                    f"expected a JSON object, got {type(data).__name__}"
                )
            return cls(**data)
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            location = ""
            if source is not None:
                location = f" in {source}"
                if line_number is not None:
                    location += f", line {line_number}"
            elif line_number is not None:
                location = f" at line {line_number}"
            raise ResultsFormatError(
                f"malformed measurement record{location}: {exc}"
            ) from exc


class ResultStore:
    """In-memory record collection with JSONL persistence."""

    def __init__(self) -> None:
        self._records: List[MeasurementRecord] = []

    def add(self, record: MeasurementRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[MeasurementRecord]) -> None:
        self._records.extend(records)

    @property
    def records(self) -> List[MeasurementRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[MeasurementRecord]:
        return iter(self._records)

    # -- filtering views ------------------------------------------------------

    def filter(
        self,
        kind: Optional[str] = None,
        vantage: Optional[str] = None,
        resolver: Optional[str] = None,
        transport: Optional[str] = None,
        success: Optional[bool] = None,
        predicate: Optional[Callable[[MeasurementRecord], bool]] = None,
    ) -> List[MeasurementRecord]:
        """Records matching every given criterion."""
        out = []
        for record in self._records:
            if kind is not None and record.kind != kind:
                continue
            if vantage is not None and record.vantage != vantage:
                continue
            if resolver is not None and record.resolver != resolver:
                continue
            if transport is not None and record.transport != transport:
                continue
            if success is not None and record.success != success:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    def durations_ms(self, **criteria) -> List[float]:
        """Durations of successful records matching the criteria."""
        records = self.filter(success=True, **criteria)
        return [r.duration_ms for r in records if r.duration_ms is not None]

    def by_resolver(self, **criteria) -> Dict[str, List[MeasurementRecord]]:
        grouped: Dict[str, List[MeasurementRecord]] = {}
        for record in self.filter(**criteria):
            grouped.setdefault(record.resolver, []).append(record)
        return grouped

    # -- canonical ordering ---------------------------------------------------

    @staticmethod
    def canonical_key(record: MeasurementRecord) -> tuple:
        """Total-order key for deterministic exports.

        Orders by virtual schedule position first (round, start time),
        then by the measurement's identity.  Sorting with this key is what
        lets a sharded campaign and a serial one emit byte-identical
        JSONL: the merge becomes independent of shard boundaries and
        completion order.
        """
        return (
            record.campaign,
            record.round_index,
            record.started_at_ms,
            record.vantage,
            record.resolver,
            record.kind,
            record.domain or "",
            record.attempts,
            record.transport,
        )

    def canonical_sort(self) -> None:
        """Stable-sort records into canonical order (in place)."""
        self._records.sort(key=self.canonical_key)

    # -- persistence --------------------------------------------------------------

    def to_jsonl(self) -> str:
        """All records as JSON Lines text (one record per line)."""
        return "".join(record.to_json() + "\n" for record in self._records)

    def save_jsonl(self, path: Union[str, Path]) -> int:
        """Write all records as JSON Lines; returns the record count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return len(self._records)

    @classmethod
    def load_jsonl(cls, path: Union[str, Path]) -> "ResultStore":
        store = cls()
        store.extend(cls.iter_jsonl(path))
        return store

    @classmethod
    def iter_jsonl(cls, path: Union[str, Path]) -> Iterator[MeasurementRecord]:
        """Stream records from a JSONL file without materializing a store.

        Analysis passes that only need one record at a time (the CLI
        ``correlate`` and ``drift`` subcommands) read month-long result
        files through this with O(1) record memory.  Malformed lines raise
        :class:`~repro.errors.ResultsFormatError` with file and line.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    yield MeasurementRecord.parse_line(
                        line, source=path, line_number=line_number
                    )


@runtime_checkable
class RecordSource(Protocol):
    """What analysis needs from a collection of measurement records.

    Implemented by :class:`ResultStore` (in-memory) and by
    :class:`repro.store.Warehouse` (on-disk, streaming with predicate
    pushdown), so every table/figure builder accepts either
    interchangeably.
    """

    def __iter__(self) -> Iterator[MeasurementRecord]: ...

    def __len__(self) -> int: ...

    def filter(
        self,
        kind: Optional[str] = None,
        vantage: Optional[str] = None,
        resolver: Optional[str] = None,
        transport: Optional[str] = None,
        success: Optional[bool] = None,
        predicate: Optional[Callable[[MeasurementRecord], bool]] = None,
    ) -> List[MeasurementRecord]: ...

    def durations_ms(self, **criteria) -> List[float]: ...

    def by_resolver(self, **criteria) -> Dict[str, List[MeasurementRecord]]: ...
