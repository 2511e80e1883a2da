"""Measurement records and the JSON results store.

The paper's tool "writes the results to a JSON file" after each set of
measurements.  :class:`ResultStore` keeps records in memory for analysis
and (de)serializes them as JSON Lines, one record per line, so month-long
campaigns stream to disk without holding file-size state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import (
    Callable,
    ClassVar,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.errors import ResultsFormatError
from repro.files import iter_lines, write_text

#: ``json.dumps(value, separators=(",", ":"), sort_keys=True)`` for whatever
#: :func:`_fragment` does not write itself, and ``json.loads`` without the
#: per-call decoder lookup.
_encode_other = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode
_decode = json.JSONDecoder().raw_decode


def _fragment(value: object) -> str:
    """The JSON text of one field value, exactly as ``json.dumps`` writes it.

    The types a campaign produces are written directly; anything else
    (NaN and the infinities, ``str`` / ``int`` / ``float`` subclasses,
    containers) goes through the shared encoder, so the result is
    ``json``'s for every value and not only for the common ones.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or (kind is float and isfinite(value)):
        return repr(value)
    return _encode_other(value)


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
    #: Not a field: the line this record was parsed from, left on it by
    #: ``Warehouse.iter_sorted`` alone, for ``Warehouse.build_canonical`` to
    #: take off and write back (the contract is in :mod:`repro.store.warehouse`).
    stored_line: ClassVar[Optional[str]] = None

    def to_json(self) -> str:
        # The line is written from a template: the fields by name in sorted
        # key order (what ``sort_keys`` produced when this went through
        # ``json.dumps``), each value through ``_fragment``.  A field added
        # to the dataclass goes here too, in its sorted position;
        # tests/test_results_format.py holds the template to
        # ``dataclasses.fields`` and to ``json.dumps`` of ``asdict``.
        f = _fragment
        # Session fields appeared after the format froze; omit them when
        # unset so cold/legacy campaigns keep emitting byte-identical
        # JSONL (the golden-master equivalence suites depend on it).
        session = ""
        if self.session_policy is not None:
            session = f',"session_policy":{f(self.session_policy)}'
        if self.session_state is not None:
            session += f',"session_state":{f(self.session_state)}'
        return (
            f'{{"attempts":{f(self.attempts)}'
            f',"campaign":{f(self.campaign)}'
            f',"connect_ms":{f(self.connect_ms)}'
            f',"connection_reused":{f(self.connection_reused)}'
            f',"domain":{f(self.domain)}'
            f',"duration_ms":{f(self.duration_ms)}'
            f',"error_class":{f(self.error_class)}'
            f',"failed_phase":{f(self.failed_phase)}'
            f',"http_status":{f(self.http_status)}'
            f',"http_version":{f(self.http_version)}'
            f',"kind":{f(self.kind)}'
            f',"query_ms":{f(self.query_ms)}'
            f',"rcode":{f(self.rcode)}'
            f',"resolver":{f(self.resolver)}'
            f',"response_size":{f(self.response_size)}'
            f',"response_wire":{f(self.response_wire)}'
            f',"round_index":{f(self.round_index)}'
            f'{session}'
            f',"started_at_ms":{f(self.started_at_ms)}'
            f',"success":{f(self.success)}'
            f',"tls_ms":{f(self.tls_ms)}'
            f',"tls_version":{f(self.tls_version)}'
            f',"transport":{f(self.transport)}'
            f',"vantage":{f(self.vantage)}}}'
        )

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
            text = line.strip(_JSON_WHITESPACE)
            data, end = _decode(text)
            if end != len(text):
                raise ValueError(f"extra data after the record at char {end}")
            if not isinstance(data, dict):
                raise ValueError(
                    f"expected a JSON object, got {type(data).__name__}"
                )
            # A line this code wrote has exactly the record's fields, with
            # or without the two session ones: build it positionally.  (As
            # many keys as names and every name found is the same key set;
            # counting is cheaper than comparing sets.)  Any other key set
            # goes by keyword, whose TypeError names the missing or unknown
            # field.
            count = len(data)
            try:
                if count == _LEGACY_COUNT:
                    return cls(*_legacy_values(data))
                if count == _FIELD_COUNT:
                    return cls(*_all_values(data))
            except KeyError:
                pass
            return cls(**data)
        except (ValueError, TypeError, RecursionError) as exc:
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


#: What ``json.loads`` skips around a document (``str.strip()`` alone would
#: also accept form feeds and Unicode spaces).
_JSON_WHITESPACE = " \t\n\r"

_FIELD_NAMES = tuple(f.name for f in fields(MeasurementRecord))
#: The line of a campaign without a session policy.  Built positionally it
#: must be a prefix of the constructor's arguments: the two session fields
#: stay last in the dataclass.
_LEGACY_NAMES = tuple(
    name for name in _FIELD_NAMES if name not in ("session_state", "session_policy")
)
_FIELD_COUNT = len(_FIELD_NAMES)
_LEGACY_COUNT = len(_LEGACY_NAMES)
#: dict -> the constructor's positional arguments, in dataclass field order.
_all_values = itemgetter(*_FIELD_NAMES)
_legacy_values = itemgetter(*_LEGACY_NAMES)


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
        write_text(path, self.to_jsonl())
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
        :class:`~repro.errors.ResultsFormatError` with file and line, and so
        do bytes that are not UTF-8 (the file is decoded a block at a time,
        so the line named is the first one not read yet).
        """
        path = Path(path)
        for line_number, line in iter_lines(path, "results file"):
            yield MeasurementRecord.parse_line(
                line, source=path, line_number=line_number
            )

