"""Segment files: the append-only on-disk unit of the results warehouse.

A segment is a JSONL file of :class:`~repro.core.results.MeasurementRecord`
lines plus a **sidecar index** (``<name>.idx.json``) written when the
segment is sealed.  The sidecar carries what a reader needs to decide —
without opening the segment — whether any record inside can match a
``(vantage, resolver, transport)`` scan: the record count, the round
range, the campaign names, and per-group byte offsets.  Matching scans
then seek straight to the group's records instead of parsing every line.

Segment bytes are a pure function of the record sequence: records are
serialized with :meth:`MeasurementRecord.to_json` (compact separators,
sorted keys) and the sidecar is dumped with sorted keys, so two writers
fed the same records produce identical files — the property the
serial-vs-sharded warehouse equivalence rests on.

A **staging** segment also has a binary **twin** (``<name>.twin``, see
:class:`TwinWriter`), written by :class:`~repro.store.sink.StoreSink` from
the records it just encoded: per chunk of :data:`TWIN_CHUNK_RECORDS`
lines, one ``marshal`` blob of the field tuples ``parse_line`` would
build them from, and the CRC-32 of the lines themselves.  A full scan of
a segment that has a twin builds its records from the twin and decodes
no JSON; the records, and the lines they carry to the canonical merge,
are the ones the JSON path yields.  A segment without one — every
canonical segment — is parsed.  Twins are transient: no canonical
warehouse has one, so none is ever kept.
"""

from __future__ import annotations

import json
import marshal
import struct
import zlib
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.results import MeasurementRecord
from repro.errors import ResultsFormatError, StoreError
from repro.files import iter_lines

SEGMENT_SUFFIX = ".jsonl"
INDEX_SUFFIX = ".idx.json"
TWIN_SUFFIX = ".twin"

#: Records per twin chunk: all a twinned segment's reader holds decoded.
TWIN_CHUNK_RECORDS = 128
_TWIN_MAGIC = b"RDNSTW1\n"
#: magic, the twin's own size in bytes, records, fields per record.
_TWIN_HEADER = struct.Struct("<8sQQI")
#: Ahead of each chunk's blob: blob bytes, blob CRC-32, then the bytes and
#: CRC-32 of the segment lines the chunk decodes.
_TWIN_CHUNK = struct.Struct("<IIII")
_FIELD_NAMES = tuple(f.name for f in fields(MeasurementRecord))
#: A record's field values, in the constructor's positional order.
_row = attrgetter(*_FIELD_NAMES)

#: The sidecar grouping key: one entry per distinct combination.
GroupKey = Tuple[str, str, str]  # (vantage, resolver, transport)


def segment_name(sequence: int) -> str:
    """Deterministic segment file name for the ``sequence``-th segment."""
    return f"seg-{sequence:06d}"


@dataclass
class SegmentIndex:
    """Sidecar metadata of one sealed segment."""

    name: str  # segment stem, e.g. "seg-000001"
    records: int
    byte_size: int
    round_min: Optional[int]
    round_max: Optional[int]
    campaigns: Tuple[str, ...]
    #: (vantage, resolver, transport) -> byte offsets of that group's
    #: records inside the segment file, in file order.
    groups: Dict[GroupKey, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def segment_filename(self) -> str:
        return self.name + SEGMENT_SUFFIX

    @property
    def index_filename(self) -> str:
        return self.name + INDEX_SUFFIX

    def may_match(
        self,
        vantage: Optional[str] = None,
        resolver: Optional[str] = None,
        transport: Optional[str] = None,
    ) -> bool:
        """Whether any group in this segment satisfies the criteria."""
        if vantage is None and resolver is None and transport is None:
            return self.records > 0
        return any(
            (vantage is None or key[0] == vantage)
            and (resolver is None or key[1] == resolver)
            and (transport is None or key[2] == transport)
            for key in self.groups
        )

    def matching_offsets(
        self,
        vantage: Optional[str] = None,
        resolver: Optional[str] = None,
        transport: Optional[str] = None,
    ) -> List[int]:
        """Byte offsets of all records matching the criteria, in file order."""
        offsets: List[int] = []
        for key, group_offsets in self.groups.items():
            if vantage is not None and key[0] != vantage:
                continue
            if resolver is not None and key[1] != resolver:
                continue
            if transport is not None and key[2] != transport:
                continue
            offsets.extend(group_offsets)
        offsets.sort()
        return offsets

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "segment": self.segment_filename,
            "records": self.records,
            "bytes": self.byte_size,
            "round_min": self.round_min,
            "round_max": self.round_max,
            "campaigns": list(self.campaigns),
            "groups": [
                {
                    "vantage": key[0],
                    "resolver": key[1],
                    "transport": key[2],
                    "count": len(self.groups[key]),
                    "offsets": list(self.groups[key]),
                }
                for key in sorted(self.groups)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, name: Optional[str] = None) -> "SegmentIndex":
        try:
            groups = {
                (entry["vantage"], entry["resolver"], entry["transport"]): tuple(
                    entry["offsets"]
                )
                for entry in data["groups"]
            }
            return cls(
                name=name if name is not None else Path(data["segment"]).stem,
                records=data["records"],
                byte_size=data["bytes"],
                round_min=data["round_min"],
                round_max=data["round_max"],
                campaigns=tuple(data["campaigns"]),
                groups=groups,
            )
        except (KeyError, TypeError) as exc:
            raise ResultsFormatError(f"malformed segment index: {exc}") from exc

    def save(self, directory: Union[str, Path]) -> Path:
        # Compact: a machine reads this file, and ``indent`` would put one
        # offset per line through json's pure-Python encoder.
        path = Path(directory) / self.index_filename
        path.write_text(
            json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SegmentIndex":
        path = Path(path)
        name = path.name
        if name.endswith(INDEX_SUFFIX):
            name = name[: -len(INDEX_SUFFIX)]
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            return cls.from_dict(data, name=name)
        except (OSError, ValueError, ResultsFormatError) as exc:
            # Not there; not UTF-8 or not JSON (both ``ValueError``); wrong shape.
            raise ResultsFormatError(f"unreadable segment index {path}: {exc}") from exc


class SegmentWriter:
    """Writes one segment file and accumulates its sidecar index.

    The writer appends records until :meth:`close`, which seals the
    segment, writes the sidecar, and returns the :class:`SegmentIndex`.
    Byte offsets are tracked on the encoded UTF-8 stream, so the sidecar's
    group offsets are exact seek targets.
    """

    def __init__(self, directory: Union[str, Path], name: str) -> None:
        self.directory = Path(directory)
        self.name = name
        self.path = self.directory / (name + SEGMENT_SUFFIX)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("wb")
        self._offset = 0
        self._records = 0
        self._round_min: Optional[int] = None
        self._round_max: Optional[int] = None
        self._campaigns: set = set()
        self._groups: Dict[GroupKey, List[int]] = {}
        self._closed = False

    @property
    def records(self) -> int:
        return self._records

    def append(self, record: MeasurementRecord) -> None:
        self.append_line(record, record.to_json())

    def append_line(self, record: MeasurementRecord, line: str) -> None:
        """Append ``record`` as ``line``, its serialized form without the newline."""
        if self._closed:
            raise StoreError(f"segment {self.path} is already sealed")
        data = (line + "\n").encode("utf-8")
        key = (record.vantage, record.resolver, record.transport)
        offsets = self._groups.get(key)
        if offsets is None:
            offsets = self._groups[key] = []
        offsets.append(self._offset)
        self._campaigns.add(record.campaign)
        if self._round_min is None or record.round_index < self._round_min:
            self._round_min = record.round_index
        if self._round_max is None or record.round_index > self._round_max:
            self._round_max = record.round_index
        self._handle.write(data)
        self._offset += len(data)
        self._records += 1

    def close(self) -> SegmentIndex:
        if self._closed:
            raise StoreError(f"segment {self.path} is already sealed")
        self._closed = True
        self._handle.close()
        index = SegmentIndex(
            name=self.name,
            records=self._records,
            byte_size=self._offset,
            round_min=self._round_min,
            round_max=self._round_max,
            campaigns=tuple(sorted(self._campaigns)),
            groups={key: tuple(offsets) for key, offsets in self._groups.items()},
        )
        index.save(self.directory)
        return index

    def discard(self) -> None:
        """Close the file without sealing it: what a failed build calls."""
        self._closed = True
        self._handle.close()


def twin_path(segment: Union[str, Path]) -> Path:
    """The binary twin of ``segment``: ``seg-000000.jsonl`` -> ``seg-000000.twin``."""
    return Path(segment).with_suffix(TWIN_SUFFIX)


class TwinWriter:
    """Writes the twin of the segment a :class:`SegmentWriter` is writing.

    Fed the same records and lines, a chunk at a time, as the segment
    writer takes them; :meth:`close` writes the file.  It is a header
    (magic, its own size, the record count, the fields per record) and one
    chunk per :meth:`append`: the chunk's blob size and CRC-32, its lines'
    byte size and CRC-32, then the blob, a ``marshal`` list of one field
    tuple per line.  A tuple is the record's own values when ``json`` gives
    those back unchanged, and else the values of ``parse_line(line)`` (see
    :func:`_json_alters`), so a record built from the twin is always the
    one the JSON path builds.
    """

    def __init__(self, segment: Path) -> None:
        self.path = twin_path(segment)
        self._chunks: List[bytes] = []
        self._records = 0

    @staticmethod
    def chunks(
        records: Sequence[MeasurementRecord],
    ) -> Iterator[Sequence[MeasurementRecord]]:
        """``records`` in slices of :data:`TWIN_CHUNK_RECORDS`, one per :meth:`append`."""
        step = TWIN_CHUNK_RECORDS
        for start in range(0, len(records), step):
            yield records[start : start + step]

    def append(
        self, records: Sequence[MeasurementRecord], lines: Sequence[str]
    ) -> None:
        """Add one chunk: ``records`` and their lines, in segment order."""
        text = "\n".join(lines) + "\n"
        data = text.encode("utf-8")
        blob = None
        if not _json_alters(text, len(lines)):
            try:
                blob = marshal.dumps(list(map(_row, records)))
            except ValueError:  # a str / int / float subclass: json gives the base type
                pass
        if blob is None:
            blob = marshal.dumps(
                [_row(MeasurementRecord.parse_line(line)) for line in lines]
            )
        head = (len(blob), zlib.crc32(blob), len(data), zlib.crc32(data))
        self._chunks.append(_TWIN_CHUNK.pack(*head) + blob)
        self._records += len(lines)

    def close(self) -> Path:
        body = b"".join(self._chunks)
        size = _TWIN_HEADER.size + len(body)
        header = _TWIN_HEADER.pack(
            _TWIN_MAGIC, size, self._records, len(_FIELD_NAMES)
        )
        self.path.write_bytes(header + body)
        return self.path


def _json_alters(text: str, lines: int) -> bool:
    """Whether ``json`` may decode ``text`` to values other than the encoded ones.

    ``None``, bools, an exact ``str``, an exact ``int``, a finite exact
    ``float`` and the infinities come back equal; ``marshal`` refuses the
    subclasses.  What is left shows in the text: a container (a ``[``, or
    a ``{`` that does not open a line), NaN (``json`` keeps neither its
    sign nor its payload) and an escaped surrogate (``json`` joins a pair
    into one character).  Each is looked for as one character -- an
    ``N``, any escape's backslash -- which a campaign's lines never hold,
    so the scan costs a ``memchr``; a string that holds one only sends its
    chunk through ``parse_line``.
    """
    return "[" in text or "N" in text or "\\" in text or text.count("{") != lines


def iter_segment(
    path: Union[str, Path],
    index: Optional[SegmentIndex] = None,
    vantage: Optional[str] = None,
    resolver: Optional[str] = None,
    transport: Optional[str] = None,
    carry_lines: bool = False,
) -> Iterator[MeasurementRecord]:
    """Stream a segment's records, seeking via the sidecar when filtered.

    With no criteria (or no index) the whole file is read: built from the
    segment's twin when it has one (:class:`TwinWriter`), parsed line by
    line when not; with criteria and a sidecar, only the byte offsets of
    matching groups are visited.  Malformed, truncated or non-UTF-8 lines
    raise :class:`~repro.errors.ResultsFormatError` naming the segment file
    and line number (or byte offset), and so does a damaged twin, naming
    the twin.  With a sidecar, a segment that is not the size it was sealed
    at is refused before any record is yielded, and a full scan that does
    not yield the sealed record count raises at its end: a file torn at a
    line boundary parses cleanly and must not pass for a shorter segment.
    ``carry_lines`` (a full scan for :meth:`Warehouse.iter_sorted`, nobody
    else) leaves each line on the record it became, as ``stored_line``.
    """
    path = Path(path)
    if index is not None:
        _check_sealed_size(path, index)
    filtered = not (vantage is None and resolver is None and transport is None)
    if filtered and index is not None:
        offsets = index.matching_offsets(
            vantage=vantage, resolver=resolver, transport=transport
        )
        if not offsets:
            return
        with path.open("rb") as handle:
            try:
                for offset in offsets:
                    handle.seek(offset)
                    raw = handle.readline()
                    yield MeasurementRecord.parse_line(
                        raw.decode("utf-8"), source=f"{path}, byte offset {offset}"
                    )
            except UnicodeDecodeError as exc:
                raise ResultsFormatError(
                    f"segment {path} is not UTF-8 at byte offset {offset}: {exc}"
                ) from exc
        return
    twin = twin_path(path)
    try:
        twin_size = twin.stat().st_size
    except FileNotFoundError:
        records = _parse_segment(path, index, carry_lines)
    except OSError as exc:
        raise ResultsFormatError(f"unreadable twin {twin}: {exc}") from exc
    else:
        records = _twin_records(path, index, twin, twin_size, carry_lines)
    if not filtered:
        yield from records
        return
    for record in records:
        if vantage is not None and record.vantage != vantage:
            continue
        if resolver is not None and record.resolver != resolver:
            continue
        if transport is not None and record.transport != transport:
            continue
        yield record


def _parse_segment(
    path: Path, index: Optional[SegmentIndex], carry_lines: bool = False
) -> Iterator[MeasurementRecord]:
    """Every record of a segment through ``parse_line``: the JSON path."""
    lines = 0
    for line_number, line in iter_lines(path, "segment"):
        record = MeasurementRecord.parse_line(
            line, source=path, line_number=line_number
        )
        lines += 1
        if carry_lines:
            record.stored_line = line
        yield record
    if index is not None and lines != index.records:
        raise ResultsFormatError(
            f"segment {path} holds {lines} records but its sidecar says "
            f"{index.records}"
        )


def _twin_records(
    path: Path,
    index: Optional[SegmentIndex],
    twin: Path,
    twin_size: int,
    carry_lines: bool,
) -> Iterator[MeasurementRecord]:
    """Every record of a segment, built from its twin a chunk at a time.

    Each chunk opens the twin, then the segment, reads its bytes and
    closes the file again, so no file stays open between records and the
    reader holds one chunk decoded.  A twin that is not the size its
    header says, or holds another record count than the sidecar, is
    refused before any record is yielded.
    """
    with _opened(twin) as handle:
        header = handle.read(_TWIN_HEADER.size)
    try:
        magic, size, records, width = _TWIN_HEADER.unpack(header)
    except struct.error as exc:
        raise ResultsFormatError(f"twin {twin} is torn: {exc}") from exc
    if magic != _TWIN_MAGIC:
        raise ResultsFormatError(f"twin {twin} is not a segment twin")
    if width != len(_FIELD_NAMES):
        raise ResultsFormatError(
            f"twin {twin} holds records of {width} fields, not {len(_FIELD_NAMES)}"
        )
    if size != twin_size:
        raise ResultsFormatError(
            f"twin {twin} is {twin_size} bytes but its header says {size}"
        )
    if index is None:
        segment_size = path.stat().st_size
    elif records != index.records:
        raise ResultsFormatError(
            f"twin {twin} holds {records} records but the sidecar of {path} "
            f"says {index.records}"
        )
    else:
        segment_size = index.byte_size
    build = MeasurementRecord
    at, segment_at, built = _TWIN_HEADER.size, 0, 0
    while at < size:
        rows, lines, next_at, segment_at = _twin_chunk_at(
            path, index, twin, at, segment_at, built + 1
        )
        for row, line in zip(rows, lines):
            try:
                record = build(*row)
            except TypeError as exc:
                raise ResultsFormatError(
                    f"twin {twin} is damaged in the chunk at byte {at}: {exc}"
                ) from exc
            if carry_lines:
                record.stored_line = line
            yield record
        built += len(rows)
        at = next_at
    if built != records or segment_at != segment_size:
        raise ResultsFormatError(
            f"twin {twin} holds {built} records in {segment_at} bytes of {path}, "
            f"not {records} in {segment_size}"
        )


def _twin_chunk_at(
    path: Path,
    index: Optional[SegmentIndex],
    twin: Path,
    at: int,
    segment_at: int,
    line_number: int,
) -> Tuple[list, List[str], int, int]:
    """The chunk at byte ``at`` of ``twin``: rows, lines, and where the next starts."""
    damaged = f"twin {twin} is damaged in the chunk at byte {at}"
    with _opened(twin) as handle:
        handle.seek(at)
        head = handle.read(_TWIN_CHUNK.size)
        if len(head) != _TWIN_CHUNK.size:
            raise ResultsFormatError(f"{damaged}: its header is torn")
        blob_size, blob_crc, data_size, data_crc = _TWIN_CHUNK.unpack(head)
        blob = handle.read(blob_size)
    if len(blob) != blob_size or zlib.crc32(blob) != blob_crc:
        raise ResultsFormatError(f"{damaged}: its checksum does not match")
    with _opened(path) as handle:
        handle.seek(segment_at)
        data = handle.read(data_size)
    if len(data) != data_size or zlib.crc32(data) != data_crc:
        raise _unlike_twin(path, index, twin, line_number)
    try:
        rows = marshal.loads(blob)
        lines = data.decode("utf-8").split("\n")
    except (EOFError, ValueError, TypeError) as exc:
        raise ResultsFormatError(f"{damaged}: {exc}") from exc
    if lines.pop() != "" or type(rows) is not list or len(rows) != len(lines):
        raise ResultsFormatError(f"{damaged}: its rows are not its lines")
    return rows, lines, at + _TWIN_CHUNK.size + blob_size, segment_at + data_size


def _opened(path: Path) -> BinaryIO:
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ResultsFormatError(f"unreadable segment file {path}: {exc}") from exc


def _unlike_twin(
    path: Path, index: Optional[SegmentIndex], twin: Path, line_number: int
) -> ResultsFormatError:
    """A segment changed since its twin was written: what the JSON path says.

    Its refusal (a line that does not parse, bytes that are not UTF-8, a
    record count the sidecar does not hold) names the line; when it has
    none, the edit left valid records behind and the twin is what notices.
    """
    try:
        for _record in _parse_segment(path, index):
            pass
    except ResultsFormatError as exc:
        return exc
    return ResultsFormatError(
        f"segment {path} changed after it was sealed: a line at or after "
        f"line {line_number} is not the one its twin {twin} holds"
    )


def _check_sealed_size(path: Path, index: SegmentIndex) -> None:
    """Refuse a segment whose size is not the one its sidecar recorded."""
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise ResultsFormatError(f"unreadable segment {path}: {exc}") from exc
    if size == index.byte_size:
        return
    # Torn or edited after sealing.  Name the first line that does not
    # parse as well, when there is one: it is where to look.
    detail = ""
    try:
        for _record in _parse_segment(path, None):
            pass
    except ResultsFormatError as exc:
        detail = f": {exc}"
    raise ResultsFormatError(
        f"segment {path} is {size} bytes but its sidecar says "
        f"{index.byte_size}{detail}"
    )
