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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.results import MeasurementRecord
from repro.errors import ResultsFormatError, StoreError
from repro.files import iter_lines

SEGMENT_SUFFIX = ".jsonl"
INDEX_SUFFIX = ".idx.json"

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


def iter_segment(
    path: Union[str, Path],
    index: Optional[SegmentIndex] = None,
    vantage: Optional[str] = None,
    resolver: Optional[str] = None,
    transport: Optional[str] = None,
    carry_lines: bool = False,
) -> Iterator[MeasurementRecord]:
    """Stream a segment's records, seeking via the sidecar when filtered.

    With no criteria (or no index) the whole file is parsed line by line;
    with criteria and a sidecar, only the byte offsets of matching groups
    are visited.  Malformed, truncated or non-UTF-8 lines raise
    :class:`~repro.errors.ResultsFormatError` naming the segment file and
    line number (or byte offset).  With a sidecar, a segment that is not
    the size it was sealed at is refused before any record is yielded, and
    a full scan that does not yield the sealed record count raises at its
    end: a file torn at a line boundary parses cleanly and must not pass
    for a shorter segment.  ``carry_lines`` (a full scan for
    :meth:`Warehouse.iter_sorted`, nobody else) leaves each line on the
    record it became, as ``stored_line``.
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
    lines = 0
    for line_number, line in iter_lines(path, "segment"):
        record = MeasurementRecord.parse_line(
            line, source=path, line_number=line_number
        )
        lines += 1
        if carry_lines:
            record.stored_line = line
        if vantage is not None and record.vantage != vantage:
            continue
        if resolver is not None and record.resolver != resolver:
            continue
        if transport is not None and record.transport != transport:
            continue
        yield record
    if index is not None and lines != index.records:
        raise ResultsFormatError(
            f"segment {path} holds {lines} records but its sidecar says "
            f"{index.records}"
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
        for line_number, line in iter_lines(path, "segment"):
            MeasurementRecord.parse_line(line, source=path, line_number=line_number)
    except ResultsFormatError as exc:
        detail = f": {exc}"
    raise ResultsFormatError(
        f"segment {path} is {size} bytes but its sidecar says "
        f"{index.byte_size}{detail}"
    )
