"""The results warehouse: a directory of segments + index + aggregates.

Layout::

    <root>/
      MANIFEST.json          segment list, record total, canonical flag
      aggregates.json        canonical only: AggregateBook (per-group summaries)
      segments/
        seg-000000.jsonl     records, one JSON object per line
        seg-000000.idx.json  sidecar: counts, round range, group offsets
        seg-000000.twin      staging only: the lines' fields, pre-decoded
        seg-000001.jsonl
        ...

Two invariants make the warehouse useful:

* **segment-local order** — every segment is internally sorted by the
  canonical record key, so a k-way heap merge over segments streams the
  whole warehouse in canonical order with one record per segment in
  memory;
* **canonical determinism** — :meth:`Warehouse.build_canonical` rewrites
  any set of source warehouses into canonical order with fixed-size
  rotation, so the output bytes are a pure function of the record
  multiset.  A serial campaign and a sharded one therefore finalize to
  byte-identical warehouses.

The manifest records no wall-clock timestamps for the same reason.

**A source's ``iter_sorted()`` yields records as stored, and
``build_canonical`` writes them as stored.**  A record that
:meth:`Warehouse.iter_sorted` read from a segment carries the line it was
parsed from (``MeasurementRecord.stored_line``, not a field), and the
build takes that line off the record and writes it instead of encoding
the record a second time; a record with no line (a custom source,
:meth:`Warehouse.from_records`) is encoded.  So the destination's bytes
are a pure function of the multiset of source *lines* -- which, for every
segment :class:`~repro.store.segment.SegmentWriter` sealed, is the
multiset of records.  A source that assigns to a record's fields in
flight must drop its ``stored_line`` too.

**A staging segment is read through its twin.**  The sink that seals a
staging segment also writes its binary twin
(:class:`~repro.store.segment.TwinWriter`): the field tuples of its lines,
taken from the records it has just encoded.  A full scan of a segment
that has one -- so :meth:`Warehouse.iter_sorted` of a staging warehouse
-- builds each record from the twin and decodes no JSON; the record is
the one ``parse_line`` would build, and it carries the segment's line.
:meth:`_write_canonical` writes no twin, so a canonical warehouse has
none and its sources (``store compact``, a re-merge) are parsed, and no
twin outlives the staging warehouse it was written into.

:class:`Warehouse` iterates, sizes and filters like an in-memory
:class:`~repro.core.results.ResultStore`, so every analysis in
:mod:`repro.analysis` accepts a warehouse wherever it accepts a store and
reads it in one scan.  ``filter`` streams from disk and pushes
``(vantage, resolver, transport)`` predicates down to the segment
sidecars, touching only matching segments and offsets.
"""

from __future__ import annotations

import heapq
import json
import shutil
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.results import MeasurementRecord, merge_key
from repro.errors import ResultsFormatError, StoreError
from repro.store.aggregates import AggregateBook
from repro.store.segment import (
    SEGMENT_SUFFIX,
    SegmentIndex,
    SegmentWriter,
    iter_segment,
    segment_name,
)

MANIFEST_NAME = "MANIFEST.json"
AGGREGATES_NAME = "aggregates.json"
SEGMENTS_DIRNAME = "segments"

#: Default segment rotation threshold (records per segment).
DEFAULT_SEGMENT_RECORDS = 4096


class Warehouse:
    """One on-disk results warehouse rooted at a directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: The record total of the manifest this object wrote, if it wrote one.
        self.records_written: Optional[int] = None

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def aggregates_path(self) -> Path:
        return self.root / AGGREGATES_NAME

    @property
    def segments_dir(self) -> Path:
        return self.root / SEGMENTS_DIRNAME

    def exists(self) -> bool:
        return self.manifest_path.is_file()

    def discard(self) -> None:
        """Remove the warehouse's files; not the root (a pooled run stages under it)."""
        shutil.rmtree(self.segments_dir, ignore_errors=True)
        self.aggregates_path.unlink(missing_ok=True)
        self.manifest_path.unlink(missing_ok=True)

    @classmethod
    def open(cls, root: Union[str, Path]) -> "Warehouse":
        """Open an existing warehouse, failing fast on a missing manifest."""
        warehouse = cls(root)
        if not warehouse.exists():
            raise StoreError(
                f"no results warehouse at {warehouse.root} "
                f"(missing {MANIFEST_NAME})"
            )
        return warehouse

    # -- metadata ----------------------------------------------------------

    def manifest(self) -> dict:
        try:
            data = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise StoreError(f"unreadable warehouse manifest: {exc}") from exc
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ResultsFormatError(
                f"malformed warehouse manifest {self.manifest_path}: {exc}"
            ) from exc
        if type(data) is not dict:  # what json.loads builds for an object
            raise ResultsFormatError(
                f"malformed warehouse manifest {self.manifest_path}: "
                f"expected an object, got {type(data).__name__}"
            )
        return data

    def write_manifest(
        self,
        segment_indexes: Sequence[SegmentIndex],
        segment_records: int,
        canonical: bool,
    ) -> None:
        records = sum(index.records for index in segment_indexes)
        campaigns = sorted({c for index in segment_indexes for c in index.campaigns})
        manifest = {
            "version": 1,
            "canonical": canonical,
            "records": records,
            "segment_records": segment_records,
            "segments": [index.segment_filename for index in segment_indexes],
            "campaigns": campaigns,
        }
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        self.records_written = records

    def segment_indexes(self) -> List[SegmentIndex]:
        """Sidecar indexes of every segment, in manifest order."""
        indexes = []
        for filename in self.manifest()["segments"]:
            stem = filename[: -len(SEGMENT_SUFFIX)]
            indexes.append(
                SegmentIndex.load(self.segments_dir / (stem + ".idx.json"))
            )
        return indexes

    def record_count(self) -> int:
        return self.manifest()["records"]

    def aggregates(self) -> AggregateBook:
        """The persisted per-group summaries (see :mod:`repro.store.aggregates`)."""
        return AggregateBook.load_json(self.aggregates_path)

    def info(self) -> dict:
        """Inspection summary for ``repro-dns store info``."""
        manifest = self.manifest()
        indexes = self.segment_indexes()
        group_keys = {key for index in indexes for key in index.groups}
        return {
            "root": str(self.root),
            "canonical": manifest["canonical"],
            "records": manifest["records"],
            "segments": len(indexes),
            "segment_records": manifest["segment_records"],
            "bytes": sum(index.byte_size for index in indexes),
            "campaigns": manifest["campaigns"],
            "groups": len(group_keys),
            "vantages": sorted({key[0] for key in group_keys}),
            "resolvers": len({key[1] for key in group_keys}),
            "transports": sorted({key[2] for key in group_keys}),
        }

    def describe(self) -> str:
        info = self.info()
        return (
            f"warehouse {info['root']}: {info['records']} records in "
            f"{info['segments']} segments ({info['bytes']} bytes, "
            f"{'canonical' if info['canonical'] else 'staging'} order), "
            f"{info['resolvers']} resolvers x {len(info['vantages'])} vantages, "
            f"campaigns: {', '.join(info['campaigns']) or '(none)'}"
        )

    # -- scanning ----------------------------------------------------------

    def iter_records(
        self,
        vantage: Optional[str] = None,
        resolver: Optional[str] = None,
        transport: Optional[str] = None,
        scan_stats: Optional[Dict[str, int]] = None,
    ) -> Iterator[MeasurementRecord]:
        """Stream records, pushing the criteria down to segment sidecars.

        Segments whose sidecar shows no matching group are skipped without
        opening the segment file; matching segments are read via the
        group's byte offsets.  ``scan_stats`` (when given) is filled with
        ``segments_scanned`` / ``segments_skipped`` for tests and tooling.
        """
        if scan_stats is not None:
            scan_stats.setdefault("segments_scanned", 0)
            scan_stats.setdefault("segments_skipped", 0)
        for index in self.segment_indexes():
            if not index.may_match(
                vantage=vantage, resolver=resolver, transport=transport
            ):
                if scan_stats is not None:
                    scan_stats["segments_skipped"] += 1
                continue
            if scan_stats is not None:
                scan_stats["segments_scanned"] += 1
            yield from iter_segment(
                self.segments_dir / index.segment_filename,
                index=index,
                vantage=vantage,
                resolver=resolver,
                transport=transport,
            )

    def iter_sorted(self) -> Iterator[MeasurementRecord]:
        """All records in canonical order via a k-way heap merge.

        Relies on segment-local order; memory stays at one record per
        segment -- one twin chunk per segment for a staging warehouse --
        regardless of warehouse size.  Each record carries its
        ``stored_line`` for :meth:`build_canonical` (module docstring).
        """
        streams = [
            iter_segment(
                self.segments_dir / index.segment_filename,
                index=index,
                carry_lines=True,
            )
            for index in self.segment_indexes()
        ]
        return heapq.merge(*streams, key=merge_key)

    # -- the ResultStore surface: iteration, size, filter -----------------

    def __iter__(self) -> Iterator[MeasurementRecord]:
        return self.iter_records()

    def __len__(self) -> int:
        return self.record_count()

    def filter(
        self,
        kind: Optional[str] = None,
        vantage: Optional[str] = None,
        resolver: Optional[str] = None,
        transport: Optional[str] = None,
        success: Optional[bool] = None,
        predicate: Optional[Callable[[MeasurementRecord], bool]] = None,
    ) -> List[MeasurementRecord]:
        """Records matching every given criterion (streamed, then filtered).

        ``vantage`` / ``resolver`` / ``transport`` are pushed down to the
        segment indexes; the remaining criteria are applied per record.
        """
        out = []
        for record in self.iter_records(
            vantage=vantage, resolver=resolver, transport=transport
        ):
            if kind is not None and record.kind != kind:
                continue
            if success is not None and record.success != success:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
        return out

    # -- canonical builds --------------------------------------------------

    @classmethod
    def _write_canonical(
        cls,
        stream: Iterable[MeasurementRecord],
        dest: Union[str, Path],
        segment_records: int,
    ) -> "Warehouse":
        """Write an already-canonically-ordered stream as a new warehouse.

        Rotation happens every ``segment_records`` records exactly and the
        aggregate book is fed in stream order, so the emitted bytes —
        segments, sidecars, aggregates, manifest — depend only on the
        stream's contents.  A record's ``stored_line`` is taken off it and
        written as it is; a build that fails removes what it wrote.
        """
        if segment_records < 1:
            raise StoreError(f"segment_records must be >= 1, got {segment_records}")
        warehouse = cls(dest)
        if warehouse.exists():
            raise StoreError(
                f"refusing to overwrite existing warehouse at {warehouse.root}"
            )
        warehouse.segments_dir.mkdir(parents=True, exist_ok=True)
        book = AggregateBook()
        indexes: List[SegmentIndex] = []
        writer: Optional[SegmentWriter] = None
        try:
            for record in stream:
                if writer is None:
                    writer = SegmentWriter(
                        warehouse.segments_dir, segment_name(len(indexes))
                    )
                line = record.stored_line
                if line is None:
                    writer.append(record)
                else:
                    del record.stored_line
                    writer.append_line(record, line)
                book.observe(record)
                if writer.records >= segment_records:
                    indexes.append(writer.close())
                    writer = None
            if writer is not None:
                indexes.append(writer.close())
            book.save_json(warehouse.aggregates_path)
            warehouse.write_manifest(indexes, segment_records, canonical=True)
        except BaseException:
            if writer is not None:
                writer.discard()
            warehouse.discard()
            raise
        return warehouse

    @classmethod
    def build_canonical(
        cls,
        sources: Sequence["Warehouse"],
        dest: Union[str, Path],
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> "Warehouse":
        """K-way merge source warehouses into one canonical warehouse.

        This is the finalize step of both the serial and the sharded
        ingest paths: shard staging warehouses merge here, and the result
        is byte-identical no matter how the records were partitioned
        across sources.  Memory stays bounded at one record per source
        segment (the heap frontier).
        """
        stream = heapq.merge(
            *(source.iter_sorted() for source in sources), key=merge_key
        )
        return cls._write_canonical(stream, dest, segment_records)

    @classmethod
    def from_records(
        cls,
        records: Iterable[MeasurementRecord],
        dest: Union[str, Path],
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> "Warehouse":
        """Materialize an in-memory record collection as a canonical warehouse.

        Convenience for exporting an existing :class:`ResultStore` (e.g.
        ``report --output <dir>``); records are sorted in memory first, so
        use the sink + :meth:`build_canonical` path for streamed ingest.
        """
        ordered = sorted(records, key=merge_key)
        return cls._write_canonical(ordered, dest, segment_records)

    def compact(
        self, segment_records: Optional[int] = None
    ) -> "Warehouse":
        """Rewrite this warehouse in canonical order, in place.

        Collapses a staging warehouse's many small, partially-sorted
        segments into full canonical segments.  The rewrite happens in a
        sibling temp directory and is swapped in only after it completes.
        """
        if segment_records is None:
            segment_records = self.manifest()["segment_records"]
        tmp = self.root.with_name(self.root.name + ".compact-tmp")
        if tmp.exists():
            shutil.rmtree(tmp)
        try:
            Warehouse.build_canonical([self], tmp, segment_records)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        old = self.root.with_name(self.root.name + ".compact-old")
        if old.exists():
            shutil.rmtree(old)
        self.root.rename(old)
        tmp.rename(self.root)
        shutil.rmtree(old)
        return self
