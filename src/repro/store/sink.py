"""StoreSink: the bounded-memory ingestion target campaigns stream into.

A sink presents the write surface of a
:class:`~repro.core.results.ResultStore` (``add`` / ``extend`` /
``len``), so :class:`~repro.core.runner.Campaign` streams records into it
unchanged — but instead of keeping everything in RAM it buffers at most
one segment of records, sorts the buffer by the canonical key, and flushes
it as a sealed warehouse segment with its sidecar index.  Aggregates are
maintained online at ``add`` time (one counter bump and at most one
histogram increment per record), so summary tables exist the moment
ingestion ends, without any rescan.

The buffer high-water mark is tracked and exposed —
:attr:`StoreSink.buffer_high_water_mark` never exceeds the segment size,
which is the bounded-memory guarantee the tests assert.

Ingest observability goes to the ambient (or given) metrics registry:

* ``store.ingest_records``   — counter, records landed in sealed
  segments (like the rest, counted at each flush);
* ``store.ingest_flushes``   — counter, segments flushed;
* ``store.ingest_seconds``   — counter, wall-clock spent in flushes
  (throughput = records / seconds; wall-clock, so excluded from
  byte-equivalence checks);
* ``store.segments``         — gauge, segments written so far;
* ``store.buffer_hwm``       — gauge, buffer high-water mark.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional

from repro.core.results import MeasurementRecord
from repro.errors import StoreError
from repro.obs import MetricsRegistry, get_metrics
from repro.store.aggregates import AggregateBook
from repro.store.segment import (
    SegmentIndex,
    SegmentWriter,
    TwinWriter,
    segment_name,
)
from repro.store.warehouse import DEFAULT_SEGMENT_RECORDS, Warehouse, merge_key


class StoreSink:
    """Streams measurement records into a (staging) warehouse."""

    def __init__(
        self,
        warehouse: Warehouse,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if segment_records < 1:
            raise StoreError(f"segment_records must be >= 1, got {segment_records}")
        if warehouse.exists():
            raise StoreError(
                f"refusing to ingest into existing warehouse at {warehouse.root}"
            )
        self.warehouse = warehouse
        self.segment_records = segment_records
        self._metrics = metrics
        self._buffer: List[MeasurementRecord] = []
        self._hwm = 0
        self._written = 0
        self._indexes: List[SegmentIndex] = []
        self._book = AggregateBook()
        self._closed = False
        warehouse.segments_dir.mkdir(parents=True, exist_ok=True)

    # -- ResultStore write surface ----------------------------------------

    def add(self, record: MeasurementRecord) -> None:
        if self._closed:
            raise StoreError(f"sink for {self.warehouse.root} is closed")
        self._buffer.append(record)
        self._book.observe(record)
        if len(self._buffer) >= self.segment_records:
            self.flush()

    def extend(self, records: Iterable[MeasurementRecord]) -> None:
        for record in records:
            self.add(record)

    def __len__(self) -> int:
        return self._written + len(self._buffer)

    # -- state -------------------------------------------------------------

    @property
    def buffer_high_water_mark(self) -> int:
        """Most records ever held in the buffer (<= ``segment_records``)."""
        return max(self._hwm, len(self._buffer))

    @property
    def segments_written(self) -> int:
        return len(self._indexes)

    @property
    def aggregates(self) -> AggregateBook:
        """The live online summaries (updated on every ``add``)."""
        return self._book

    def _registry(self) -> MetricsRegistry:
        return self._metrics if self._metrics is not None else get_metrics()

    # -- flushing ----------------------------------------------------------

    def flush(self) -> None:
        """Seal the buffered records as one segment (no-op when empty).

        The buffer is sorted by the canonical merge key before writing, so
        every segment is internally ordered — the invariant the
        warehouse's k-way merge relies on.
        """
        if self._closed:
            raise StoreError(f"sink for {self.warehouse.root} is closed")
        if not self._buffer:
            return
        started = time.perf_counter()
        # The buffer only grows between flushes, so its length here is the
        # high-water mark since the last one.
        flushed = len(self._buffer)
        self._hwm = max(self._hwm, flushed)
        self._buffer.sort(key=merge_key)
        writer = SegmentWriter(
            self.warehouse.segments_dir, segment_name(len(self._indexes))
        )
        # The twin is written from the lines the segment gets, a chunk of
        # lines alive at a time.
        twin = TwinWriter(writer.path)
        for records in twin.chunks(self._buffer):
            lines = [record.to_json() for record in records]
            for record, line in zip(records, lines):
                writer.append_line(record, line)
            twin.append(records, lines)
        self._indexes.append(writer.close())
        twin.close()
        self._written += flushed
        self._buffer = []
        metrics = self._registry()
        if metrics.enabled:
            metrics.inc("store.ingest_records", flushed)
            metrics.inc("store.ingest_flushes")
            metrics.inc("store.ingest_seconds", time.perf_counter() - started)
            metrics.set_gauge("store.segments", float(len(self._indexes)))
            metrics.set_gauge("store.buffer_hwm", float(self._hwm))

    def close(self) -> Warehouse:
        """Flush the tail, persist aggregates + manifest, return the warehouse."""
        if self._closed:
            return self.warehouse
        self.flush()
        self._closed = True
        self._book.save_json(self.warehouse.aggregates_path)
        self.warehouse.write_manifest(
            self._indexes, self.segment_records, canonical=False
        )
        return self.warehouse

    def __enter__(self) -> "StoreSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
