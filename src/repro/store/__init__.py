"""Results warehouse: segmented on-disk store with incremental aggregates.

The subsystem replaces keep-everything-in-RAM result handling for
production-scale campaigns (the paper's real runs produced ~5.4M
measurement attempts):

* :class:`~repro.store.sink.StoreSink` — streaming ingestion into a
  staging warehouse with at most one segment of records buffered and
  segment rotation;
* :class:`~repro.store.warehouse.Warehouse` — the on-disk store: JSONL
  segments with sidecar indexes (predicate pushdown for scans), a
  deterministic canonical rebuild (k-way merge) that makes serial and
  sharded ingest byte-identical and folds the per-(vantage, resolver,
  transport, kind) aggregate book serving availability/response-time
  tables without record rescans;
* :mod:`~repro.store.aggregates` — the mergeable summary machinery and
  the aggregate-served tables;
* :mod:`~repro.store.segment` — segment writer/reader and sidecar format.
"""

from repro.store.aggregates import (
    AggregateBook,
    GroupSummary,
    ResponseTimeSummary,
    availability_from_aggregates,
    per_resolver_availability_from_aggregates,
    response_time_summaries,
)
from repro.store.segment import SegmentIndex, SegmentWriter, iter_segment
from repro.store.sink import StoreSink
from repro.store.warehouse import DEFAULT_SEGMENT_RECORDS, Warehouse, merge_key

__all__ = [
    "AggregateBook",
    "DEFAULT_SEGMENT_RECORDS",
    "GroupSummary",
    "ResponseTimeSummary",
    "SegmentIndex",
    "SegmentWriter",
    "StoreSink",
    "Warehouse",
    "availability_from_aggregates",
    "iter_segment",
    "merge_key",
    "per_resolver_availability_from_aggregates",
    "response_time_summaries",
]
