"""Deterministic merge of shard results into whole-campaign artifacts.

The merge is independent of shard completion order and of how many
workers produced the results:

* **records** — shard record lists are concatenated in shard-plan order,
  then stable-sorted into the canonical order of
  :meth:`repro.core.results.ResultStore.canonical_key` (round, virtual
  start time, vantage, resolver, ...).  Two runs of the same plan — one
  serial, one pooled — export byte-identical JSONL;
* **spans** — per-shard span ids all start at 1, so each shard's spans
  are rebased past the previous shard's id space (in plan order) while
  keeping their virtual timestamps; parent links move by the same offset,
  leaving every shard's campaign>round>measurement>probe tree intact;
* **metrics** — counter values and raw histogram buckets add; gauges
  (extensive totals) add as well.  Addition is commutative, so the merged
  registry is order-independent by construction.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Sequence, Tuple, Union

from repro.core.results import ResultStore
from repro.errors import CampaignConfigError, StoreError
from repro.obs import MetricsRegistry, SpanCollector
from repro.parallel.executor import ShardResult
from repro.store import DEFAULT_SEGMENT_RECORDS, Warehouse


def merge_shard_results(
    results: Sequence[ShardResult],
) -> Tuple[ResultStore, SpanCollector, MetricsRegistry]:
    """Fold shard results into one store, span collector and registry.

    ``results`` may arrive in any order (e.g. pool completion order);
    they are merged in shard-plan order.  Duplicate or missing shard
    indices raise — a merge over a partial plan would silently produce a
    truncated campaign.
    """
    ordered = sorted(results, key=lambda result: result.shard_index)
    indices = [result.shard_index for result in ordered]
    if len(set(indices)) != len(indices):
        raise CampaignConfigError(f"duplicate shard indices in merge: {indices}")

    store = ResultStore()
    for result in ordered:
        store.extend(result.records)
    store.canonical_sort()

    spans = SpanCollector()
    for result in ordered:
        if result.spans:
            spans.absorb(result.spans)

    states = [result.metrics_state for result in ordered if result.metrics_state]
    metrics = MetricsRegistry.from_states(states, enabled=bool(states))

    return store, spans, metrics


def merge_shard_warehouses(
    results: Sequence[ShardResult],
    dest: Union[str, Path],
    segment_records: int = DEFAULT_SEGMENT_RECORDS,
):
    """K-way merge shard staging warehouses into one canonical warehouse.

    The store-backed twin of :func:`merge_shard_results`: every result
    must carry a ``warehouse_path`` (shards ran with a staging dir set).
    Because each staging segment is internally sorted and
    :meth:`repro.store.Warehouse.build_canonical` rewrites with fixed
    rotation, the destination bytes depend only on the record multiset —
    the same warehouse emerges for any worker count.  The staging
    warehouses are removed afterwards.
    """
    ordered = sorted(results, key=lambda result: result.shard_index)
    indices = [result.shard_index for result in ordered]
    if len(set(indices)) != len(indices):
        raise CampaignConfigError(f"duplicate shard indices in merge: {indices}")
    missing = [r.shard_key for r in ordered if r.warehouse_path is None]
    if missing:
        raise CampaignConfigError(
            f"shards without staging warehouses in store merge: {missing}"
        )

    sources = [Warehouse.open(result.warehouse_path) for result in ordered]
    merged = Warehouse.build_canonical(sources, dest, segment_records)
    found = merged.records_written  # no second read of the manifest
    expected = sum(result.record_count for result in ordered)
    if found != expected:
        # A staging manifest that lists a segment less merges cleanly: hold
        # the merge to what the shards counted, and keep no short warehouse.
        merged.discard()
        raise StoreError(
            f"merged warehouse at {merged.root} holds {found} records but "
            f"shards {[r.shard_key for r in ordered]} produced {expected}"
        )
    for source in sources:
        shutil.rmtree(source.root, ignore_errors=True)
    return merged
