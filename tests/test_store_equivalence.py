"""Golden-master equivalence for the results warehouse.

The warehouse is a drop-in persistence layer, not a new semantics: a
campaign streamed through a :class:`StoreSink` must yield exactly the
records the classic in-memory :class:`ResultStore` run yields, sharded
store runs must write byte-identical warehouses for every worker count,
and every aggregate-served table must equal its full-scan recomputation.
The sink must also never hold more than one segment's worth of records
in memory, no matter how large the campaign.
"""

from __future__ import annotations

import os

import pytest

from repro.core.runner import Campaign
from repro.experiments.campaigns import EC2_VANTAGE_NAMES, ec2_campaign_config
from repro.parallel import run_campaigns
from repro.store import (
    AggregateBook,
    StoreSink,
    Warehouse,
    availability_from_aggregates,
    merge_key,
    per_resolver_availability_from_aggregates,
    response_time_summaries,
)

from tests.conftest import MINI_CATALOG_HOSTNAMES, make_mini_world

MINI = tuple(MINI_CATALOG_HOSTNAMES)

#: Worker count for the pooled side (CI re-runs with REPRO_TEST_WORKERS=4).
POOLED_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def _classic_campaign(seed: int, store=None, rounds: int = 2):
    """The classic serial EC2 campaign on a fresh mini world."""
    world = make_mini_world(seed=seed)
    return Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in EC2_VANTAGE_NAMES],
        targets=world.targets(list(MINI)),
        config=ec2_campaign_config(rounds=rounds, seed=seed),
        store=store,
    ).run()


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# Warehouse scan == classic in-memory run
# ---------------------------------------------------------------------------


def test_warehouse_scan_matches_classic_in_memory_run(tmp_path):
    classic = _classic_campaign(seed=11)

    sink = StoreSink(Warehouse(tmp_path / "staging"), segment_records=64)
    _classic_campaign(seed=11, store=sink)
    warehouse = Warehouse.build_canonical(
        [sink.close()], tmp_path / "wh", segment_records=64
    )

    assert len(warehouse) == len(classic)
    assert [r.to_json() for r in warehouse.iter_sorted()] == [
        r.to_json() for r in sorted(classic.records, key=merge_key)
    ]


# ---------------------------------------------------------------------------
# Sharded store runs: byte-identical for every worker count
# ---------------------------------------------------------------------------


def _parallel_store_run(seed: int, workers: int, store_dir, segment_records=256):
    return run_campaigns(
        [(
            ec2_campaign_config(rounds=2, seed=seed),
            EC2_VANTAGE_NAMES,
            MINI,
        )],
        world_seed=seed,
        workers=workers,
        store_dir=str(store_dir),
        segment_records=segment_records,
    )


@pytest.mark.slow
def test_sharded_store_runs_byte_identical_across_worker_counts(tmp_path):
    serial = _parallel_store_run(17, 1, tmp_path / "w1")
    assert not serial.pool_used
    reference = _tree_bytes(serial.warehouse.root)
    assert reference  # MANIFEST + aggregates + at least one segment pair

    for workers in (POOLED_WORKERS, POOLED_WORKERS + 1):
        pooled = _parallel_store_run(17, workers, tmp_path / f"w{workers}")
        assert _tree_bytes(pooled.warehouse.root) == reference
        assert pooled.record_count == serial.record_count

    # No staging residue survives the merge.
    assert not (tmp_path / "w1" / ".staging").exists()


@pytest.mark.slow
def test_sharded_store_run_matches_nonstore_records(tmp_path):
    """The store path persists exactly the records the plain path merges."""
    plain = run_campaigns(
        [(
            ec2_campaign_config(rounds=2, seed=29),
            EC2_VANTAGE_NAMES,
            MINI,
        )],
        world_seed=29,
        workers=1,
    )
    stored = _parallel_store_run(29, 1, tmp_path / "wh")
    assert [r.to_json() for r in stored.warehouse.iter_sorted()] == [
        r.to_json() for r in sorted(plain.store.records, key=merge_key)
    ]


# ---------------------------------------------------------------------------
# Aggregate-served tables == full-scan recomputation (campaign data)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_campaign_aggregates_match_full_scan(tmp_path):
    from repro.analysis.availability import (
        availability_report,
        per_resolver_availability,
    )
    from repro.core.results import ResultStore
    from repro.obs.metrics import Histogram

    run = _parallel_store_run(7, 1, tmp_path / "wh")
    warehouse = run.warehouse
    book = warehouse.aggregates()

    # The persisted book is exactly what a full scan would rebuild.
    assert book.to_dict() == AggregateBook.from_records(
        warehouse.iter_sorted()
    ).to_dict()

    scan = ResultStore()
    scan.extend(warehouse)

    from_book = availability_from_aggregates(book)
    from_scan = availability_report(scan)
    assert from_book.successes == from_scan.successes
    assert from_book.errors == from_scan.errors
    assert from_book.error_breakdown == from_scan.error_breakdown
    assert per_resolver_availability_from_aggregates(
        book
    ) == per_resolver_availability(scan)

    for resolver, summary in response_time_summaries(book).items():
        hist = Histogram(book.bounds)
        for record in scan.filter(kind="dns_query", resolver=resolver, success=True):
            hist.observe(record.duration_ms)
        assert summary.count == hist.count
        assert summary.mean_ms == hist.mean
        assert (summary.p50_ms, summary.p95_ms, summary.p99_ms) == (
            hist.p50,
            hist.p95,
            hist.p99,
        )


# ---------------------------------------------------------------------------
# Bounded memory: the sink never buffers more than one segment
# ---------------------------------------------------------------------------


def test_campaign_sink_buffer_bounded_by_segment_size(tmp_path):
    segment_records = 32
    sink = StoreSink(
        Warehouse(tmp_path / "staging"), segment_records=segment_records
    )
    _classic_campaign(seed=3, store=sink)
    assert len(sink) > segment_records  # the bound was actually exercised
    assert sink.buffer_high_water_mark <= segment_records
    warehouse = sink.close()
    assert warehouse.manifest()["records"] == len(sink)
