"""The results warehouse on campaign data: aggregates and memory.

Every aggregate-served table must equal its full-scan recomputation, and
the sink must never hold more than one segment's worth of records in
memory, no matter how large the campaign.  That a warehouse holds the
records the in-memory run holds, byte for byte and for any worker count,
is a column of ``test_plan_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.availability import availability_report, per_resolver_availability
from repro.core.results import ResultStore
from repro.core.runner import Campaign
from repro.experiments.campaigns import EC2_VANTAGE_NAMES, ec2_campaign_config
from repro.obs.metrics import Histogram
from repro.parallel import run_campaigns
from repro.store import (
    AggregateBook,
    StoreSink,
    Warehouse,
    availability_from_aggregates,
    per_resolver_availability_from_aggregates,
    response_time_summaries,
)

from tests.conftest import MINI_CATALOG_HOSTNAMES, make_mini_world

MINI = tuple(MINI_CATALOG_HOSTNAMES)


@pytest.mark.slow
def test_campaign_aggregates_match_full_scan(tmp_path):
    run = run_campaigns(
        [(ec2_campaign_config(rounds=2, seed=7), EC2_VANTAGE_NAMES, MINI)],
        world_seed=7,
        store_dir=str(tmp_path / "wh"),
        segment_records=256,
    )
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


def test_campaign_sink_buffer_bounded_by_segment_size(tmp_path):
    segment_records = 32
    sink = StoreSink(
        Warehouse(tmp_path / "staging"), segment_records=segment_records
    )
    world = make_mini_world(seed=3)
    Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in EC2_VANTAGE_NAMES],
        targets=world.targets(list(MINI)),
        config=ec2_campaign_config(rounds=2, seed=3),
        store=sink,
    ).run()
    assert len(sink) > segment_records  # the bound was actually exercised
    assert sink.buffer_high_water_mark <= segment_records
    warehouse = sink.close()
    assert warehouse.manifest()["records"] == len(sink)
