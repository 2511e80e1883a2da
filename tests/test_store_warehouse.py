"""Unit tests for the results warehouse (repro.store).

Covers the segment format, sink rotation and bounded buffering, sidecar
predicate pushdown, the RecordSource protocol parity against ResultStore,
incremental aggregates, canonical builds (partition-independence), and
compaction.  Campaign-scale equivalence lives in the warehouse cases of
``test_plan_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest

from repro.core.results import MeasurementRecord, ResultStore
from repro.errors import ResultsFormatError, StoreError
from repro.store import (
    AggregateBook,
    SegmentIndex,
    StoreSink,
    Warehouse,
    availability_from_aggregates,
    merge_key,
    per_resolver_availability_from_aggregates,
    response_time_summaries,
)


def make_record(
    i: int,
    vantage: str = "v1",
    resolver: str = "r1",
    kind: str = "dns_query",
    transport: str = "doh",
    success: bool = True,
    campaign: str = "camp",
) -> MeasurementRecord:
    return MeasurementRecord(
        campaign=campaign,
        vantage=vantage,
        resolver=resolver,
        kind=kind,
        transport=transport,
        domain="example.com" if kind != "ping" else None,
        round_index=i // 4,
        started_at_ms=float(i) * 10.0,
        duration_ms=5.0 + (i % 7) if success else None,
        success=success,
        error_class=None if success else "connect_timeout",
        attempts=1 + (i % 2),
    )


def make_fleet(n: int = 40):
    """A deterministic mixed-record fleet across 2 vantages x 3 resolvers."""
    records = []
    for i in range(n):
        vantage = f"v{i % 2 + 1}"
        resolver = f"r{i % 3 + 1}"
        kind = "ping" if i % 5 == 0 else "dns_query"
        transport = "icmp" if kind == "ping" else ("dot" if i % 4 == 0 else "doh")
        success = i % 6 != 0
        records.append(
            make_record(i, vantage, resolver, kind, transport, success)
        )
    return records


# ---------------------------------------------------------------------------
# Sink: rotation, bounded buffer, refusal to clobber
# ---------------------------------------------------------------------------


def test_sink_rotates_segments_and_bounds_buffer(tmp_path):
    records = make_fleet(40)
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=8)
    sink.extend(records)
    assert len(sink) == 40
    assert sink.buffer_high_water_mark <= 8
    warehouse = sink.close()
    manifest = warehouse.manifest()
    assert manifest["records"] == 40
    assert manifest["canonical"] is False
    assert len(manifest["segments"]) == 5
    assert manifest["campaigns"] == ["camp"]
    # Every segment is internally sorted by the merge key.
    for index in warehouse.segment_indexes():
        segment_records = list(
            __import__("repro.store.segment", fromlist=["iter_segment"]).iter_segment(
                warehouse.segments_dir / index.segment_filename, index=index
            )
        )
        keys = [merge_key(r) for r in segment_records]
        assert keys == sorted(keys)


def test_sealing_a_twin_holds_none_of_it(tmp_path, monkeypatch):
    # Each chunk went to disk as it was appended; close writes the header
    # in place, so sealing a 4,096-record twin (~290 KB) allocates ~nothing.
    import tracemalloc

    from repro.store import segment

    records = make_fleet(4096)
    peaks = []
    real = segment.TwinWriter.close

    def close(self):
        tracemalloc.start()
        try:
            path = real(self)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        return path

    monkeypatch.setattr(segment.TwinWriter, "close", close)
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=4096)
    sink.extend(records)
    (twin,) = (tmp_path / "wh").rglob("*" + segment.TWIN_SUFFIX)
    assert twin.stat().st_size > 250_000
    assert peaks and max(peaks) < 16_384
    assert [r.to_json() for r in sink.close().iter_records()] == [
        r.to_json() for r in sorted(records, key=merge_key)
    ]


def test_a_failed_flush_leaves_no_partial_twin(tmp_path, monkeypatch):
    from repro.store import segment

    monkeypatch.setattr(segment, "TWIN_CHUNK_RECORDS", 4)
    calls = []
    real = MeasurementRecord.to_json

    def to_json(self):
        calls.append(self)
        if len(calls) == 30:  # in the eighth chunk, seven on disk
            raise OSError("disk full")
        return real(self)

    monkeypatch.setattr(MeasurementRecord, "to_json", to_json)
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=40)
    with pytest.raises(OSError, match="disk full"):
        sink.extend(make_fleet(40))
    assert not list((tmp_path / "wh").rglob("*" + segment.TWIN_SUFFIX))


def test_merge_key_is_a_total_order_on_equal_canonical_keys():
    base = make_record(3)
    twin = make_record(3)
    # Same canonical key, another line: a non-key field differs.
    slower = dataclasses.replace(base, duration_ms=base.duration_ms + 1.0)
    assert ResultStore.canonical_key(slower) == ResultStore.canonical_key(base)
    assert merge_key(base) == merge_key(twin)
    assert not merge_key(base) < merge_key(twin) and not merge_key(twin) < merge_key(base)
    assert merge_key(base) != merge_key(slower)
    assert (merge_key(base) < merge_key(slower)) == (base.to_json() < slower.to_json())
    assert (merge_key(slower) < merge_key(base)) == (slower.to_json() < base.to_json())
    # ... so the order never depends on which source a record came from.
    for arrival in ([base, slower, twin], [slower, twin, base], [twin, base, slower]):
        assert [r.to_json() for r in sorted(arrival, key=merge_key)] == sorted(
            r.to_json() for r in arrival
        )


def test_sorting_and_merging_serialize_nothing(tmp_path, monkeypatch):
    records = make_fleet(40)
    assert len({ResultStore.canonical_key(r) for r in records}) == len(records)
    calls = []
    real = MeasurementRecord.to_json
    monkeypatch.setattr(
        MeasurementRecord, "to_json", lambda self: calls.append(1) or real(self)
    )
    shuffled = records[1::2] + records[::2]
    assert sorted(shuffled, key=merge_key) == sorted(
        records, key=ResultStore.canonical_key
    )
    assert calls == []
    # Through the store, a record is serialized when it first goes to disk
    # and at no other time: the canonical build writes the staging lines it
    # read (tests/test_store_line_carry.py), and so does a compaction.
    sink = StoreSink(Warehouse(tmp_path / "staging"), segment_records=8)
    sink.extend(shuffled)
    staging = sink.close()
    assert len(calls) == len(records)
    assert len(list(staging.iter_sorted())) == len(records)
    assert len(calls) == len(records)
    canonical = Warehouse.build_canonical(
        [staging], tmp_path / "canonical", segment_records=8
    )
    assert len(calls) == len(records)
    canonical.compact(segment_records=5)
    assert len(calls) == len(records)
    assert [r.to_json() for r in canonical.iter_records()] == [
        r.to_json() for r in sorted(records, key=ResultStore.canonical_key)
    ]


def test_sink_refuses_existing_warehouse(tmp_path):
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=4)
    sink.add(make_record(0))
    sink.close()
    with pytest.raises(StoreError):
        StoreSink(Warehouse(tmp_path / "wh"), segment_records=4)


def test_sink_close_is_idempotent_and_add_after_close_raises(tmp_path):
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=4)
    sink.add(make_record(0))
    warehouse = sink.close()
    assert sink.close() is warehouse
    with pytest.raises(StoreError):
        sink.add(make_record(1))


def test_sink_reports_ingest_metrics(tmp_path):
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry(enabled=True)
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=8, metrics=metrics)
    sink.extend(make_fleet(20))
    sink.close()
    counters = metrics.to_state()["counters"]
    gauges = metrics.to_state()["gauges"]
    assert counters["store.ingest_records"] == 20
    assert counters["store.ingest_flushes"] == 3  # 8 + 8 + 4
    assert counters["store.ingest_seconds"] > 0
    assert gauges["store.segments"] == 3
    assert gauges["store.buffer_hwm"] <= 8


# ---------------------------------------------------------------------------
# Sidecar indexes and predicate pushdown
# ---------------------------------------------------------------------------


def test_sidecar_index_contents_and_round_trip(tmp_path):
    records = make_fleet(16)
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=16)
    sink.extend(records)
    warehouse = sink.close()
    (index,) = warehouse.segment_indexes()
    assert index.records == 16
    assert index.round_min == min(r.round_index for r in records)
    assert index.round_max == max(r.round_index for r in records)
    assert sum(len(offsets) for offsets in index.groups.values()) == 16
    # The sidecar survives a save/load round trip exactly.
    reloaded = SegmentIndex.from_dict(
        json.loads(json.dumps(index.to_dict()))
    )
    assert reloaded.groups == index.groups
    assert reloaded.byte_size == index.byte_size


def test_pushdown_skips_segments_without_matching_groups(tmp_path):
    # Two vantages land in strictly alternating segments when ingested
    # pre-sorted per vantage.
    v1 = [make_record(i, vantage="v1") for i in range(8)]
    v2 = [make_record(i, vantage="v2") for i in range(8)]
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=8)
    sink.extend(v1)  # flushes exactly one v1-only segment
    sink.extend(v2)
    warehouse = sink.close()

    stats: dict = {}
    got = list(warehouse.iter_records(vantage="v2", scan_stats=stats))
    assert len(got) == 8
    assert all(r.vantage == "v2" for r in got)
    assert stats["segments_skipped"] == 1
    assert stats["segments_scanned"] == 1


def test_pushdown_offsets_return_exactly_the_matching_records(tmp_path):
    records = make_fleet(24)
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=6)
    sink.extend(records)
    warehouse = sink.close()
    expected = sorted(
        (r for r in records if r.vantage == "v1" and r.resolver == "r2"),
        key=merge_key,
    )
    got = sorted(
        warehouse.iter_records(vantage="v1", resolver="r2"), key=merge_key
    )
    assert got == expected


# ---------------------------------------------------------------------------
# RecordSource parity with ResultStore
# ---------------------------------------------------------------------------


@pytest.fixture()
def parity(tmp_path):
    records = make_fleet(48)
    store = ResultStore()
    store.extend(records)
    warehouse = Warehouse.from_records(records, tmp_path / "wh", segment_records=10)
    return store, warehouse


def test_len_and_iteration_parity(parity):
    store, warehouse = parity
    assert len(warehouse) == len(store)
    assert sorted((r.to_json() for r in warehouse)) == sorted(
        r.to_json() for r in store
    )


def test_filter_parity(parity):
    store, warehouse = parity
    for criteria in (
        {"kind": "dns_query"},
        {"vantage": "v1"},
        {"resolver": "r3", "success": True},
        {"kind": "dns_query", "transport": "dot"},
        {"success": False},
        {"predicate": lambda r: r.round_index > 5},
    ):
        assert sorted(
            (r.to_json() for r in warehouse.filter(**criteria))
        ) == sorted(r.to_json() for r in store.filter(**criteria))


def test_record_table_parity(parity):
    from repro.analysis.table import RecordTable

    store, warehouse = parity
    from_store = RecordTable.of(store)
    from_warehouse = RecordTable.of(warehouse)
    assert set(from_warehouse.groups) == set(from_store.groups)
    assert from_warehouse.campaign_starts == from_store.campaign_starts
    for key, group in from_store.groups.items():
        other = from_warehouse.groups[key]
        assert (other.count, other.successes, other.attempts_total) == (
            group.count, group.successes, group.attempts_total
        )
        assert other.errors == group.errors
        assert other.failed_rounds == group.failed_rounds
        assert sorted(other.durations) == sorted(group.durations)


def test_analysis_accepts_warehouse_as_record_source(parity):
    from repro.analysis.availability import availability_report
    from repro.analysis.response_times import resolver_medians

    store, warehouse = parity
    assert availability_report(warehouse).describe() == availability_report(
        store
    ).describe()
    assert resolver_medians(warehouse) == resolver_medians(store)


# ---------------------------------------------------------------------------
# Aggregates: online == recomputed, and the served tables match scans
# ---------------------------------------------------------------------------


def test_persisted_aggregates_equal_full_recomputation(tmp_path):
    records = make_fleet(60)
    warehouse = Warehouse.from_records(records, tmp_path / "wh", segment_records=16)
    persisted = warehouse.aggregates()
    recomputed = AggregateBook.from_records(sorted(records, key=merge_key))
    assert persisted.to_dict() == recomputed.to_dict()


def test_availability_from_aggregates_equals_scan(tmp_path):
    from repro.analysis.availability import (
        availability_report,
        per_resolver_availability,
    )

    records = make_fleet(60)
    store = ResultStore()
    store.extend(records)
    warehouse = Warehouse.from_records(records, tmp_path / "wh", segment_records=16)
    book = warehouse.aggregates()

    from_scan = availability_report(store)
    from_book = availability_from_aggregates(book)
    assert from_book.successes == from_scan.successes
    assert from_book.errors == from_scan.errors
    assert from_book.error_breakdown == from_scan.error_breakdown
    assert (
        from_book.connection_establishment_share
        == from_scan.connection_establishment_share
    )
    assert per_resolver_availability_from_aggregates(
        book
    ) == per_resolver_availability(store)


def test_response_time_summaries_equal_scan_built_histograms(tmp_path):
    from repro.obs.metrics import Histogram

    records = make_fleet(60)
    warehouse = Warehouse.from_records(records, tmp_path / "wh", segment_records=16)
    book = warehouse.aggregates()
    summaries = response_time_summaries(book)

    for resolver, summary in summaries.items():
        scan = Histogram(book.bounds)
        for r in records:
            if (
                r.kind == "dns_query"
                and r.resolver == resolver
                and r.success
                and r.duration_ms is not None
            ):
                scan.observe(r.duration_ms)
        assert summary.count == scan.count
        assert summary.mean_ms == scan.mean
        assert summary.p50_ms == scan.p50
        assert summary.p95_ms == scan.p95
        assert summary.p99_ms == scan.p99


# ---------------------------------------------------------------------------
# Canonical builds: partition-independent bytes
# ---------------------------------------------------------------------------


def _tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_canonical_build_is_partition_independent(tmp_path):
    records = make_fleet(50)

    # Partition A: one staging warehouse holding everything.
    sink = StoreSink(Warehouse(tmp_path / "a0"), segment_records=7)
    sink.extend(records)
    whole = sink.close()
    merged_a = Warehouse.build_canonical([whole], tmp_path / "A", segment_records=12)

    # Partition B: three interleaved staging warehouses.
    parts = []
    for k in range(3):
        sink = StoreSink(Warehouse(tmp_path / f"b{k}"), segment_records=5)
        sink.extend(records[k::3])
        parts.append(sink.close())
    merged_b = Warehouse.build_canonical(parts, tmp_path / "B", segment_records=12)

    assert _tree_bytes(merged_a.root) == _tree_bytes(merged_b.root)
    assert merged_a.manifest()["canonical"] is True
    ordered = [r.to_json() for r in merged_a.iter_sorted()]
    assert ordered == [r.to_json() for r in sorted(records, key=merge_key)]


def test_canonical_build_refuses_existing_destination(tmp_path):
    records = make_fleet(10)
    Warehouse.from_records(records, tmp_path / "wh")
    with pytest.raises(StoreError):
        Warehouse.from_records(records, tmp_path / "wh")


def test_compact_preserves_records_and_canonicalizes(tmp_path):
    records = make_fleet(40)
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=6)
    sink.extend(records)
    warehouse = sink.close()
    assert warehouse.manifest()["canonical"] is False

    warehouse.compact(segment_records=16)
    assert warehouse.manifest()["canonical"] is True
    assert [r.to_json() for r in warehouse.iter_sorted()] == [
        r.to_json() for r in sorted(records, key=merge_key)
    ]
    # Compacting a canonical warehouse is byte-stable.
    before = _tree_bytes(warehouse.root)
    warehouse.compact()
    assert _tree_bytes(warehouse.root) == before


def test_open_missing_warehouse_raises(tmp_path):
    with pytest.raises(StoreError):
        Warehouse.open(tmp_path / "nope")


# ---------------------------------------------------------------------------
# Torn segments: a sealed segment that changed is refused, never read short
# ---------------------------------------------------------------------------


def _cut_at_line_boundary(data: bytes) -> bytes:
    return b"".join(data.splitlines(keepends=True)[:2])


def _cut_mid_line(data: bytes) -> bytes:
    return data[:-30]


def _append_a_whole_line(data: bytes) -> bytes:
    return data + data.splitlines(keepends=True)[0]


def _append_garbage(data: bytes) -> bytes:
    return data + b"\xff\xfe not utf-8"


_DAMAGE = [_cut_at_line_boundary, _cut_mid_line, _append_a_whole_line, _append_garbage]

_READ_PATHS = {
    "iter_records": lambda wh, tmp: list(wh.iter_records()),
    "iter_sorted": lambda wh, tmp: list(wh.iter_sorted()),
    "filter": lambda wh, tmp: wh.filter(vantage="v1"),
    "build_canonical": lambda wh, tmp: Warehouse.build_canonical([wh], tmp / "dest"),
}


@pytest.mark.parametrize("read", sorted(_READ_PATHS))
@pytest.mark.parametrize("damage", _DAMAGE, ids=lambda fn: fn.__name__.strip("_"))
def test_torn_segment_is_refused_on_every_read_path(tmp_path, damage, read):
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=6)
    sink.extend(make_fleet(12))
    warehouse = sink.close()
    index = warehouse.segment_indexes()[1]
    segment = warehouse.segments_dir / index.segment_filename
    segment.write_bytes(damage(segment.read_bytes()))
    torn_size = segment.stat().st_size
    assert torn_size != index.byte_size

    # The manifest still promises every record ...
    assert len(warehouse) == 12
    # ... so no reader may hand back fewer without saying so.
    with pytest.raises(ResultsFormatError) as excinfo:
        _READ_PATHS[read](warehouse, tmp_path)
    message = str(excinfo.value)
    assert segment.name in message
    assert f"{torn_size} bytes" in message and str(index.byte_size) in message
    assert not Warehouse(tmp_path / "dest").exists()


def test_segment_of_the_sealed_size_but_fewer_lines_raises_at_scan_end(tmp_path):
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=8)
    sink.extend(make_fleet(4))
    warehouse = sink.close()
    segment = warehouse.segments_dir / warehouse.manifest()["segments"][0]
    lines = segment.read_bytes().splitlines(keepends=True)
    lines[1] = b" " * (len(lines[1]) - 1) + b"\n"  # same size, one record gone
    segment.write_bytes(b"".join(lines))

    with pytest.raises(ResultsFormatError) as excinfo:
        list(warehouse.iter_records())
    message = str(excinfo.value)
    assert segment.name in message
    assert "3 records" in message and "says 4" in message


def test_pushdown_read_of_a_corrupt_line_names_the_offset(tmp_path):
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=8)
    sink.extend(make_fleet(4))
    warehouse = sink.close()
    index = warehouse.segment_indexes()[0]
    segment = warehouse.segments_dir / index.segment_filename
    key, offsets = next(iter(index.groups.items()))
    data = bytearray(segment.read_bytes())
    data[offsets[0]] = ord("x")  # same size: only parsing can notice
    segment.write_bytes(bytes(data))

    with pytest.raises(ResultsFormatError) as excinfo:
        warehouse.filter(vantage=key[0], resolver=key[1], transport=key[2])
    message = str(excinfo.value)
    assert segment.name in message
    assert f"byte offset {offsets[0]}" in message


@pytest.mark.parametrize("read", sorted(_READ_PATHS) + ["correlate --input"])
def test_non_utf8_byte_in_a_same_size_segment_is_a_format_error(tmp_path, read, capsys):
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=6)
    sink.extend(make_fleet(12))
    warehouse = sink.close()
    index = warehouse.segment_indexes()[1]
    segment = warehouse.segments_dir / index.segment_filename
    offset = min(
        offsets[0] for key, offsets in index.groups.items() if key[0] == "v1"
    )
    data = bytearray(segment.read_bytes())
    data[offset + 5] = 0xFF  # same size, and every line still ends where it did
    segment.write_bytes(bytes(data))

    if read == "correlate --input":
        from repro.cli import main

        assert main(["correlate", "--input", str(warehouse.root)]) == 2
        message = capsys.readouterr().err
        assert message.startswith("repro-dns correlate: ")
    else:
        with pytest.raises(ResultsFormatError) as excinfo:
            _READ_PATHS[read](warehouse, tmp_path)
        message = str(excinfo.value)
    assert segment.name in message and "not UTF-8" in message
    # The pushdown read knows the line; a scan decodes a block at a time.
    assert (f"byte offset {offset}" if read == "filter" else "after line 1") in message
    assert not Warehouse(tmp_path / "dest").exists()


def test_missing_segment_file_is_a_named_error(tmp_path):
    warehouse = Warehouse.from_records(make_fleet(4), tmp_path / "wh")
    (warehouse.segments_dir / warehouse.manifest()["segments"][0]).unlink()
    with pytest.raises(ResultsFormatError, match="seg-000000"):
        list(warehouse.iter_records())


# ---------------------------------------------------------------------------
# Torn metadata: a damaged manifest, sidecar or aggregate book is a named
# error naming the file, never UnicodeDecodeError / TypeError
# ---------------------------------------------------------------------------

_METADATA_FILES = {
    "MANIFEST.json": lambda wh: wh.manifest_path,
    "sidecar": lambda wh: sorted(wh.segments_dir.glob("*.idx.json"))[1],
    "aggregates.json": lambda wh: wh.aggregates_path,
}

_METADATA_DAMAGE = {
    "non_utf8_byte": lambda data: data[:10] + b"\xff" + data[11:],
    "truncated_mid_token": lambda data: data[: len(data) // 2],
    "not_an_object": lambda data: b"[1]",
}

_METADATA_READ_PATHS = {**_READ_PATHS, "aggregates": lambda wh, tmp: wh.aggregates()}

#: Which read path opens which file: scans and merges read the manifest and
#: every sidecar, ``aggregates()`` reads the book and nothing else.
_METADATA_CASES = [
    (file, read)
    for file in sorted(_METADATA_FILES)
    for read in sorted(_METADATA_READ_PATHS)
    if (file == "aggregates.json") == (read == "aggregates")
]


@pytest.mark.parametrize("damage", sorted(_METADATA_DAMAGE))
@pytest.mark.parametrize("file,read", _METADATA_CASES)
def test_torn_metadata_is_a_format_error_naming_the_file(tmp_path, file, read, damage):
    sink = StoreSink(Warehouse(tmp_path / "staging"), segment_records=6)
    sink.extend(make_fleet(12))
    if file == "aggregates.json":
        # Only a canonical build writes the book.
        warehouse = Warehouse.build_canonical([sink.close()], tmp_path / "wh", 6)
    else:
        warehouse = sink.close()
    path = _METADATA_FILES[file](warehouse)
    path.write_bytes(_METADATA_DAMAGE[damage](path.read_bytes()))

    with pytest.raises(ResultsFormatError) as excinfo:
        _METADATA_READ_PATHS[read](warehouse, tmp_path)
    assert path.name in str(excinfo.value)
    assert not Warehouse(tmp_path / "dest").exists()


def test_store_summarize_on_a_flipped_aggregate_byte_exits_2(tmp_path, capsys):
    from repro.cli import main

    warehouse = Warehouse.from_records(make_fleet(12), tmp_path / "wh")
    data = bytearray(warehouse.aggregates_path.read_bytes())
    data[len(data) // 2] = 0xFF
    warehouse.aggregates_path.write_bytes(bytes(data))
    assert main(["store", "summarize", str(warehouse.root)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("repro-dns store: ")
    assert "aggregates.json" in err and err.count("\n") == 1


def test_a_staging_warehouse_has_no_book_until_compacted(tmp_path, capsys):
    from repro.cli import main

    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=6)
    sink.extend(make_fleet(40))
    warehouse = sink.close()
    assert not warehouse.aggregates_path.exists()
    assert main(["store", "summarize", str(warehouse.root)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("repro-dns store: ")
    assert "aggregates.json" in err and err.count("\n") == 1

    assert main(["store", "compact", str(warehouse.root)]) == 0
    assert (
        warehouse.aggregates().to_dict()
        == AggregateBook.from_records(warehouse.iter_sorted()).to_dict()
    )


# ---------------------------------------------------------------------------
# Metadata format: compact JSON now, the indented form still read
# ---------------------------------------------------------------------------


def _metadata_paths(warehouse):
    return [warehouse.aggregates_path, *sorted(warehouse.segments_dir.glob("*.idx.json"))]


def _rewrite_metadata_indented(warehouse):
    """Dump sidecars and aggregates the way the store did before it went compact."""
    book = warehouse.aggregates()
    warehouse.aggregates_path.write_text(
        json.dumps(book.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    for index in warehouse.segment_indexes():
        (warehouse.segments_dir / index.index_filename).write_text(
            json.dumps(index.to_dict(), indent=2, sort_keys=True) + "\n"
        )


def _served_tables(warehouse):
    book = warehouse.aggregates()
    return (
        availability_from_aggregates(book),
        per_resolver_availability_from_aggregates(book),
        response_time_summaries(book),
    )


def test_indented_metadata_of_an_older_warehouse_still_serves(tmp_path):
    records = make_fleet(40)
    sink = StoreSink(Warehouse(tmp_path / "staging"), segment_records=7)
    sink.extend(records)
    # Only a canonical build writes the book.
    new = Warehouse.build_canonical([sink.close()], tmp_path / "new", 7)
    shutil.copytree(new.root, tmp_path / "old")
    old = Warehouse.open(tmp_path / "old")
    _rewrite_metadata_indented(old)

    # Another spelling of the same content: every file differs, none parses
    # differently, and re-indenting the new one gives the old one back.
    for new_path, old_path in zip(_metadata_paths(new), _metadata_paths(old)):
        new_text, old_text = new_path.read_text(), old_path.read_text()
        assert new_text != old_text
        assert new_text.count("\n") == 1 and " " not in new_text
        assert json.loads(new_text) == json.loads(old_text)
        assert json.dumps(json.loads(new_text), indent=2, sort_keys=True) + "\n" == old_text

    assert len(old) == len(new) == 40
    assert [r.to_json() for r in old.iter_records()] == [
        r.to_json() for r in new.iter_records()
    ]
    assert [r.to_json() for r in old.iter_sorted()] == [
        r.to_json() for r in new.iter_sorted()
    ]
    old_stats, new_stats = {}, {}
    assert [
        r.to_json()
        for r in old.iter_records(vantage="v1", resolver="r2", scan_stats=old_stats)
    ] == [
        r.to_json()
        for r in new.iter_records(vantage="v1", resolver="r2", scan_stats=new_stats)
    ]
    assert old_stats == new_stats
    assert old.info() == dict(new.info(), root=str(old.root))
    assert _served_tables(old) == _served_tables(new)
    assert (
        old.aggregates().to_dict()
        == AggregateBook.from_records(old.iter_records()).to_dict()
    )

    # Compacting the older warehouse lands exactly where a fresh build of
    # the same records does, metadata included.
    old.compact(segment_records=16)
    fresh = Warehouse.from_records(records, tmp_path / "fresh", segment_records=16)
    assert _tree_bytes(old.root) == _tree_bytes(fresh.root)


def test_aggregate_book_with_a_miscounted_histogram_is_a_format_error(tmp_path):
    warehouse = Warehouse.from_records(make_fleet(10), tmp_path / "wh")
    data = json.loads(warehouse.aggregates_path.read_text())
    data["groups"][0]["histogram"]["counts"].append(0)
    warehouse.aggregates_path.write_text(json.dumps(data))
    with pytest.raises(ResultsFormatError, match="counts"):
        warehouse.aggregates()


# ---------------------------------------------------------------------------
# CLI integration: store subcommand + streamed correlate/drift inputs
# ---------------------------------------------------------------------------


def test_cli_store_info_and_summarize(tmp_path, capsys):
    from repro.cli import main

    records = make_fleet(40)
    Warehouse.from_records(records, tmp_path / "wh", segment_records=16)
    assert main(["store", "info", str(tmp_path / "wh")]) == 0
    out = capsys.readouterr().out
    assert "40 records" in out
    assert "canonical" in out

    assert main(["store", "summarize", str(tmp_path / "wh")]) == 0
    out = capsys.readouterr().out
    assert "served from aggregates" in out
    assert "r1" in out


def test_cli_store_compact(tmp_path, capsys):
    from repro.cli import main

    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=6)
    sink.extend(make_fleet(40))
    sink.close()
    assert main(["store", "compact", str(tmp_path / "wh")]) == 0
    assert "canonical=True" in capsys.readouterr().out


def test_cli_correlate_accepts_warehouse_directory(tmp_path, capsys):
    from repro.cli import main

    # Give every resolver enough pings and DNS samples for correlation.
    records = []
    i = 0
    for resolver in ("r1", "r2", "r3", "r4"):
        for _ in range(6):
            records.append(make_record(i, "v1", resolver, "dns_query", "doh"))
            records.append(make_record(i + 1, "v1", resolver, "ping", "icmp"))
            i += 2
    Warehouse.from_records(records, tmp_path / "wh", segment_records=16)
    assert main(["correlate", "--input", str(tmp_path / "wh")]) == 0
    assert "v1:" in capsys.readouterr().out


def test_cli_drift_accepts_warehouse_directory(tmp_path, capsys):
    from repro.cli import main

    records = []
    for j, campaign in enumerate(("base", "later")):
        for i in range(24):
            record = make_record(i, "v1", f"r{i % 3 + 1}", campaign=campaign)
            record.started_at_ms += j * 1_000_000.0
            records.append(record)
    Warehouse.from_records(records, tmp_path / "wh", segment_records=16)
    assert main(["drift", "--input", str(tmp_path / "wh")]) == 0
    assert "later vs base" in capsys.readouterr().out
