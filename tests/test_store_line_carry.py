"""The canonical merge writes the line it read.

A record is serialized when it first goes to disk and at no other time:
``Warehouse.iter_sorted`` leaves each record's stored line on it
(``MeasurementRecord.stored_line``, not a dataclass field) and
``Warehouse.build_canonical`` takes that line off and writes it.  These
tests pin what makes that safe -- the carried line *is* ``to_json()`` for
everything ``SegmentWriter`` sealed, only ``iter_sorted`` sets it, a source
is still just ``iter_sorted()`` -- and the two failure paths the merge now
leans on: a build that fails leaves nothing behind, and a merge that comes
out short says so.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import pickle
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.parallel.runner
from repro.cli import main
from repro.core.results import MeasurementRecord, ResultStore
from repro.errors import ResultsFormatError, StoreError
from repro.experiments.campaigns import ec2_campaign_config, run_campaign_parallel
from repro.parallel import ShardResult, merge_shard_warehouses
from repro.store import SegmentIndex, SegmentWriter, StoreSink, Warehouse, merge_key

from tests.test_store_warehouse import _tree_bytes, make_fleet, make_record

VANTAGES = ("ec2-ohio", "ec2-seoul")
RESOLVERS = ("dns.google", "dns.quad9.net")


def _staging(records, root, segment_records) -> Warehouse:
    sink = StoreSink(Warehouse(root), segment_records=segment_records)
    sink.extend(records)
    return sink.close()


def _two_shards(records, tmp_path, segment_records) -> list:
    """What two children hand the merge: ``records`` dealt between two stagings."""
    return [
        ShardResult(
            shard_index=i, shard_key=f"part-{i}", records=[], spans=[],
            metrics_state=None, wall_seconds=0.0, record_count=len(records[i::2]),
            warehouse_path=str(
                _staging(records[i::2], tmp_path / f"s{i}", segment_records).root
            ),
        )
        for i in range(2)
    ]


@pytest.fixture
def encodes(monkeypatch):
    """Every ``MeasurementRecord.to_json`` call made while the test runs."""
    calls = []
    real = MeasurementRecord.to_json
    monkeypatch.setattr(
        MeasurementRecord, "to_json", lambda self: calls.append(1) or real(self)
    )
    return calls


# ---------------------------------------------------------------------------
# (a) The carried line is the record's line
# ---------------------------------------------------------------------------

_names = st.one_of(
    st.text(max_size=12),  # full Unicode, control characters included
    st.sampled_from(
        ['"', "\\", 'a"b\\c', "  ", "\U0001f600", "café", "\x00\x1f\x7f", " x "]
    ),
)
_ms = st.one_of(
    st.floats(),  # NaN, both infinities, subnormals
    st.sampled_from([0.1 + 0.2, 1234567.8901234567, 2.0 / 3.0, 5e-324, 1e22, -0.0]),
)
_opt_ms = st.one_of(st.none(), _ms)
_opt_int = st.one_of(st.none(), st.integers(0, 2**40))

_sealed_records = st.builds(
    MeasurementRecord,
    campaign=_names,
    vantage=_names,
    resolver=_names,
    kind=st.sampled_from(["dns_query", "ping", "dns_query_attempt"]),
    transport=st.sampled_from(["doh", "dot", "do53", "doq", "doh3", "icmp"]),
    domain=st.one_of(st.none(), _names),
    round_index=st.integers(0, 2**40),
    started_at_ms=_ms,
    duration_ms=_opt_ms,
    success=st.booleans(),
    error_class=st.one_of(st.none(), _names),
    rcode=_opt_int,
    http_status=_opt_int,
    http_version=st.one_of(st.none(), st.sampled_from(["1.1", "2", "3"])),
    tls_version=st.one_of(st.none(), st.sampled_from(["1.2", "1.3"])),
    response_size=_opt_int,
    connection_reused=st.booleans(),
    attempts=st.integers(1, 9),
    connect_ms=_opt_ms,
    tls_ms=_opt_ms,
    query_ms=_opt_ms,
    failed_phase=st.one_of(st.none(), st.sampled_from(["connect", "tls", "query"])),
    response_wire=st.one_of(st.none(), st.binary(max_size=24).map(bytes.hex)),
    # Drawn independently: one session field set without the other.
    session_state=st.one_of(st.none(), st.sampled_from(["cold", "warm", "zero_rtt"])),
    session_policy=st.one_of(st.none(), st.sampled_from(["cold", "keep-alive"])),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(_sealed_records, min_size=1, max_size=6))
def test_carried_line_is_to_json_for_whatever_a_writer_sealed(records):
    with tempfile.TemporaryDirectory() as tmp:
        warehouse = Warehouse(Path(tmp) / "wh")
        writer = SegmentWriter(warehouse.segments_dir, "seg-000000")
        for record in records:
            writer.append(record)
        warehouse.write_manifest([writer.close()], len(records), canonical=False)
        # One segment: the merge hands its lines back in file order.
        carried = list(warehouse.iter_sorted())
    assert [r.stored_line for r in carried] == [r.to_json() for r in records]
    # ... and it is what the parsed record itself would encode to.
    assert [r.stored_line for r in carried] == [r.to_json() for r in carried]


# ---------------------------------------------------------------------------
# (b) A source is iter_sorted() and nothing else
# ---------------------------------------------------------------------------


class Relaying:
    """The harness's shape: ``iter_sorted`` only, the stream inside its own generator."""

    def __init__(self, warehouse: Warehouse) -> None:
        self._warehouse = warehouse

    def iter_sorted(self):
        def relay(stream):
            for record in stream:
                yield record

        return relay(self._warehouse.iter_sorted())


class Lineless(Relaying):
    """Yields equal records that carry no line."""

    def iter_sorted(self):
        return (dataclasses.replace(r) for r in self._warehouse.iter_sorted())


@pytest.mark.parametrize("segment_records", [5, 7, 12])
@pytest.mark.parametrize("sources", [1, 3])
def test_custom_sources_build_the_same_tree(tmp_path, encodes, sources, segment_records):
    records = make_fleet(50)
    stagings = [
        _staging(records[part::sources], tmp_path / f"staging-{part}", segment_records)
        for part in range(sources)
    ]
    assert len(encodes) == len(records)
    plain = Warehouse.build_canonical(stagings, tmp_path / "plain", segment_records)
    relayed = Warehouse.build_canonical(
        [Relaying(s) for s in stagings], tmp_path / "relayed", segment_records
    )
    assert len(encodes) == len(records)  # both wrote the lines they read
    lineless = Warehouse.build_canonical(
        [Lineless(s) for s in stagings], tmp_path / "lineless", segment_records
    )
    assert len(encodes) == 2 * len(records)  # no line: encoded, as before
    fresh = Warehouse.from_records(records, tmp_path / "fresh", segment_records)
    reference = _tree_bytes(plain.root)
    assert len(reference) == 2 + 2 * -(-len(records) // segment_records)
    for other in (relayed, lineless, fresh):
        assert _tree_bytes(other.root) == reference


# ---------------------------------------------------------------------------
# (c) Only iter_sorted sets it, only the build takes it, and only once
# ---------------------------------------------------------------------------


def test_nothing_but_iter_sorted_leaves_a_line(tmp_path):
    records = make_fleet(24)
    staging = _staging(records, tmp_path / "staging", 8)
    line = records[0].to_json()
    without = [
        *staging.iter_records(),
        *staging.iter_records(vantage="v1", resolver="r1"),  # pushdown
        *staging,
        *staging.filter(kind="ping"),
        MeasurementRecord.parse_line(line),
        MeasurementRecord.from_json(line),
        pickle.loads(pickle.dumps(records[0])),
    ]
    assert len(without) > 3 * len(records) // 2
    for record in without:
        assert record.stored_line is None and "stored_line" not in vars(record)

    carrying = next(iter(staging.iter_sorted()))
    assert carrying.stored_line == carrying.to_json()
    twin = MeasurementRecord.parse_line(carrying.stored_line)
    # Not a field: nothing that walks the fields sees it.
    assert "stored_line" not in {f.name for f in dataclasses.fields(carrying)}
    assert carrying == twin and repr(carrying) == repr(twin)
    assert dataclasses.asdict(carrying) == dataclasses.asdict(twin)
    assert dataclasses.replace(carrying).stored_line is None
    assert "stored_line" not in carrying.to_json()


class Kept:
    """A source that hands out the same record objects every time."""

    def __init__(self, records) -> None:
        self.records = list(records)

    def iter_sorted(self):
        return iter(self.records)


def test_a_line_is_taken_off_the_record_and_written_once(tmp_path, encodes):
    records = make_fleet(30)
    kept = Kept(_staging(records, tmp_path / "staging", 8).iter_sorted())
    del encodes[:]
    assert all(record.stored_line for record in kept.records)
    first = Warehouse.build_canonical([kept], tmp_path / "first", 7)
    assert encodes == []
    assert not any("stored_line" in vars(record) for record in kept.records)
    second = Warehouse.build_canonical([kept], tmp_path / "second", 7)
    assert len(encodes) == len(records)
    assert _tree_bytes(first.root) == _tree_bytes(second.root)


def test_compact_and_shard_merge_encode_nothing(tmp_path, encodes):
    records = make_fleet(40)
    results = _two_shards(records, tmp_path, 6)
    del encodes[:]
    merged = merge_shard_warehouses(results, tmp_path / "merged", segment_records=9)
    merged.compact(segment_records=4)
    assert encodes == []
    assert _tree_bytes(merged.root) == _tree_bytes(
        Warehouse.from_records(records, tmp_path / "fresh", 4).root
    )


@pytest.mark.parametrize("plan", [{"shards": 1}, {"shard_by": "vantage"}, {"workers": 2}])
def test_a_campaign_record_is_encoded_once_on_its_way_to_the_warehouse(
    tmp_path, encodes, plan
):
    run = run_campaign_parallel(
        ec2_campaign_config(rounds=1, seed=5), VANTAGES, RESOLVERS, world_seed=5,
        store_dir=str(tmp_path / "wh"), segment_records=6, **plan,
    )
    assert run.record_count == 16
    # A pool's children encode in their own processes; this one merged.
    assert len(encodes) == (0 if run.pool_used else run.record_count)


# ---------------------------------------------------------------------------
# (d) Ties: line order, whichever source held which
# ---------------------------------------------------------------------------


def test_equal_keys_land_in_line_order_and_duplicates_survive(tmp_path, encodes):
    base = make_record(3)
    slower = dataclasses.replace(base, duration_ms=base.duration_ms + 1.0)
    refused = dataclasses.replace(base, success=False, error_class="refused")
    assert len({ResultStore.canonical_key(r) for r in (base, slower, refused)}) == 1
    tied = [base, slower, refused, dataclasses.replace(base)]  # one exact duplicate
    others = [make_record(i) for i in (0, 1, 2, 4, 5)]
    expected = sorted(r.to_json() for r in tied)
    trees = []
    for turn in range(len(tied)):
        arrival = tied[turn:] + tied[:turn]
        root = tmp_path / f"turn-{turn}"
        stagings = [
            _staging([record] + others[i : i + 2], root / f"s{i}", 2)
            for i, record in enumerate(arrival)
        ]
        del encodes[:]
        warehouse = Warehouse.build_canonical(stagings, root / "wh", 3)
        assert encodes == []  # carried lines break the tie
        lines = [r.to_json() for r in warehouse.iter_records()]
        assert [line for line in lines if line in expected] == expected
        assert len(lines) == len(tied) + 2 * len(tied)
        trees.append(_tree_bytes(warehouse.root))
    # others[i : i + 2] differs per slot, not per turn: one multiset, one tree.
    assert all(tree == trees[0] for tree in trees)
    # A record with a line and one without still compare as the lines they
    # will be written as.
    carried = next(iter(stagings[0].iter_sorted()))
    assert merge_key(carried) == merge_key(dataclasses.replace(carried))


# ---------------------------------------------------------------------------
# A failed build leaves nothing behind
# ---------------------------------------------------------------------------


def _tear(warehouse: Warehouse) -> tuple:
    """Overwrite 49 bytes of the last segment's last line, size unchanged."""
    path = warehouse.segments_dir / warehouse.manifest()["segments"][-1]
    whole = path.read_bytes()
    path.write_bytes(whole[:-60] + b"#" * 49 + whole[-11:])
    return path, whole


def _open_resource_warnings(caught) -> list:
    return [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_failed_build_leaves_no_half_warehouse_and_no_open_file(tmp_path):
    # Arrival order is canonical order, so staging segment k holds records
    # 10k .. 10k+9 and the merge is 59 records in when it meets the torn one:
    # five sealed segments and a sixth still open.
    records = sorted(make_fleet(60), key=merge_key)
    staging = _staging(records, tmp_path / "staging", 10)
    torn, whole = _tear(staging)
    dest = tmp_path / "dest"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ResultsFormatError) as excinfo:
            Warehouse.build_canonical([staging], dest, 10)
        message = str(excinfo.value)
        del excinfo
        gc.collect()
    assert str(torn) in message and "line 10" in message
    assert _open_resource_warnings(caught) == []
    assert not (dest / "segments").exists()
    assert [p.name for p in dest.rglob("*")] == []
    # Repaired, a second build into the same place is a fresh build.
    torn.write_bytes(whole)
    again = Warehouse.build_canonical([staging], dest, 10)
    fresh = Warehouse.build_canonical([staging], tmp_path / "fresh", 10)
    assert _tree_bytes(again.root) == _tree_bytes(fresh.root)
    assert len(again) == len(records)


def test_failed_compact_leaves_the_warehouse_and_no_temp_tree(tmp_path):
    records = sorted(make_fleet(60), key=merge_key)
    staging = _staging(records, tmp_path / "wh", 10)
    before = _tree_bytes(staging.root)
    torn, whole = _tear(staging)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ResultsFormatError):
            staging.compact(segment_records=7)
        gc.collect()
    assert _open_resource_warnings(caught) == []
    assert [p.name for p in tmp_path.iterdir()] == ["wh"]
    torn.write_bytes(whole)
    assert _tree_bytes(staging.root) == before
    staging.compact(segment_records=7)
    assert [r.to_json() for r in staging.iter_records()] == [r.to_json() for r in records]


def _meddling_merge(monkeypatch, meddle):
    """Let ``meddle(staging_warehouse)`` at the first shard's staging before the merge."""
    real = repro.parallel.runner.merge_shard_warehouses

    def merge(results, dest, **options):
        first = min(results, key=lambda result: result.shard_index)
        meddle(Warehouse.open(first.warehouse_path))
        return real(results, dest, **options)

    monkeypatch.setattr(repro.parallel.runner, "merge_shard_warehouses", merge)


def test_failed_pooled_merge_leaves_an_empty_store_dir(tmp_path, monkeypatch):
    _meddling_merge(monkeypatch, _tear)
    store_dir = tmp_path / "wh"
    with pytest.raises(ResultsFormatError):
        run_campaign_parallel(
            ec2_campaign_config(rounds=1, seed=5), VANTAGES, RESOLVERS, world_seed=5,
            shard_by="vantage", store_dir=str(store_dir), segment_records=3,
        )
    assert [p.name for p in store_dir.rglob("*")] == []
    # ... so the next run into it is a run into a fresh directory.
    monkeypatch.undo()
    run = run_campaign_parallel(
        ec2_campaign_config(rounds=1, seed=5), VANTAGES, RESOLVERS, world_seed=5,
        shard_by="vantage", store_dir=str(store_dir), segment_records=3,
    )
    assert sorted(p.name for p in store_dir.iterdir()) == [
        "MANIFEST.json", "aggregates.json", "segments",
    ]
    assert len(list((store_dir / "segments").glob("seg-*.jsonl"))) == -(-run.record_count // 3)


# ---------------------------------------------------------------------------
# A short merge is not silent
# ---------------------------------------------------------------------------


def _forget_last_segment(staging: Warehouse) -> None:
    """The manifest a child would leave had it listed one segment fewer."""
    manifest = staging.manifest()
    name = manifest["segments"].pop()
    index = SegmentIndex.load(staging.segments_dir / name.replace(".jsonl", ".idx.json"))
    manifest["records"] -= index.records
    staging.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def test_short_merge_raises_and_keeps_no_short_warehouse(tmp_path):
    results = _two_shards(make_fleet(40), tmp_path, 6)
    _forget_last_segment(Warehouse.open(results[1].warehouse_path))
    dest = tmp_path / "merged"
    with pytest.raises(StoreError) as excinfo:
        merge_shard_warehouses(results, dest, segment_records=8)
    message = str(excinfo.value)
    # 20 records in segments of 6: the forgotten one held the last 2.
    assert "38 records" in message and "40" in message and str(dest) in message
    assert "part-0" in message and "part-1" in message
    assert [p.name for p in dest.rglob("*")] == []
    assert Path(results[0].warehouse_path).exists()  # evidence stays


def test_short_merge_through_the_cli_is_one_line_and_exit_2(tmp_path, monkeypatch, capsys):
    _meddling_merge(monkeypatch, _forget_last_segment)
    store = tmp_path / "wh"
    assert main([
        "measure", "--resolver", *RESOLVERS, "--vantage", *VANTAGES, "--rounds", "1",
        "--seed", "5", "--workers", "2", "--store", str(store), "--segment-records", "3",
    ]) == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith(f"repro-dns measure: merged warehouse at {store} holds ")
    assert "16" in last
    assert [p.name for p in store.rglob("*")] == []
