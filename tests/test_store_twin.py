"""A staging segment's binary twin: the merge builds records, it decodes no JSON.

``StoreSink`` writes, beside each segment it seals, a twin holding the
field tuples of its lines (``repro.store.segment.TwinWriter``), and a full
scan of a segment that has one builds its records from it.  These tests
pin what makes that safe: a record built from the twin is the record
``parse_line`` builds from the line, whatever a field holds; a canonical
build writes the same tree with or without twins; a damaged twin is a
named error that leaves no half-built warehouse; the merge holds no file
open between records and one chunk decoded per segment; and no twin
outlives its staging warehouse.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import shutil
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.results import MeasurementRecord
from repro.errors import ResultsFormatError
from repro.experiments.campaigns import ec2_campaign_config
from repro.parallel import run_campaigns
from repro.store import StoreSink, Warehouse, segment
from repro.store.segment import TWIN_SUFFIX, TwinWriter, twin_path

from tests.test_store_warehouse import _tree_bytes, make_fleet


class Label(str):
    """A ``str`` subclass: ``json`` writes its text and reads back a ``str``."""


class Count(int):
    """An ``int`` subclass: ``json`` reads back an ``int``."""


class Rcode(enum.IntEnum):
    NOERROR = 0
    SERVFAIL = 2


def _staging(records, root, segment_records) -> Warehouse:
    sink = StoreSink(Warehouse(root), segment_records=segment_records)
    sink.extend(records)
    return sink.close()


def _value_of(value) -> tuple:
    """Type and value, bit for bit: NaN's sign and payload, ``-0.0``, 1 or True."""
    if type(value) is float:
        return float, struct.pack("<d", value)
    return type(value), repr(value)


def _same_record(a: MeasurementRecord, b: MeasurementRecord) -> bool:
    return [_value_of(getattr(a, f.name)) for f in dataclasses.fields(a)] == [
        _value_of(getattr(b, f.name)) for f in dataclasses.fields(b)
    ]


@pytest.fixture
def parses(monkeypatch):
    """Every ``MeasurementRecord.parse_line`` call made while the test runs."""
    calls = []
    real = MeasurementRecord.parse_line.__func__
    monkeypatch.setattr(
        MeasurementRecord,
        "parse_line",
        classmethod(lambda cls, *args, **kw: calls.append(1) or real(cls, *args, **kw)),
    )
    return calls


# ---------------------------------------------------------------------------
# A record built from the twin is the record parse_line builds
# ---------------------------------------------------------------------------

NEGATIVE_NAN = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_0000_0001))[0]
#: Values ``json`` reads back as something else: a record holding one is
#: built from ``parse_line`` when the sink writes its twin.
ODD_VALUES = [
    float("nan"),
    NEGATIVE_NAN,
    "\ud83d\ude00",  # a surrogate pair: json reads back one character
    Label("dns.google"),
    Count(7),
    Rcode.SERVFAIL,
    ["a", ("b", 1.5)],
    {"k": (1, 2)},
    {1: "x"},  # json's keys are strings
]


def _rarely(common, odd):
    """``common`` most of the time, so a chunk often keeps its fast path."""
    return st.one_of(*[common] * 6, odd)


_odd = st.sampled_from(ODD_VALUES)
#: What the canonical key and the aggregate book read must still sort and
#: hash: text, or a str subclass.
_key_text = _rarely(
    st.one_of(
        st.text(max_size=10),  # full Unicode, control characters included
        st.sampled_from(["café", "\U0001f600", "NaN", "[x]", "{", '"\\', "\\ud83d"]),
    ),
    st.one_of(
        st.just("\ud83d\ude00"), st.builds(Label, st.sampled_from(["ec2-ohio", "é"]))
    ),
)
_odd_text = _rarely(_key_text, _odd)
_key_ms = _rarely(
    st.one_of(
        st.floats(allow_nan=False),  # both infinities, subnormals
        st.sampled_from([-0.0, 0.1 + 0.2, 1234567.8901234567, 2.0 / 3.0, 5e-324]),
    ),
    st.floats(),  # NaN of any sign and payload
)
_opt_ms = st.one_of(st.none(), _rarely(_key_ms, _odd))
_int = _rarely(
    st.one_of(st.integers(0, 2**70), st.booleans()),
    st.one_of(st.builds(Count, st.integers(0, 99)), st.sampled_from(list(Rcode))),
)
_opt_int = st.one_of(st.none(), _rarely(_int, _odd))

_records = st.builds(
    MeasurementRecord,
    campaign=_key_text,
    vantage=_key_text,
    resolver=_key_text,
    kind=st.sampled_from(["dns_query", "ping", "dns_query_attempt"]),
    transport=st.sampled_from(["doh", "dot", "do53", "doq", "doh3", "icmp"]),
    domain=st.one_of(st.none(), _key_text),
    round_index=_int,
    started_at_ms=_key_ms,
    duration_ms=st.one_of(st.none(), _key_ms),
    success=st.booleans(),
    error_class=st.one_of(st.none(), _key_text),
    rcode=_opt_int,
    http_status=_opt_int,
    http_version=st.one_of(st.none(), _rarely(st.sampled_from(["1.1", "2", "3"]), _odd)),
    tls_version=st.one_of(st.none(), st.sampled_from(["1.2", "1.3"])),
    response_size=_opt_int,
    connection_reused=st.booleans(),
    attempts=_int,
    # The phase fields: each unset (None), any float, or what json alters.
    connect_ms=_opt_ms,
    tls_ms=_opt_ms,
    query_ms=_opt_ms,
    failed_phase=st.one_of(st.none(), st.sampled_from(["connect", "tls", "query"])),
    response_wire=st.one_of(st.none(), _odd_text, st.binary(max_size=16).map(bytes.hex)),
    # Set or unset, each independently of the other.
    session_state=st.one_of(st.none(), st.sampled_from(["cold", "warm", "zero_rtt"])),
    session_policy=st.one_of(st.none(), st.sampled_from(["cold", "keep-alive"])),
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    records=st.lists(_records, min_size=1, max_size=12),
    segment_records=st.integers(1, 7),
    chunk=st.integers(1, 4),
)
def test_twin_builds_the_record_parse_line_builds(
    records, segment_records, chunk, parses
):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        segment, "TWIN_CHUNK_RECORDS", chunk
    ):
        root = Path(tmp)
        staging = _staging(records, root / "staging", segment_records)
        indexes = staging.segment_indexes()
        assert all(
            twin_path(staging.segments_dir / index.segment_filename).is_file()
            for index in indexes
        )
        del parses[:]
        carried = list(staging.iter_sorted())
        scanned = list(staging.iter_records())
        assert parses == []  # neither read decoded a line
        assert len(carried) == len(scanned) == len(records)
        lines = []
        for index in indexes:
            lines += (
                (staging.segments_dir / index.segment_filename)
                .read_text(encoding="utf-8")
                .splitlines()
            )
        assert sorted(record.stored_line for record in carried) == sorted(lines)
        for record in carried:
            line = record.stored_line
            parsed = MeasurementRecord.parse_line(line)
            assert _same_record(record, parsed)
            assert record.to_json() == line
        for record, line in zip(scanned, lines):
            assert "stored_line" not in vars(record)
            assert _same_record(record, MeasurementRecord.parse_line(line))

        # The same staging with its twins deleted merges to the same tree.
        shutil.copytree(staging.root, root / "plain")
        for twin in (root / "plain").rglob("*" + TWIN_SUFFIX):
            twin.unlink()
        twinned = Warehouse.build_canonical([staging], root / "twinned", 5)
        plain = Warehouse.build_canonical([Warehouse.open(root / "plain")], root / "p", 5)
        assert _tree_bytes(twinned.root) == _tree_bytes(plain.root)
        assert not list(twinned.root.rglob("*" + TWIN_SUFFIX))


#: Fields neither the canonical key nor the aggregate book reads.
_ODD_FIELDS = ["connect_ms", "rcode", "http_version", "response_wire"]


@pytest.mark.parametrize("field", _ODD_FIELDS)
@pytest.mark.parametrize("value", ODD_VALUES, ids=repr)
def test_a_value_json_reads_back_otherwise_is_built_as_json_builds_it(
    tmp_path, parses, field, value
):
    odd = dataclasses.replace(make_fleet(5)[3], **{field: value})
    records = [*make_fleet(4), odd]
    staging = _staging(records, tmp_path / "staging", 8)
    line = odd.to_json()
    del parses[:]
    (built,) = [r for r in staging.iter_sorted() if r.stored_line == line]
    assert parses == []
    assert _same_record(built, MeasurementRecord.parse_line(line))
    assert built.to_json() == line


def test_campaign_like_records_take_the_fast_path(tmp_path, parses):
    records = make_fleet(30)
    staging = _staging(records, tmp_path / "staging", 8)
    # The sink encoded each record once and parsed none: nothing in the
    # fleet is a value json would give back changed.
    assert parses == []
    assert len(list(staging.segments_dir.glob("*" + TWIN_SUFFIX))) == 4
    carried = sorted(staging.iter_sorted(), key=lambda r: r.stored_line)
    assert [r.stored_line for r in carried] == sorted(r.to_json() for r in records)
    assert parses == []


@pytest.mark.parametrize("segment_records", [4096, 100, 7])
def test_campaign_staging_merges_to_the_same_tree_without_twins(
    tmp_path, segment_records
):
    run = run_campaigns(
        [(
            ec2_campaign_config(rounds=1, seed=5), ("ec2-ohio", "ec2-seoul"),
            ("dns.google", "dns.quad9.net", "dns.adguard.com"),
        )],
        world_seed=5, shards=1, store_dir=str(tmp_path / "wh"), segment_records=segment_records,
    )
    records = list(run.warehouse.iter_records())
    assert not list(run.warehouse.root.rglob("*" + TWIN_SUFFIX))
    stagings = [
        _staging(records[part::3], tmp_path / f"s{part}", segment_records)
        for part in range(3)
    ]
    shutil.copytree(tmp_path / "s0", tmp_path / "bare")
    for twin in (tmp_path / "bare").rglob("*" + TWIN_SUFFIX):
        twin.unlink()
    twinned = Warehouse.build_canonical(stagings, tmp_path / "a", segment_records)
    bare = Warehouse.build_canonical(
        [Warehouse.open(tmp_path / "bare"), *stagings[1:]], tmp_path / "b", segment_records
    )
    assert _tree_bytes(twinned.root) == _tree_bytes(bare.root) == _tree_bytes(run.warehouse.root)


# ---------------------------------------------------------------------------
# A damaged twin is a named error, and no half-built warehouse stays
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<8sQQI")


def _header_with(data: bytes, **fields) -> bytes:
    names = ("magic", "size", "records", "fields")
    header = dict(zip(names, _HEADER.unpack_from(data)), **fields)
    return _HEADER.pack(*(header[name] for name in names)) + data[_HEADER.size :]


_TWIN_DAMAGE = {
    "torn_in_the_header": lambda data: data[:10],
    "torn_in_a_chunk_header": lambda data: data[: _HEADER.size + 7],
    "torn_in_a_blob": lambda data: data[:-5],
    "empty": lambda data: b"",
    "one_byte_more": lambda data: data + b"\0",
    "header_says_one_record_more": lambda data: _header_with(
        data, records=_HEADER.unpack_from(data)[2] + 1
    ),
    "rows_of_another_width": lambda data: _header_with(
        data, fields=_HEADER.unpack_from(data)[3] - 1
    ),
    "a_blob_byte_flipped": lambda data: data[:-3] + bytes([data[-3] ^ 0x5A]) + data[-2:],
    "not_a_twin": lambda data: b"#" * len(data),
}

_TWIN_READS = {
    "iter_records": lambda wh, tmp: list(wh.iter_records()),
    "iter_sorted": lambda wh, tmp: list(wh.iter_sorted()),
    "build_canonical": lambda wh, tmp: Warehouse.build_canonical([wh], tmp / "dest"),
    "compact": lambda wh, tmp: wh.compact(),
}


@pytest.mark.parametrize("read", sorted(_TWIN_READS))
@pytest.mark.parametrize("damage", sorted(_TWIN_DAMAGE))
def test_damaged_twin_is_a_named_error_and_builds_nothing(tmp_path, damage, read):
    staging = _staging(make_fleet(30), tmp_path / "wh", 8)
    index = staging.segment_indexes()[1]
    twin = twin_path(staging.segments_dir / index.segment_filename)
    twin.write_bytes(_TWIN_DAMAGE[damage](twin.read_bytes()))
    before = _tree_bytes(staging.root)

    with pytest.raises(ResultsFormatError) as excinfo:
        _TWIN_READS[read](staging, tmp_path)
    assert str(twin) in str(excinfo.value)
    # No half-built warehouse, no compaction temp tree: no file outside wh/.
    assert [p for p in tmp_path.rglob("*") if p.is_file() and "wh" not in p.parts] == []
    assert _tree_bytes(staging.root) == before


def test_twin_of_another_segment_is_refused(tmp_path):
    staging = _staging(make_fleet(30), tmp_path / "wh", 8)
    first, last = staging.segment_indexes()[0], staging.segment_indexes()[-1]
    assert first.records != last.records
    twin = twin_path(staging.segments_dir / last.segment_filename)
    shutil.copyfile(twin_path(staging.segments_dir / first.segment_filename), twin)
    with pytest.raises(ResultsFormatError) as excinfo:
        Warehouse.build_canonical([staging], tmp_path / "dest")
    message = str(excinfo.value)
    assert str(twin) in message
    assert f"{first.records} records" in message and f"says {last.records}" in message
    assert not Warehouse(tmp_path / "dest").exists()


def test_segment_edited_to_other_valid_records_is_refused_by_its_twin(tmp_path):
    staging = _staging(make_fleet(16), tmp_path / "wh", 8)
    segment_file = staging.segments_dir / staging.manifest()["segments"][0]
    data = segment_file.read_bytes()
    edited = data.replace(b'"resolver":"r1"', b'"resolver":"r9"', 1)
    assert edited != data and len(edited) == len(data)
    segment_file.write_bytes(edited)
    # Every line still parses and the count still holds: the JSON path
    # would take the edit; the twin says it is not what was sealed.
    with pytest.raises(ResultsFormatError) as excinfo:
        list(staging.iter_sorted())
    message = str(excinfo.value)
    assert str(segment_file) in message and str(twin_path(segment_file)) in message


def test_missing_twin_reads_through_json(tmp_path, parses):
    records = make_fleet(20)
    staging = _staging(records, tmp_path / "wh", 8)
    twinned = [r.stored_line for r in staging.iter_sorted()]
    for twin in staging.segments_dir.glob("*" + TWIN_SUFFIX):
        twin.unlink()
    del parses[:]
    assert [r.stored_line for r in staging.iter_sorted()] == twinned
    assert len(parses) == len(records)


# ---------------------------------------------------------------------------
# Bounded: no file held open between records, one chunk decoded per segment
# ---------------------------------------------------------------------------


class _Sampling:
    """A source that counts this process's open files at every record."""

    def __init__(self, warehouse: Warehouse) -> None:
        self._warehouse = warehouse
        self.most = 0

    def iter_sorted(self):
        for record in self._warehouse.iter_sorted():
            self.most = max(self.most, len(os.listdir("/proc/self/fd")))
            yield record


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
def test_merge_holds_no_file_per_twinned_segment(tmp_path):
    staging = _staging(make_fleet(120), tmp_path / "wh", 4)
    segments = len(staging.segment_indexes())
    assert segments == 30
    shutil.copytree(staging.root, tmp_path / "bare")
    for twin in (tmp_path / "bare").rglob("*" + TWIN_SUFFIX):
        twin.unlink()
    baseline = len(os.listdir("/proc/self/fd"))
    twinned = _Sampling(staging)
    Warehouse.build_canonical([twinned], tmp_path / "a", 8)
    bare = _Sampling(Warehouse.open(tmp_path / "bare"))
    Warehouse.build_canonical([bare], tmp_path / "b", 8)
    # The destination's open segment is the one file the twinned merge holds;
    # the JSON path holds one per source segment, as it always has.
    assert twinned.most - baseline <= 1
    assert bare.most - baseline >= segments


def test_reader_holds_one_chunk_of_a_segment_decoded(tmp_path, monkeypatch):
    monkeypatch.setattr(segment, "TWIN_CHUNK_RECORDS", 5)
    staging = _staging(make_fleet(60), tmp_path / "wh", 32)
    real = segment.marshal
    sizes = []

    def loads(blob):
        rows = real.loads(blob)
        sizes.append(len(rows))
        return rows

    monkeypatch.setattr(segment, "marshal", SimpleNamespace(dumps=real.dumps, loads=loads))
    assert len(list(staging.iter_sorted())) == 60
    assert max(sizes) == 5 and sum(sizes) == 60


# ---------------------------------------------------------------------------
# No twin outlives its staging warehouse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("plan", [{"shards": 1}, {"shard_by": "vantage"}])
def test_a_finished_run_keeps_no_twin(tmp_path, plan):
    store_dir = tmp_path / "wh"
    seen = []
    real = TwinWriter.close

    def close(self):
        seen.append(real(self))
        return seen[-1]

    with mock.patch.object(TwinWriter, "close", close):
        run_campaigns(
            [(
                ec2_campaign_config(rounds=1, seed=5), ("ec2-ohio", "ec2-seoul"),
                ("dns.google", "dns.quad9.net"),
            )],
            world_seed=5, store_dir=str(store_dir), segment_records=3, **plan,
        )
    assert seen and all(".staging" in twin.parts for twin in seen)
    assert not any(twin.exists() for twin in seen)
    assert sorted(p.name for p in store_dir.iterdir()) == [
        "MANIFEST.json", "aggregates.json", "segments",
    ]
    assert not list(store_dir.rglob("*" + TWIN_SUFFIX))
