"""Results-format robustness: JSONL round-trips and malformed-line errors.

A month-long campaign writes millions of JSONL lines; a truncated final
line (killed process, full disk) or a corrupted byte must surface as a
:class:`~repro.errors.ResultsFormatError` naming the file and 1-based
line number — never as an anonymous ``json.JSONDecodeError`` or, worse,
a silently skipped record.  The round-trip property pins the record
serialization against every combination of optional fields.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.results import MeasurementRecord, RecordSource, ResultStore
from repro.errors import ResultsFormatError

# ---------------------------------------------------------------------------
# Round-trip property: record -> JSONL -> record is the identity
# ---------------------------------------------------------------------------

_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=20,
)
_finite = st.floats(
    min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False
)
_opt_ms = st.one_of(st.none(), _finite)

_records = st.builds(
    MeasurementRecord,
    campaign=_names,
    vantage=_names,
    resolver=_names,
    kind=st.sampled_from(["dns_query", "ping", "dns_query_attempt"]),
    transport=st.sampled_from(["doh", "dot", "do53", "doq", "icmp"]),
    domain=st.one_of(st.none(), _names),
    round_index=st.integers(min_value=0, max_value=10_000),
    started_at_ms=_finite,
    duration_ms=_opt_ms,
    success=st.booleans(),
    error_class=st.one_of(st.none(), _names),
    rcode=st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
    http_status=st.one_of(st.none(), st.integers(min_value=100, max_value=599)),
    http_version=st.one_of(st.none(), st.sampled_from(["h1", "h2", "h3"])),
    tls_version=st.one_of(st.none(), st.sampled_from(["1.2", "1.3"])),
    response_size=st.one_of(st.none(), st.integers(min_value=0, max_value=65535)),
    connection_reused=st.booleans(),
    attempts=st.integers(min_value=1, max_value=5),
    connect_ms=_opt_ms,
    tls_ms=_opt_ms,
    query_ms=_opt_ms,
    failed_phase=st.one_of(st.none(), st.sampled_from(["connect", "tls", "query"])),
    response_wire=st.one_of(st.none(), st.binary(max_size=16).map(bytes.hex)),
    session_state=st.one_of(
        st.none(), st.sampled_from(["cold", "warm", "resumed", "zero_rtt"])
    ),
    session_policy=st.one_of(st.none(), st.sampled_from(["cold", "keep-alive"])),
)

_prop = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_prop
@given(record=_records)
def test_record_round_trips_through_jsonl(record: MeasurementRecord):
    line = record.to_json()
    assert MeasurementRecord.from_json(line) == record
    # And the serialization itself is stable (canonical key order).
    assert MeasurementRecord.from_json(line).to_json() == line


def _asdict_form(record: MeasurementRecord) -> str:
    """``to_json`` as it was written before it named its fields."""
    data = dataclasses.asdict(record)
    for late_field in ("session_state", "session_policy"):
        if data[late_field] is None:
            del data[late_field]
    return json.dumps(data, separators=(",", ":"), sort_keys=True)


@_prop
@given(record=_records)
def test_to_json_is_the_asdict_form(record: MeasurementRecord):
    assert record.to_json() == _asdict_form(record)


def test_to_json_names_every_field():
    # ``to_json`` lists the fields by hand; one added to the dataclass and
    # forgotten there would vanish from every results file.
    record = MeasurementRecord(
        campaign="c", vantage="v", resolver="r", kind="dns_query",
        transport="doh", domain="example.com", round_index=0,
        started_at_ms=0.0, duration_ms=1.0, success=True,
        session_state="cold", session_policy="cold",
    )
    assert set(json.loads(record.to_json())) == {
        f.name for f in dataclasses.fields(MeasurementRecord)
    }


@_prop
@given(records=st.lists(_records, min_size=1, max_size=10))
def test_store_round_trips_through_jsonl_file(records, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("roundtrip")
    store = ResultStore()
    store.extend(records)
    path = tmp / "results.jsonl"
    store.save_jsonl(path)
    loaded = ResultStore.load_jsonl(path)
    assert loaded.records == records
    assert list(ResultStore.iter_jsonl(path)) == records


# ---------------------------------------------------------------------------
# Malformed / truncated lines raise with file and 1-based line number
# ---------------------------------------------------------------------------


def _two_good_records():
    return [
        MeasurementRecord(
            campaign="c", vantage="v", resolver=f"r{i}", kind="dns_query",
            transport="doh", domain="example.com", round_index=i,
            started_at_ms=float(i), duration_ms=1.0, success=True,
        )
        for i in range(2)
    ]


def test_load_jsonl_malformed_line_names_file_and_line(tmp_path):
    good = _two_good_records()
    path = tmp_path / "broken.jsonl"
    path.write_text(
        good[0].to_json() + "\n" + "{not json}\n" + good[1].to_json() + "\n"
    )
    with pytest.raises(ResultsFormatError) as excinfo:
        ResultStore.load_jsonl(path)
    message = str(excinfo.value)
    assert "broken.jsonl" in message
    assert "line 2" in message


def test_load_jsonl_truncated_final_line(tmp_path):
    good = _two_good_records()
    path = tmp_path / "truncated.jsonl"
    # Simulate a process killed mid-write: the last line is cut short.
    path.write_text(good[0].to_json() + "\n" + good[1].to_json()[:40] + "\n")
    with pytest.raises(ResultsFormatError) as excinfo:
        ResultStore.load_jsonl(path)
    assert "truncated.jsonl" in str(excinfo.value)
    assert "line 2" in str(excinfo.value)


def test_iter_jsonl_is_lazy_and_raises_at_the_bad_line(tmp_path):
    good = _two_good_records()
    path = tmp_path / "lazy.jsonl"
    path.write_text(
        good[0].to_json() + "\n" + good[1].to_json() + "\nnonsense\n"
    )
    iterator = ResultStore.iter_jsonl(path)
    assert next(iterator) == good[0]
    assert next(iterator) == good[1]
    with pytest.raises(ResultsFormatError) as excinfo:
        next(iterator)
    assert "line 3" in str(excinfo.value)


def test_wrong_shape_line_raises_format_error(tmp_path):
    path = tmp_path / "shape.jsonl"
    # Valid JSON, wrong shape: array instead of object, then unknown field.
    path.write_text('[1, 2, 3]\n')
    with pytest.raises(ResultsFormatError):
        ResultStore.load_jsonl(path)
    path.write_text(json.dumps({"campaign": "c", "unknown_field": 1}) + "\n")
    with pytest.raises(ResultsFormatError) as excinfo:
        ResultStore.load_jsonl(path)
    assert "line 1" in str(excinfo.value)


def test_parse_line_without_source_still_raises_format_error():
    with pytest.raises(ResultsFormatError) as excinfo:
        MeasurementRecord.parse_line("{oops", line_number=7)
    assert "line 7" in str(excinfo.value)
    with pytest.raises(ResultsFormatError):
        MeasurementRecord.from_json("{oops")


# ---------------------------------------------------------------------------
# Warehouse segments fail the same way
# ---------------------------------------------------------------------------


def test_warehouse_segment_reader_malformed_line_names_file_and_line(tmp_path):
    from repro.store import StoreSink, Warehouse

    records = _two_good_records()
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=8)
    sink.extend(records)
    warehouse = sink.close()
    segment = warehouse.segments_dir / warehouse.manifest()["segments"][0]

    # Corrupt the second line of the sealed segment.
    lines = segment.read_bytes().splitlines(keepends=True)
    lines[1] = b'{"corrupt": \n'
    segment.write_bytes(b"".join(lines))

    with pytest.raises(ResultsFormatError) as excinfo:
        list(warehouse.iter_records())
    message = str(excinfo.value)
    assert segment.name in message
    assert "line 2" in message


def test_warehouse_segment_reader_truncated_final_line(tmp_path):
    from repro.store import StoreSink, Warehouse

    records = _two_good_records()
    sink = StoreSink(Warehouse(tmp_path / "wh"), segment_records=8)
    sink.extend(records)
    warehouse = sink.close()
    segment = warehouse.segments_dir / warehouse.manifest()["segments"][0]
    segment.write_bytes(segment.read_bytes()[:-30])

    with pytest.raises(ResultsFormatError) as excinfo:
        list(warehouse.iter_records())
    assert "line 2" in str(excinfo.value)


# ---------------------------------------------------------------------------
# RecordSource protocol
# ---------------------------------------------------------------------------


def test_result_store_satisfies_record_source_protocol():
    assert isinstance(ResultStore(), RecordSource)


def test_warehouse_satisfies_record_source_protocol(tmp_path):
    from repro.store import Warehouse

    assert isinstance(Warehouse(tmp_path / "wh"), RecordSource)
