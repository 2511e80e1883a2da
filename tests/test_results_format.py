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
import enum
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.results import MeasurementRecord, ResultStore
from repro.errors import ResultsFormatError

# ---------------------------------------------------------------------------
# Round-trip property: record -> JSONL -> record is the identity
# ---------------------------------------------------------------------------
#
# ``to_json`` writes the line itself instead of calling ``json.dumps``, so
# the strategy is wider than anything a campaign produces: the line has to
# be ``json``'s for every value a field can hold, declared type or not.


class _Code(enum.IntEnum):
    NOERROR = 0
    SERVFAIL = 2


class _Label(str, enum.Enum):
    TIMEOUT = "timeout"


class _Text(str):
    pass


_text = st.one_of(
    st.text(max_size=20),  # full Unicode, control characters included
    # One lone surrogate (json itself joins an adjacent high + low pair).
    st.characters(categories=["Cs"]).map(lambda c: "a" + c + "b"),
    st.sampled_from(
        ['"', "\\", 'a"b\\c', "\u2028\u2029", "\U0001f600", "\x00\x1f\x7f", "",
         _Label.TIMEOUT, _Text("sub\u00e9")]
    ),
)
_floats = st.one_of(
    st.floats(),  # negative, subnormal, NaN and both infinities
    st.sampled_from([-0.0, 0.0, 1e22, 1e16, 5e-324, -2.5e-310, 1e-7, 123456.789]),
)
_ints = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**64, 2**64 + 1, -(2**64), _Code.NOERROR, _Code.SERVFAIL]),
)
#: A field holds what its annotation says, or anything else JSON can carry:
#: an int where a float is declared and the reverse, a bool where an int
#: is, a container.
_misc = st.one_of(
    st.booleans(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(st.none(), st.integers()), max_size=3),
)
_number = st.one_of(_ints, _floats, _misc)
_opt_number = st.one_of(st.none(), _number)
_opt_text = st.one_of(st.none(), _text, _misc)

_records = st.builds(
    MeasurementRecord,
    campaign=_text,
    vantage=_text,
    resolver=_text,
    kind=st.sampled_from(["dns_query", "ping", "dns_query_attempt"]),
    transport=st.sampled_from(["doh", "dot", "do53", "doq", "icmp"]),
    domain=_opt_text,
    round_index=_number,
    started_at_ms=_number,
    duration_ms=_opt_number,
    success=st.one_of(st.booleans(), st.integers(0, 1)),
    error_class=_opt_text,
    rcode=_opt_number,
    http_status=_opt_number,
    http_version=st.one_of(st.none(), st.sampled_from(["h1", "h2", "h3"])),
    tls_version=st.one_of(st.none(), st.sampled_from(["1.2", "1.3"])),
    response_size=_opt_number,
    connection_reused=st.booleans(),
    attempts=_number,
    connect_ms=_opt_number,
    tls_ms=_opt_number,
    query_ms=_opt_number,
    failed_phase=st.one_of(st.none(), st.sampled_from(["connect", "tls", "query"])),
    response_wire=st.one_of(st.none(), st.binary(max_size=16).map(bytes.hex)),
    # Drawn independently: one session field set without the other.
    session_state=st.one_of(
        st.none(), st.sampled_from(["cold", "warm", "resumed", "zero_rtt"])
    ),
    session_policy=st.one_of(st.none(), st.sampled_from(["cold", "keep-alive"])),
)

_prop = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _same(left, right) -> bool:
    """Equality that lets NaN equal NaN, through containers."""
    if isinstance(left, float) and left != left:
        return isinstance(right, float) and right != right
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _same(left[k], right[k]) for k in left
        )
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(map(_same, left, right))
    return left == right


def _same_record(left: MeasurementRecord, right: MeasurementRecord) -> bool:
    return _same(dataclasses.astuple(left), dataclasses.astuple(right))


@_prop
@given(record=_records)
def test_record_round_trips_through_jsonl(record: MeasurementRecord):
    line = record.to_json()
    assert _same_record(MeasurementRecord.from_json(line), record)
    # And the serialization itself is stable (canonical key order).
    assert MeasurementRecord.from_json(line).to_json() == line
    # A trailing newline and surrounding JSON whitespace are not content.
    assert MeasurementRecord.from_json(" \t" + line + "\r\n").to_json() == line


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
    assert all(map(_same_record, loaded.records, records))
    assert len(loaded) == len(records)
    assert all(map(_same_record, ResultStore.iter_jsonl(path), records))


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


def test_iter_jsonl_on_a_non_utf8_byte_names_the_first_line_not_read(tmp_path):
    record = _two_good_records()[0]
    path = tmp_path / "latin.jsonl"
    lines = [record.to_json().encode("utf-8") + b"\n"] * 400  # several read blocks
    lines[-1] = lines[-1].replace(b"example", b"ex\xffmple")
    path.write_bytes(b"".join(lines))
    read = []
    with pytest.raises(ResultsFormatError) as excinfo:
        for parsed in ResultStore.iter_jsonl(path):
            read.append(parsed)
    assert 0 < len(read) < 400 and all(parsed == record for parsed in read)
    message = str(excinfo.value)
    assert "latin.jsonl" in message and "not UTF-8" in message
    assert f"after line {len(read) + 1}:" in message
    with pytest.raises(ResultsFormatError, match="not UTF-8"):
        ResultStore.load_jsonl(path)


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
# The parser is ``json.loads`` + the dataclass constructor, for every line
# ---------------------------------------------------------------------------

_GOOD = MeasurementRecord(
    campaign="c", vantage="v", resolver="r", kind="dns_query", transport="doh",
    domain="example.com", round_index=3, started_at_ms=12.5, duration_ms=1.25,
    success=True, rcode=0, http_status=200, http_version="h2",
    tls_version="1.3", response_size=120, connect_ms=0.5, tls_ms=0.5,
    query_ms=0.25,
)
_GOOD_SESSION = dataclasses.replace(
    _GOOD, session_state="resumed", session_policy="resumption"
)


def _outcome(line: str, **where):
    """What ``parse_line`` does with ``line``: the record's line, or the error text."""
    try:
        return MeasurementRecord.parse_line(line, **where).to_json()
    except ResultsFormatError as exc:
        return f"error: {exc}"


def _check_terminates_with_a_named_error(line: str) -> None:
    first = _outcome(line, source="fuzz.jsonl", line_number=7)
    if first.startswith("error: "):
        assert "fuzz.jsonl" in first and "line 7" in first
    # Nothing the first call did changes the second.
    assert _outcome(line, source="fuzz.jsonl", line_number=7) == first


@_prop
@given(line=st.text(max_size=80))
def test_parse_line_on_arbitrary_text_raises_only_format_errors(line: str):
    _check_terminates_with_a_named_error(line)


@_prop
@given(
    record=st.sampled_from([_GOOD, _GOOD_SESSION]),
    position=st.integers(min_value=0, max_value=10_000),
    replacement=st.one_of(st.just(""), st.characters(), st.text(max_size=3)),
    insert=st.booleans(),
)
def test_parse_line_on_a_mutated_line_raises_only_format_errors(
    record, position, replacement, insert
):
    line = record.to_json()
    position %= len(line)
    mutated = line[:position] + replacement + line[position + (not insert):]
    _check_terminates_with_a_named_error(mutated)


def test_parse_line_on_runaway_nesting_raises_format_error():
    with pytest.raises(ResultsFormatError):
        MeasurementRecord.from_json("[" * 100_000)
    with pytest.raises(ResultsFormatError):
        MeasurementRecord.from_json('{"campaign":' * 100_000)


def _fields_of(record: MeasurementRecord) -> dict:
    return json.loads(record.to_json())


@pytest.mark.parametrize("record", [_GOOD, _GOOD_SESSION], ids=["23-key", "25-key"])
def test_parse_line_key_sets_beside_the_exact_one(record):
    fields = _fields_of(record)
    assert len(fields) in (23, 25)

    # Same key count, one key renamed: the keyword path names both halves.
    renamed = dict(fields)
    renamed["resolvr"] = renamed.pop("resolver")
    with pytest.raises(ResultsFormatError, match="resolvr"):
        MeasurementRecord.from_json(json.dumps(renamed))

    # One key fewer: a required field is named, a defaulted one defaults.
    missing = {k: v for k, v in fields.items() if k != "vantage"}
    with pytest.raises(ResultsFormatError, match="vantage"):
        MeasurementRecord.from_json(json.dumps(missing))
    defaulted = {k: v for k, v in fields.items() if k != "attempts"}
    assert MeasurementRecord.from_json(json.dumps(defaulted)) == dataclasses.replace(
        record, attempts=1
    )

    # One key more: an unknown field is an error, not dropped.
    extra = dict(fields, colour="blue")
    with pytest.raises(ResultsFormatError, match="colour"):
        MeasurementRecord.from_json(json.dumps(extra))

    # Key order is not content.
    backwards = dict(reversed(list(fields.items())))
    assert MeasurementRecord.from_json(json.dumps(backwards)) == record


def test_parse_line_with_one_session_field():
    fields = _fields_of(_GOOD)
    assert len(fields) == 23
    record = MeasurementRecord.from_json(json.dumps(dict(fields, session_state="warm")))
    assert record == dataclasses.replace(_GOOD, session_state="warm")
    assert len(_fields_of(record)) == 24


def test_parse_line_duplicate_keys_last_wins_as_json_loads():
    line = _GOOD.to_json()
    doubled = line[:-1] + ',"resolver":"second"}'
    assert json.loads(doubled)["resolver"] == "second"
    assert MeasurementRecord.from_json(doubled) == dataclasses.replace(
        _GOOD, resolver="second"
    )


@pytest.mark.parametrize(
    "line", ["[1, 2]", '"str"', "1", "null", "", "   ", "{}x", "{} {}"]
)
def test_parse_line_rejects_what_is_not_one_object(line):
    with pytest.raises(ResultsFormatError):
        MeasurementRecord.from_json(line)


def test_parse_line_rejects_trailing_data_and_accepts_json_whitespace():
    line = _GOOD.to_json()
    for bad in (line + "x", line + line, line + " ,", "x" + line):
        with pytest.raises(ResultsFormatError):
            MeasurementRecord.from_json(bad)
    for padding in ("\n", "\r\n", " ", "\t", " \t\r\n "):
        assert MeasurementRecord.from_json(line + padding) == _GOOD
        assert MeasurementRecord.from_json(padding + line) == _GOOD
    # Exactly json's whitespace: what ``json.loads`` refuses stays refused.
    for padding in ("\x0c", "\x0b", "\xa0", "\u2003", "\ufeff"):
        with pytest.raises(json.JSONDecodeError):
            json.loads(padding + line)
        with pytest.raises(ResultsFormatError):
            MeasurementRecord.from_json(padding + line)
        with pytest.raises(ResultsFormatError):
            MeasurementRecord.from_json(line + padding)


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

