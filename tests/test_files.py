"""The file seam (:mod:`repro.files`): every reader against hostile files,
every writer into a directory that does not exist yet, the two CLI paths
that used to end in a traceback or a late ``ENOENT``, and a structural
check that nothing outside the seam and ``store/`` opens a file itself.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.analysis.export import write_csv
from repro.cli import _write_alert_artifacts, main
from repro.core.platform import CampaignFile, ResolverFilter
from repro.core.probes import ProbeConfig
from repro.core.runner import CampaignConfig, RetryPolicy
from repro.core.scheduler import PeriodicSchedule
from repro.core.results import MeasurementRecord, ResultStore
from repro.errors import (
    CampaignConfigError,
    MonitorConfigError,
    ObserverConfigError,
    ReproError,
    ResultsFormatError,
)
from repro.files import (
    JsonlLog,
    iter_lines,
    read_document,
    read_jsonl,
    spec_from_table,
    spec_to_table,
    write_text,
)
from repro.monitor import (
    EventLog,
    HealthEvent,
    Monitor,
    SloPolicy,
    SloSpec,
    WindowConfig,
    default_policy,
)
from repro.netsim.trace import EventTrace, TraceEvent
from repro.obs import MetricsRegistry, SpanCollector
from repro.observers import ObserverRegistry, default_registry
from repro.observers.health import HealthSample, WorldHealthIndex
from repro.observers.spec import FleetSpec
from repro.session import POLICY_PRESETS, SessionPolicy

# ---------------------------------------------------------------------------
# Fixtures: one small instance of everything that is written or read back
# ---------------------------------------------------------------------------


def _record(i: int = 0, success: bool = True) -> MeasurementRecord:
    return MeasurementRecord(
        campaign="c", vantage="v1", resolver="r.example", kind="dns_query",
        transport="doh", domain="example.com", round_index=i,
        started_at_ms=float(i), duration_ms=10.0 if success else None,
        success=success, error_class=None if success else "connect_timeout",
    )


def _alert(status: str = "firing", round_index: int = 3, at_ms: float = 11.0):
    return HealthEvent(
        source="slo", name="availability-floor",
        group={"campaign": "c", "vantage": "v1", "resolver": "r.example",
               "transport": "doh"},
        at_ms=at_ms, status=status, severity="critical", value=0.5,
        evidence={"round_index": round_index, "detector": "success_window",
                  "window": {"count": 12}},
    )


def _significance(day: int = 0) -> HealthEvent:
    return HealthEvent(
        source="observer", name="region-availability", group={"region": "EU"},
        at_ms=day * 86.4e6, status="significant", severity="warning", value=0.8,
        evidence={"day": day, "baseline_mean": 0.95, "z": -15.0, "readings": 3},
    )


def _health(day: int = 0) -> HealthSample:
    return HealthSample(
        day=day, at_ms=day * 86.4e6, score=85.0, trend=97.9, band="OK",
        events=1, silences=4, observers=5, contributions={"region-availability": 15.0},
    )


def _store() -> ResultStore:
    store = ResultStore()
    store.extend(_record(i) for i in range(3))
    return store


def _alert_log() -> EventLog:
    log = EventLog()
    log.extend([_alert(), _alert(status="resolved", round_index=5, at_ms=20.0)])
    return log


def _significance_log() -> EventLog:
    log = EventLog()
    log.extend(_significance(day) for day in (0, 28))
    return log


def _spans() -> SpanCollector:
    collector = SpanCollector()
    collector.end(collector.begin("campaign", 0.0, campaign="c"), 5.0)
    return collector


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry(enabled=True)
    registry.inc("campaign.queries", transport="doh")
    registry.observe("campaign.query_ms", 12.5, transport="doh")
    return registry


def _trace() -> EventTrace:
    event = TraceEvent(
        time_ms=1.0, kind="sent", protocol="udp", src_ip="10.0.0.1", src_port=5000,
        dst_ip="10.0.0.2", dst_port=53, size=64,
    )
    return EventTrace(events=[event])


def _monitor() -> Monitor:
    monitor = Monitor(default_policy())
    for i in range(20):
        monitor.observe(_record(i, success=not i % 2))
    monitor.finalize()
    return monitor


# ---------------------------------------------------------------------------
# (a) Nine readers x five hostile files
# ---------------------------------------------------------------------------


def _metrics_export(path: Path) -> None:
    """``metrics export --input`` as a reader: its error is what it prints."""
    import contextlib
    import io

    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main(["metrics", "export", "--input", str(path)])
    if code != 0:
        message = stderr.getvalue()
        assert code == 2 and message.startswith("repro-dns metrics: ")
        assert message.count("\n") == 1, "one line, no traceback"
        raise ResultsFormatError(message)


#: name -> (reader, the one ``repro.errors`` type it may raise, JSONL or document)
_READERS = {
    "ResultStore.load_jsonl": (ResultStore.load_jsonl, ResultsFormatError, "jsonl"),
    "EventLog.load_jsonl": (EventLog.load_jsonl, ResultsFormatError, "jsonl"),
    "WorldHealthIndex.load_jsonl": (
        WorldHealthIndex.load_jsonl, ResultsFormatError, "jsonl",
    ),
    "SloPolicy.load": (SloPolicy.load, MonitorConfigError, "document"),
    "ObserverRegistry.load": (ObserverRegistry.load, ObserverConfigError, "document"),
    "SessionPolicy.load": (SessionPolicy.load, CampaignConfigError, "document"),
    "CampaignFile.load": (CampaignFile.load, CampaignConfigError, "document"),
    "metrics export --input": (_metrics_export, ResultsFormatError, "document"),
}

_HOSTILE = {
    "non_utf8_byte": b'{"a": "\xff"}\n',
    "truncated_json": b'{"campaign": "c", "vanta',
    "json_list": b"[1, 2]\n",
}


@pytest.mark.parametrize("case", sorted(_HOSTILE))
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_hostile_file_raises_only_the_readers_named_error(tmp_path, reader, case):
    read, error, _ = _READERS[reader]
    path = tmp_path / f"{case}.json"
    path.write_bytes(_HOSTILE[case])
    with pytest.raises(ReproError) as excinfo:
        read(path)
    assert type(excinfo.value) is error
    message = str(excinfo.value)
    assert path.name in message
    if case == "non_utf8_byte":
        assert "UTF-8" in message or "utf-8" in message


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_missing_file(tmp_path, reader):
    """Two contracts.  A missing *spec* is the reader's config error
    ("unreadable ..."); a missing *JSONL* file stays the ``OSError`` the
    lazy open inside the line generator raises, which ``main()`` prints."""
    read, error, kind = _READERS[reader]
    path = tmp_path / "absent.json"
    if kind == "jsonl":
        with pytest.raises(FileNotFoundError):
            read(path)
        return
    with pytest.raises(error) as excinfo:
        read(path)
    assert "unreadable" in str(excinfo.value) and path.name in str(excinfo.value)


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_empty_file(tmp_path, reader):
    """An empty JSONL file is an empty log; an empty document is malformed."""
    read, error, kind = _READERS[reader]
    path = tmp_path / "empty.json"
    path.write_bytes(b"")
    if kind == "jsonl":
        assert len(read(path)) == 0
        return
    with pytest.raises(error) as excinfo:
        read(path)
    assert "malformed" in str(excinfo.value) and path.name in str(excinfo.value)


def test_document_that_is_not_an_object_says_what_was_expected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(CampaignConfigError, match="expected a JSON object.*got list"):
        read_document(path, CampaignConfigError, "campaign spec")


def test_session_policy_is_read_as_utf8_not_in_the_locales_encoding(tmp_path):
    """``SessionPolicy.load`` used to call ``read_text()`` bare.  The
    interpreter can say so itself: ``-X warn_default_encoding`` warns on
    every open that leaves the encoding to the locale."""
    import os
    import subprocess
    import sys

    # A .json policy, so this runs on every Python: ``json`` keeps the last
    # of a repeated key, and the first only puts a non-ASCII byte in the file.
    path = tmp_path / "policy.json"
    path.write_text('{"mode": "\u00e9", "mode": "cold"}\n', encoding="utf-8")
    code = (
        "import sys; from repro.session import SessionPolicy; "
        "print(SessionPolicy.load(sys.argv[1]).mode)"
    )
    done = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W",
         "error::EncodingWarning", "-c", code, str(path)],
        env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "cold"), done.stderr


@pytest.mark.parametrize(
    "log_type,decode,what",
    [
        (EventLog, HealthEvent.from_dict, "health event"),
        (WorldHealthIndex, HealthSample.from_dict, "health sample"),
    ],
)
def test_malformed_line_names_file_line_and_noun(tmp_path, log_type, decode, what):
    path = tmp_path / "events.jsonl"
    path.write_text('\n{"day": 1}\n', encoding="utf-8")
    for read in (log_type.load_jsonl, lambda p: read_jsonl(p, decode, what)):
        with pytest.raises(ResultsFormatError) as excinfo:
            read(path)
        assert f"events.jsonl:2: malformed {what}: " in str(excinfo.value)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    data=st.one_of(
        st.binary(max_size=200),
        # Closer to the format: JSON values, one per line, then damaged.
        st.lists(
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.text(max_size=8),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(
                    st.sampled_from(["campaign", "window", "evidence", "day", "x"]),
                    inner,
                    max_size=4,
                ),
                max_leaves=8,
            ).map(json.dumps),
            max_size=4,
        ).map(lambda lines: "\n".join(lines).encode("utf-8")),
    ),
    cut=st.integers(min_value=0, max_value=200),
)
def test_read_jsonl_under_arbitrary_bytes_raises_only_format_errors(
    tmp_path, data, cut
):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(data[: max(cut, 1)] if cut % 3 == 0 else data)
    for decode in (HealthEvent.from_dict, HealthSample.from_dict):
        try:
            read_jsonl(path, decode, "line")
        except ResultsFormatError as exc:
            assert "fuzz.jsonl" in str(exc)


def test_iter_lines_skips_blank_lines_and_keeps_file_line_numbers(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text("\n  a  \n\n\nb\n", encoding="utf-8")
    assert list(iter_lines(path, "text file")) == [(2, "a"), (5, "b")]


# ---------------------------------------------------------------------------
# (b) Sixteen writers into a directory two levels deep that does not exist
# ---------------------------------------------------------------------------


def _indented(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _library_writers():
    """name -> (write(path) -> returned, expected text, expected return or
    ``Path`` for "the path itself")."""
    store, alerts, events = _store(), _alert_log(), _significance_log()
    index = WorldHealthIndex([_health(0), _health(28)])
    spans, registry, trace = _spans(), _registry(), _trace()
    return {
        "ResultStore.save_jsonl": (store.save_jsonl, store.to_jsonl(), 3),
        "EventLog.save_jsonl": (alerts.save_jsonl, alerts.to_jsonl(), Path),
        "EventLog.save_jsonl (observer)": (events.save_jsonl, events.to_jsonl(), Path),
        "WorldHealthIndex.save_jsonl": (index.save_jsonl, index.to_jsonl(), Path),
        "SpanCollector.save_jsonl": (spans.save_jsonl, spans.to_jsonl(), 1),
        "MetricsRegistry.save_json": (
            registry.save_json, _indented(registry.snapshot()), None,
        ),
        "MetricsRegistry.save_state_json": (
            registry.save_state_json, _indented(registry.to_state()), None,
        ),
        "EventTrace.save_jsonl": (trace.save_jsonl, trace.to_jsonl(), None),
        "write_csv": (lambda path: write_csv("a,b\r\n1,2\r\n", path), "a,b\r\n1,2\r\n", Path),
        "write_text": (lambda path: write_text(path, "é\n"), "é\n", Path),
    }


@pytest.mark.parametrize("writer", sorted(_library_writers()))
@pytest.mark.parametrize("as_str", [False, True], ids=["Path", "str"])
def test_writer_creates_its_directory_and_keeps_bytes_and_return(
    tmp_path, writer, as_str
):
    write, text, returned = _library_writers()[writer]
    path = tmp_path / "new" / "dir" / "artefact.out"
    result = write(str(path) if as_str else path)
    assert path.read_bytes() == text.encode("utf-8") and text
    if returned is Path:
        assert result == path and isinstance(result, Path)
    else:
        assert result == returned and type(result) is type(returned)


#: SHA-256 of the default SLO policy and the default observer fleet as
#: written to a JSON spec file.
SPEC_FILE_SHA256 = {
    "SloPolicy": "1d0d947d332da26830d557139e12d28ad57d040e3496c35322edbc43edc599e6",
    "ObserverRegistry": "b70a3cf6f620a215cc6ba64507e6a65fe78eb3764c2bee45fab2bac179cf2a6a",
}


def test_default_spec_files_keep_their_bytes(tmp_path):
    import hashlib

    written = {
        "SloPolicy": default_policy(),
        "ObserverRegistry": FleetSpec(tuple(default_registry().specs())),
    }
    assert {
        name: hashlib.sha256(_indented(spec_to_table(spec)).encode("utf-8")).hexdigest()
        for name, spec in written.items()
    } == SPEC_FILE_SHA256
    # And each is read back as what was written.
    policy = write_text(tmp_path / "p.json", _indented(spec_to_table(written["SloPolicy"])))
    assert SloPolicy.load(policy) == default_policy()
    fleet = write_text(
        tmp_path / "f.json", _indented(spec_to_table(written["ObserverRegistry"]))
    )
    assert ObserverRegistry.load(fleet).specs() == default_registry().specs()


def _every_spec():
    """id -> one spec of each class the one reader reads."""
    policy = default_policy()
    specs = {
        "SloPolicy": policy,
        "WindowConfig": policy.window,
        "CusumConfig": policy.cusum,
        "FleetSpec": FleetSpec(tuple(default_registry().specs())),
        "CampaignFile": CampaignFile(
            campaign=CampaignConfig(
                name="full", domains=("google.com",),
                transports=("dot", "doq"), session_policy=POLICY_PRESETS["zero-rtt"],
                schedule=PeriodicSchedule(
                    rounds=2, interval_ms=6 * 3.6e6, stagger_ms=90_000.0
                ),
                probe_config=ProbeConfig(
                    method="GET", timeout_ms=2500.0, reuse_connections=True,
                    doh_path="/resolve",
                ),
                retry=RetryPolicy(attempts=3, retry_on=("timeout",)),
                seed=7, ping=False, capture_responses=True,
            ),
            vantages=("ec2-frankfurt", "ec2-ohio"),
            resolvers=ResolverFilter(region="EU", anycast=False),
        ),
        "CampaignFile (hostnames)": CampaignFile(
            campaign=CampaignConfig(name="pair"),
            resolvers=("dns.google", "dns.quad9.net"),
        ),
        "SloSpec (error classes)": SloSpec(
            name="budget", kind="error_budget", threshold=0.02, vantage="ec2-*",
            error_classes=("timeout", "tls_handshake"),
        ),
        "WindowConfig (span)": WindowConfig(records=30, span_ms=3.6e6, min_samples=6),
    }
    specs.update((f"SloSpec {spec.name}", spec) for spec in policy.specs)
    specs.update(
        (f"ObserverSpec {spec.name}", spec) for spec in default_registry().specs()
    )
    specs.update(
        (f"BaselineConfig {spec.name}", spec.baseline)
        for spec in default_registry().specs()
    )
    specs.update((f"SessionPolicy {name}", p) for name, p in POLICY_PRESETS.items())
    return specs


@pytest.mark.parametrize("case", sorted(_every_spec()))
def test_every_spec_round_trips_through_its_table(case):
    spec = _every_spec()[case]
    table = spec_to_table(spec)
    assert spec_from_table(type(spec), table, ReproError, case) == spec
    # The table is plain JSON: no tuple and no dataclass is left in it.
    assert json.loads(json.dumps(table)) == table


def test_alert_artifacts_directory_is_created_for_all_three_files(tmp_path, capsys):
    """``verdicts.json``, ``alerts.jsonl`` and ``scoreboard.txt``: none of the
    three may depend on another having created the directory first."""
    monitor = _monitor()
    directory = tmp_path / "new" / "dir"
    _write_alert_artifacts(monitor, str(directory))
    capsys.readouterr()
    assert len(monitor.alerts) and monitor.verdicts()
    assert (directory / "alerts.jsonl").read_text(encoding="utf-8") == (
        monitor.alerts.to_jsonl()
    )
    assert (directory / "verdicts.json").read_text(encoding="utf-8") == _indented(
        [verdict.to_dict() for verdict in monitor.verdicts()]
    )
    assert (directory / "scoreboard.txt").read_text(encoding="utf-8") == (
        monitor.scoreboard().render() + "\n"
    )


def test_log_round_trips_and_subclass_adds_one_view(tmp_path):
    """``EventLog`` is the generic log plus ``with_status``, and holds the
    monitor's alerts and the fleet's observer-days alike."""
    assert EventLog.__bases__ == (JsonlLog,)
    assert {name for name in vars(EventLog) if not name.startswith("__")} == {
        "event_type", "what", "with_status",
    }
    for log in (_alert_log(), _significance_log()):
        loaded = EventLog.load_jsonl(log.save_jsonl(tmp_path / "a" / "log.jsonl"))
        assert loaded.events() == log.events() and len(loaded) == 2
        loaded.extend(reversed(log.events()))
        loaded.canonical_sort()
        keys = [event.sort_key() for event in loaded]
        assert keys == sorted(keys)


def test_event_dict_forms_are_the_dataclass_fields():
    """``to_dict`` says the fields once, after ``v``; ``from_dict`` needs all."""
    import dataclasses

    alert = _alert()
    assert list(alert.to_dict()) == ["v"] + [
        f.name for f in dataclasses.fields(HealthEvent)
    ]
    assert HealthEvent.from_dict(alert.to_dict()) == alert
    bare = {k: v for k, v in alert.to_dict().items() if k != "evidence"}
    with pytest.raises(KeyError):
        HealthEvent.from_dict(bare)
    with pytest.raises((TypeError, ValueError)):
        HealthEvent.from_dict({**alert.to_dict(), "group": 5})


# ---------------------------------------------------------------------------
# (c) CLI
# ---------------------------------------------------------------------------


def test_measure_spec_on_malformed_json_exits_2_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["measure", "--spec", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("repro-dns measure: malformed campaign file ")
    assert "bad.json" in err and err.count("\n") == 1


def test_diff_output_into_a_fresh_nested_directory(tmp_path, capsys):
    target = tmp_path / "new" / "dir" / "d.jsonl"
    argv = ["diff", "--rounds", "1", "--resolver", "dns.google", "dns.quad9.net",
            "--vantage", "ec2-ohio", "--output", str(target)]
    assert main(argv) == 0
    _, err = capsys.readouterr()
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines and f"wrote {len(lines)} diff records" in err
    assert all(isinstance(json.loads(line), dict) for line in lines)


def test_sessions_and_metrics_export_output_files_hold_what_is_printed(
    tmp_path, capsys
):
    argv = ["sessions", "--rounds", "1", "--vantage", "ec2-ohio", "--resolver",
            "dns.google", "--policy", "cold", "--transport", "doh"]
    target = tmp_path / "new" / "dir" / "sessions.txt"
    assert main(argv + ["--output", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == capsys.readouterr().out != ""

    registry = _registry()
    registry.save_json(tmp_path / "metrics.json")
    assert main(["metrics", "export", "--input", str(tmp_path / "metrics.json")]) == 0
    printed = capsys.readouterr().out
    prom = tmp_path / "deep" / "er" / "metrics.prom"
    assert main(["metrics", "export", "--input", str(tmp_path / "metrics.json"),
                 "--output", str(prom)]) == 0
    assert prom.read_text(encoding="utf-8") == printed != ""


# ---------------------------------------------------------------------------
# (d) The seam cannot erode quietly
# ---------------------------------------------------------------------------


def _file_calls(tree: ast.AST):
    """Calls that open, read or write a file by hand."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            yield node.lineno, "open()"
        elif isinstance(func, ast.Attribute):
            owner = getattr(func.value, "id", None)
            if func.attr == "open" and owner == "Warehouse":
                continue  # the warehouse constructor, not a file handle
            if func.attr in ("open", "read_text", "write_text", "read_bytes",
                             "write_bytes"):
                yield node.lineno, f".{func.attr}()"
            elif func.attr in ("load", "dump") and owner in ("json", "tomllib"):
                yield node.lineno, f"{owner}.{func.attr}()"


def test_no_module_outside_the_seam_and_the_store_touches_a_file_itself():
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative == Path("files.py") or relative.parts[0] == "store":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{relative}:{line}: {call}" for line, call in _file_calls(tree)]
    assert offenders == []
    # The walker does see what it is looking for.
    seam = ast.parse((root / "files.py").read_text(encoding="utf-8"))
    assert {call for _, call in _file_calls(seam)} == {
        ".open()", ".read_text()", ".write_text()",
    }


_SHAPE_NAMES = {"check_shape", "check_shapes", "SHAPES"}


def _shape_names(tree: ast.AST):
    """Where a module names a shape table or a shape check of its own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _SHAPE_NAMES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in _SHAPE_NAMES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias) and node.name in _SHAPE_NAMES:
            yield getattr(node, "lineno", 0), node.name
        elif isinstance(node, ast.FunctionDef) and node.name in _SHAPE_NAMES:
            yield node.lineno, node.name


def test_spec_shapes_are_named_only_in_the_seam():
    """Every spec's shape comes from its field types, through ``files.py``:
    no other module keeps a shape table or calls a shape check by hand."""
    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative == Path("files.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{relative}:{line}: {name}" for line, name in _shape_names(tree)]
    assert offenders == []
    # The walker does see what it is looking for.
    seam = ast.parse((root / "files.py").read_text(encoding="utf-8"))
    assert "SHAPES" in {name for _, name in _shape_names(seam)}
    parent_style = ast.parse(
        "from repro.files import check_shapes\n"
        "check_shapes('x', {}, {}, ValueError)\nfiles.SHAPES\n"
    )
    assert {name for _, name in _shape_names(parent_style)} == {"check_shapes", "SHAPES"}
