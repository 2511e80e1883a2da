"""The layer the SLO monitor and the observer fleet share.

* one event: :class:`HealthEvent` round-trips through its dict and JSON
  forms for both sources, its ``sort_key`` orders any two events, and an
  :class:`EventLog` refuses a line that is not version 2;
* one tally: a window's :class:`Tally`, kept by adding and removing, is
  always the tally of what the window holds, and a window that evicts
  alerts as it did before the tally;
* one shape table: both spec files refuse a value of the wrong type with
  their named error, from the library and from the CLI.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.runner import Campaign
from repro.errors import MonitorConfigError, ObserverConfigError, ResultsFormatError
from repro.experiments.campaigns import EC2_VANTAGE_NAMES, ec2_campaign_config
from repro.experiments.world import build_world
from repro.monitor import (
    SEVERITIES,
    EventLog,
    HealthEvent,
    Monitor,
    RollingWindow,
    SloPolicy,
    Tally,
    WindowConfig,
    default_policy,
    reading,
)
from repro.monitor.events import SOURCES
from repro.observers import ObserverRegistry

from tests.test_alerting_pinned import _digest, alert_tuple

# ---------------------------------------------------------------------------
# One event
# ---------------------------------------------------------------------------

_names = st.text(min_size=1, max_size=6)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-10**6, max_value=10**6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _names
)
_extra = st.dictionaries(
    st.sampled_from(["threshold", "error_counts", "readings", "records", "z"]),
    _scalars | st.lists(_scalars, max_size=3),
    max_size=3,
)
_OBSERVER_AXES = ((), ("region",), ("resolver", "transport"), ("vantage",))


@st.composite
def health_events(draw) -> HealthEvent:
    source = draw(st.sampled_from(SOURCES))
    if source == "slo":
        axes = ("campaign", "vantage", "resolver", "transport")
        status = draw(st.sampled_from(("firing", "resolved")))
        severity = draw(st.sampled_from(SEVERITIES[1:]))
        own = {
            "round_index": draw(st.integers(min_value=0, max_value=50)),
            "detector": draw(st.sampled_from(("success_window", "cusum"))),
        }
    else:
        axes = draw(st.sampled_from(_OBSERVER_AXES))
        status = draw(st.sampled_from(("significant", "silence")))
        severity = (
            "none" if status == "silence"
            else draw(st.sampled_from(("warning", "critical")))
        )
        own = {"day": draw(st.integers(min_value=0, max_value=400))}
    return HealthEvent(
        source=source,
        name=draw(_names),
        group={axis: draw(_names) for axis in axes},
        at_ms=draw(st.floats(min_value=0.0, max_value=1e10)),
        status=status,
        severity=severity,
        value=draw(st.none() | st.floats(allow_nan=False, allow_infinity=False)),
        evidence={**draw(_extra), **own},
    )


@settings(max_examples=200, deadline=None)
@given(event=health_events())
def test_event_round_trips_through_dict_and_json(event):
    assert HealthEvent.from_dict(event.to_dict()) == event
    assert HealthEvent.from_dict(json.loads(event.to_json())) == event
    assert json.loads(event.to_json())["v"] == 2


@settings(max_examples=100, deadline=None)
@given(events=st.lists(health_events(), max_size=12), seed=st.integers(0, 2**16))
def test_sort_key_is_total_over_both_sources(events, seed):
    keys = [event.sort_key() for event in events]
    for a in keys:
        for b in keys:
            assert (a < b) + (a == b) + (a > b) == 1
    shuffled = list(events)
    random.Random(seed).shuffle(shuffled)
    log = EventLog()
    log.extend(shuffled)
    log.canonical_sort()
    assert [event.sort_key() for event in log] == sorted(keys)


_ABSENT = object()


def _event_line(**overrides) -> str:
    event = HealthEvent(
        source="observer", name="o", group={}, at_ms=0.0, status="silence",
        severity="none", value=None, evidence={"day": 0},
    ).to_dict()
    event.update(overrides)
    return json.dumps({k: v for k, v in event.items() if v is not _ABSENT})


@pytest.mark.parametrize(
    "overrides,complaint",
    [
        ({"v": _ABSENT}, "event version None"),
        ({"v": 1}, "event version 1"),
        ({"v": 3}, "event version 3"),
        ({"v": "2"}, "event version '2'"),
        ({"source": "alert"}, "unknown source"),
        ({"status": "STABLE"}, "unknown status"),
        ({"severity": "major"}, "unknown severity"),
    ],
)
def test_event_log_refuses_a_line_that_is_not_a_version_2_event(
    tmp_path, overrides, complaint
):
    path = tmp_path / "events.jsonl"
    path.write_text(_event_line() + "\n" + _event_line(**overrides) + "\n",
                    encoding="utf-8")
    with pytest.raises(ResultsFormatError) as excinfo:
        EventLog.load_jsonl(path)
    message = str(excinfo.value)
    assert f"events.jsonl:2: malformed health event: {complaint}" in message


# ---------------------------------------------------------------------------
# One tally
# ---------------------------------------------------------------------------

_outcomes = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),  # gap to the previous entry
        st.booleans(),
        st.none() | st.floats(min_value=0.0, max_value=5000.0),
        st.sampled_from(["connect_timeout", "tls_handshake", "dns_rcode", None]),
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(
    outcomes=_outcomes,
    records=st.integers(min_value=1, max_value=12),
    span_ms=st.none() | st.floats(min_value=1.0, max_value=300.0),
)
def test_window_tally_is_the_tally_of_its_entries(outcomes, records, span_ms):
    window = RollingWindow(WindowConfig(records=records, span_ms=span_ms))
    at = 0.0
    for gap, success, duration, error_class in outcomes:
        at += gap
        window.push(at, success, duration, error_class)
        fresh = Tally()
        for entry in window._entries:
            fresh.add(*entry[1:])
        kept = window.tally
        assert (kept.count, kept.successes, list(kept.durations)) == (
            fresh.count, fresh.successes, list(fresh.durations),
        )
        assert +kept.error_classes == +fresh.error_classes
        for kind in ("availability", "error_budget", "latency_p95", "latency_p99"):
            assert reading(kind, kept) == reading(kind, fresh)


def test_a_short_window_evicts_and_resolves_as_before():
    """The pinned EC2 campaign never fills a 60-record window.  An 8-record
    one evicts on nearly every record and resolves 133 of its 419 alerts;
    the digest was captured from the window's own counters, before the
    tally replaced them."""
    world = build_world(seed=0)
    campaign = Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in EC2_VANTAGE_NAMES],
        targets=world.targets(),
        config=ec2_campaign_config(rounds=6, seed=202),
    )
    monitor = Monitor(default_policy(window=WindowConfig(records=8, min_samples=4)))
    monitor.replay(campaign.run().records)
    monitor.finalize()
    alerts = [alert_tuple(event) for event in monitor.alerts]
    verdicts = [sorted(verdict.to_dict().items()) for verdict in monitor.verdicts()]
    scoreboard = [sorted(row.items()) for row in monitor.scoreboard().rows()]
    assert (len(alerts), sum(alert[5] == "resolved" for alert in alerts)) == (419, 133)
    assert _digest([alerts, verdicts, scoreboard]) == (
        "ca755b9353f692c0721621a9b6086010753a17e2f593d74a86310afa15ecc2d6"
    )


# ---------------------------------------------------------------------------
# One shape table, both spec files
# ---------------------------------------------------------------------------

_NAN = float("nan")
_SLO = {"name": "tail", "kind": "latency_p95", "threshold": 750.0}


def _policy(**sections):
    return {"slos": [_SLO], **sections}


def _fleet(**fields):
    entry = {"name": "avail", "kind": "availability", "scope": "fleet", **fields}
    return {"observers": [entry]}


#: id -> (loader, document, the named error, what the message names)
SPEC_CASES = {
    "window span_ms text": (
        SloPolicy, _policy(window={"span_ms": "abc"}), MonitorConfigError, "'span_ms'"),
    "window records true": (
        SloPolicy, _policy(window={"records": True}), MonitorConfigError, "'records'"),
    "window not a table": (
        SloPolicy, _policy(window=[1]), MonitorConfigError, "'window'"),
    "cusum enabled text": (
        SloPolicy, _policy(cusum={"enabled": "no"}), MonitorConfigError, "'enabled'"),
    "latency ceiling NaN": (
        SloPolicy, {"slos": [{**_SLO, "threshold": _NAN}]}, MonitorConfigError,
        "'threshold'"),
    "threshold text": (
        SloPolicy, {"slos": [{**_SLO, "threshold": "750"}]}, MonitorConfigError,
        "'threshold'"),
    "resolver selector a list": (
        SloPolicy, {"slos": [{**_SLO, "resolver": ["dns.google"]}]},
        MonitorConfigError, "'resolver'"),
    "slo entry not a table": (
        SloPolicy, {"slos": ["tail"]}, MonitorConfigError, "'slos'[0] must be a table"),
    "error_classes a string": (
        SloPolicy,
        {"slos": [{**_SLO, "kind": "error_budget", "threshold": 0.1,
                   "error_classes": "timeout"}]},
        MonitorConfigError, "'error_classes' must be a non-empty list of names"),
    "baseline alpha text": (
        ObserverRegistry, _fleet(baseline={"alpha": "x"}), ObserverConfigError,
        "'alpha'"),
    "baseline a list": (
        ObserverRegistry, _fleet(baseline=[1]), ObserverConfigError,
        "'baseline' must be a table"),
    "baseline relative text": (
        ObserverRegistry, _fleet(baseline={"relative": "yes"}), ObserverConfigError,
        "'relative'"),
    "baseline min_delta NaN": (
        ObserverRegistry, _fleet(baseline={"min_delta": _NAN}), ObserverConfigError,
        "'min_delta'"),
    "observer entry not a table": (
        ObserverRegistry, {"observers": ["avail"]}, ObserverConfigError,
        "'observers'[0] must be a table"),
    "min_samples fractional": (
        ObserverRegistry, _fleet(min_samples=2.5), ObserverConfigError,
        "'min_samples'"),
    "min_samples true": (
        ObserverRegistry, _fleet(min_samples=True), ObserverConfigError,
        "'min_samples'"),
    "weight NaN": (
        ObserverRegistry, _fleet(weight=_NAN), ObserverConfigError, "'weight'"),
}


@pytest.mark.parametrize("case", sorted(SPEC_CASES))
def test_spec_file_refuses_a_value_of_the_wrong_shape(tmp_path, case):
    loader, document, error, names = SPEC_CASES[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(error) as excinfo:
        loader.load(path)
    assert type(excinfo.value) is error and names in str(excinfo.value)


def test_well_shaped_numbers_still_load_as_before(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(_policy(window={"span_ms": 3600000})), encoding="utf-8")
    policy = SloPolicy.load(path)
    assert policy.window.span_ms == 3600000.0 and policy.specs[0].threshold == 750.0
    assert isinstance(policy.window.span_ms, float)
    assert not math.isnan(policy.specs[0].threshold)


@pytest.mark.parametrize(
    "argv,document",
    [
        (["monitor", "IN", "--slo", "SPEC"], _policy(window={"span_ms": "abc"})),
        (["observe", "--input", "IN", "--spec", "SPEC"], _fleet(baseline={"alpha": "x"})),
        (["observe", "--input", "IN", "--spec", "SPEC"], _fleet(baseline=[1])),
    ],
    ids=["monitor-span-text", "observe-alpha-text", "observe-baseline-list"],
)
def test_cli_prints_one_line_and_exits_2_on_a_bad_spec(tmp_path, capsys, argv, document):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(document), encoding="utf-8")
    records = tmp_path / "results.jsonl"
    records.write_text("", encoding="utf-8")
    argv = [{"IN": str(records), "SPEC": str(spec)}.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"repro-dns {argv[0]}: ") and err.count("\n") == 1
    assert "must be" in err
