"""Tests for the health monitor: SLO specs, detectors, engine.

The heart of the suite is the two equivalences the monitor promises:

* feeding the monitor a campaign's records in arrival order equals
  batch replay of the canonical record stream (identical alert JSONL);
* final verdicts from the monitor's embedded aggregates equal verdicts
  from a warehouse's persisted aggregates (identical pass/fail).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from repro.core.results import MeasurementRecord, ResultStore
from repro.core.runner import Campaign
from repro.errors import MonitorConfigError
from repro.files import spec_from_table, spec_to_table, write_text
from repro.experiments.campaigns import ec2_campaign_config
from repro.monitor import (
    ESTABLISHMENT_CLASS_VALUES,
    CusumConfig,
    CusumDetector,
    EventLog,
    EwmaTracker,
    HealthEvent,
    Monitor,
    RollingWindow,
    Scoreboard,
    SloPolicy,
    SloSpec,
    WindowConfig,
    default_policy,
    reading,
    verdicts_from_book,
)
from repro.store.aggregates import AggregateBook

from tests.conftest import MINI_CATALOG_HOSTNAMES, make_mini_world

#: SHA-256 of ``TestPrometheus``'s pinned registry exposed from its dumps.
SNAPSHOT_EXPOSITION_SHA256 = (
    "c1d1a9891d55b0fc0cb2ba756858c933be62ec307c1a67dbd47a61ed749d6b62"
)
STATE_EXPOSITION_SHA256 = (
    "a6f91160b8f86f2bfce3446bd15f2fcf21505ca2e30bca0ca14f7ef47a790e24"
)

MONITOR_HOSTNAMES = (
    "dns.google",        # healthy mainstream
    "dns.quad9.net",     # healthy mainstream
    "dns.brahma.world",  # far-vantage latency offender
    "doh.ffmuc.net",     # slow/flaky
    "dns.pumplex.com",   # dead: availability + error-budget breaches
)


def _run_campaign(seed: int, rounds: int = 6):
    world = make_mini_world(seed=seed)
    config = ec2_campaign_config(rounds=rounds, seed=seed)
    vantages = [world.vantage(name) for name in ("ec2-ohio", "ec2-seoul")]
    campaign = Campaign(
        network=world.network,
        vantages=vantages,
        targets=world.targets(MONITOR_HOSTNAMES),
        config=config,
    )
    return campaign.run()


@pytest.fixture(scope="module")
def monitored_run():
    """One campaign's records fed to a monitor in arrival order, record by
    record as the campaign stored them, shared by the equivalence tests."""
    store = _run_campaign(seed=5)
    monitor = Monitor(default_policy())
    monitor.replay(store.records)
    monitor.finalize()
    return store, monitor


# ---------------------------------------------------------------------------
# SLO specs and policies
# ---------------------------------------------------------------------------


class TestSloSpec:
    def test_default_policy_has_paper_baselines(self):
        policy = default_policy()
        by_name = {spec.name: spec for spec in policy.specs}
        assert by_name["availability-floor"].threshold == 0.94
        assert by_name["availability-floor"].severity == "critical"
        assert by_name["latency-p95-ceiling"].threshold == 750.0
        assert by_name["latency-p99-ceiling"].threshold == 1500.0
        assert by_name["establishment-error-budget"].threshold == 0.10

    def test_default_policy_uses_the_default_window_and_cusum(self):
        policy = default_policy()
        assert policy.window == WindowConfig()
        assert policy.cusum == CusumConfig()

    def test_establishment_classes_cover_the_paper_group(self):
        assert ESTABLISHMENT_CLASS_VALUES == (
            "connect_refused", "connect_timeout", "tls_handshake",
        )
        spec = SloSpec(name="b", kind="error_budget", threshold=0.1)
        assert spec.budget_classes() == ESTABLISHMENT_CLASS_VALUES

    def test_selectors_are_fnmatch_patterns(self):
        spec = SloSpec(
            name="ec2-only", kind="availability", threshold=0.9,
            vantage="ec2-*", resolver="dns.*",
        )
        assert spec.matches("ec2-seoul", "dns.google", "doh")
        assert not spec.matches("home-chicago", "dns.google", "doh")
        assert not spec.matches("ec2-ohio", "doh.ffmuc.net", "doh")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": "", "kind": "availability", "threshold": 0.9},
            {"name": "x", "kind": "nope", "threshold": 0.9},
            {"name": "x", "kind": "availability", "threshold": 1.5},
            {"name": "x", "kind": "error_budget", "threshold": -0.1},
            {"name": "x", "kind": "latency_p95", "threshold": 0.0},
            {"name": "x", "kind": "availability", "threshold": 0.9,
             "severity": "catastrophic"},
            {"name": "x", "kind": "availability", "threshold": 0.9,
             "error_classes": ("timeout",)},
            {"name": "x", "kind": "error_budget", "threshold": 0.1,
             "error_classes": ("made_up_class",)},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(MonitorConfigError):
            SloSpec(**kwargs)

    def test_duplicate_slo_names_rejected(self):
        spec = SloSpec(name="dup", kind="availability", threshold=0.9)
        with pytest.raises(MonitorConfigError, match="duplicate"):
            SloPolicy(specs=(spec, spec))

    def test_unknown_keys_rejected(self):
        with pytest.raises(MonitorConfigError, match="unknown keys"):
            spec_from_table(
                SloSpec,
                {"name": "x", "kind": "availability", "threshold": 0.9,
                 "treshold": 1.0},
                MonitorConfigError,
                "SLO entry",
            )
        with pytest.raises(MonitorConfigError, match="unknown keys: windows"):
            spec_from_table(
                SloPolicy, {"slos": [], "windows": {}}, MonitorConfigError, "SLO policy"
            )

    def test_window_and_cusum_validation(self):
        with pytest.raises(MonitorConfigError):
            WindowConfig(records=0)
        with pytest.raises(MonitorConfigError):
            WindowConfig(span_ms=-1.0)
        with pytest.raises(MonitorConfigError):
            CusumConfig(alpha=0.0)
        with pytest.raises(MonitorConfigError):
            CusumConfig(h=-1.0)


class TestPolicyFiles:
    POLICY_DICT = {
        "window": {"records": 30, "min_samples": 8},
        "cusum": {"enabled": True, "alpha": 0.3, "k": 0.5, "h": 6.0,
                  "min_samples": 10},
        "slos": [
            {"name": "avail", "kind": "availability", "threshold": 0.95,
             "severity": "critical"},
            {"name": "tail", "kind": "latency_p99", "threshold": 900.0,
             "vantage": "ec2-*"},
        ],
    }

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(self.POLICY_DICT), encoding="utf-8")
        policy = SloPolicy.load(path)
        assert policy.window.records == 30
        assert policy.cusum.alpha == 0.3
        assert [s.name for s in policy.specs] == ["avail", "tail"]
        saved = write_text(tmp_path / "saved.json", json.dumps(spec_to_table(policy)))
        assert SloPolicy.load(saved) == policy

    def test_toml_load_matches_json(self, tmp_path):
        pytest.importorskip("tomllib")
        toml_path = tmp_path / "policy.toml"
        toml_path.write_text(
            """
[window]
records = 30
min_samples = 8

[cusum]
enabled = true
alpha = 0.3
k = 0.5
h = 6.0
min_samples = 10

[[slos]]
name = "avail"
kind = "availability"
threshold = 0.95
severity = "critical"

[[slos]]
name = "tail"
kind = "latency_p99"
threshold = 900.0
vantage = "ec2-*"
""",
            encoding="utf-8",
        )
        json_path = tmp_path / "policy.json"
        json_path.write_text(json.dumps(self.POLICY_DICT), encoding="utf-8")
        assert SloPolicy.load(toml_path) == SloPolicy.load(json_path)

    def test_toml_without_tomllib_names_the_interpreter_requirement(
        self, tmp_path, monkeypatch
    ):
        """``requires-python`` is 3.9 and ``tomllib`` arrived in 3.11: a
        ``.toml`` policy there is a config error, not ModuleNotFoundError."""
        import sys

        path = tmp_path / "policy.toml"
        path.write_text("[window]\nrecords = 30\n", encoding="utf-8")
        monkeypatch.setitem(sys.modules, "tomllib", None)
        with pytest.raises(MonitorConfigError) as excinfo:
            SloPolicy.load(path)
        message = str(excinfo.value)
        assert "policy.toml" in message
        assert "Python 3.11" in message and "JSON" in message

    def test_malformed_and_missing_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(MonitorConfigError, match="malformed"):
            SloPolicy.load(bad)
        with pytest.raises(MonitorConfigError, match="unreadable"):
            SloPolicy.load(tmp_path / "absent.json")
        with pytest.raises(MonitorConfigError, match="non-empty"):
            spec_from_table(SloPolicy, {"slos": []}, MonitorConfigError, "SLO policy")


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


class TestRollingWindow:
    def test_record_cap_eviction(self):
        window = RollingWindow(WindowConfig(records=3, min_samples=1))
        for i in range(5):
            window.push(float(i), success=True, duration_ms=10.0, error_class=None)
        assert len(window) == window.tally.count == 3
        assert list(window.tally.durations) == [10.0] * 3
        assert window.span == (2.0, 4.0)

    def test_span_eviction_on_virtual_clock(self):
        window = RollingWindow(
            WindowConfig(records=100, span_ms=50.0, min_samples=1)
        )
        window.push(0.0, True, 1.0, None)
        window.push(10.0, True, 1.0, None)
        window.push(70.0, True, 1.0, None)  # horizon 20.0 evicts the first two
        assert len(window) == window.tally.count == 1
        assert window.span == (70.0, 70.0)

    def test_success_ratio_and_error_share(self):
        window = RollingWindow(WindowConfig(records=10, min_samples=1))
        window.push(0.0, True, 5.0, None)
        window.push(1.0, False, None, "connect_refused")
        window.push(2.0, False, None, "dns_rcode")
        window.push(3.0, True, 7.0, None)
        assert reading("availability", window.tally) == 0.5
        assert window.tally.count - window.tally.successes == 2
        assert reading(
            "error_budget", window.tally, ("connect_refused", "tls_handshake")
        ) == 0.25
        assert window.error_counts() == {"connect_refused": 1, "dns_rcode": 1}

    def test_eviction_keeps_counters_consistent(self):
        window = RollingWindow(WindowConfig(records=2, min_samples=1))
        window.push(0.0, False, None, "timeout")
        window.push(1.0, True, 3.0, None)
        window.push(2.0, True, 4.0, None)  # evicts the failure
        assert window.tally.count == window.tally.successes == 2
        assert window.error_counts() == {}
        assert reading("availability", window.tally) == 1.0
        window.push(3.0, True, 5.0, None)  # evicts a success: its duration goes
        assert list(window.tally.durations) == [4.0, 5.0]

    def test_latency_quantile_matches_analysis_stats(self):
        from repro.analysis.stats import quantile

        window = RollingWindow(WindowConfig(records=10, min_samples=1))
        values = [12.0, 55.0, 3.0, 90.0, 41.0]
        for i, value in enumerate(values):
            window.push(float(i), True, value, None)
        assert reading("latency_p95", window.tally) == quantile(values, 0.95)
        assert window.tally.latency_quantile(0.5) == quantile(values, 0.5)

    def test_quantile_none_without_successes(self):
        window = RollingWindow(WindowConfig(records=10, min_samples=1))
        window.push(0.0, False, None, "timeout")
        assert reading("latency_p99", window.tally) is None


class TestEwmaAndCusum:
    def test_ewma_converges_to_constant(self):
        tracker = EwmaTracker(alpha=0.5)
        for _ in range(50):
            tracker.update(100.0)
        assert tracker.mean == pytest.approx(100.0)
        assert tracker.std == pytest.approx(0.0, abs=1e-9)

    def test_ewma_variance_tracks_spread(self):
        tracker = EwmaTracker(alpha=0.2)
        for i in range(200):
            tracker.update(100.0 + (10.0 if i % 2 else -10.0))
        assert 5.0 < tracker.std < 15.0

    def test_cusum_fires_on_sustained_shift_and_resets(self):
        detector = CusumDetector(CusumConfig(alpha=0.1, k=0.5, h=5.0, min_samples=10))
        crossings = []
        for i in range(60):
            noise = 5.0 if i % 2 else -5.0
            value = 100.0 + noise + (80.0 if i >= 40 else 0.0)
            fired = detector.update(value)
            if fired is not None:
                crossings.append(i)
        assert crossings, "sustained +80ms shift must fire"
        assert min(crossings) >= 40
        assert detector.alarms == len(crossings)

    def test_cusum_quiet_on_stationary_noise(self):
        detector = CusumDetector(CusumConfig(alpha=0.1, k=0.5, h=8.0, min_samples=10))
        for i in range(300):
            detector.update(100.0 + (7.0 if i % 2 else -7.0))
        assert detector.alarms == 0

    def test_cusum_disabled_never_fires(self):
        detector = CusumDetector(
            CusumConfig(enabled=False, alpha=0.1, k=0.5, h=1.0, min_samples=2)
        )
        for i in range(50):
            assert detector.update(float(i * 100)) is None


# ---------------------------------------------------------------------------
# Alerts and scoreboard
# ---------------------------------------------------------------------------


def _alert(round_index=1, at_ms=10.0, resolver="r", severity="critical",
           name="availability-floor", evidence=None) -> HealthEvent:
    return HealthEvent(
        source="slo", name=name,
        group={"campaign": "c", "vantage": "v", "resolver": resolver,
               "transport": "doh"},
        at_ms=at_ms, status="firing", severity=severity, value=0.5,
        evidence={"round_index": round_index, "detector": "success_window",
                  **(evidence or {})},
    )


class TestAlertLog:
    def test_canonical_sort_drops_arrival_order(self):
        log_a, log_b = EventLog(), EventLog()
        first = _alert(at_ms=5.0, round_index=0)
        second = _alert(at_ms=7.0, round_index=0, resolver="zzz")
        third = _alert(at_ms=1.0, round_index=2)
        for log, order in ((log_a, [third, first, second]),
                           (log_b, [second, third, first])):
            for event in order:
                log.emit(event)
            log.canonical_sort()
        assert log_a.to_jsonl() == log_b.to_jsonl()
        assert [e.at_ms for e in log_a] == [5.0, 7.0, 1.0]

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit(_alert(evidence={"window": {"count": 12}}))
        path = log.save_jsonl(tmp_path / "alerts.jsonl")
        loaded = EventLog.load_jsonl(path)
        assert loaded.to_jsonl() == log.to_jsonl()
        assert loaded.events() == log.events()
        assert loaded.events()[0].evidence["window"] == {"count": 12}

    def test_malformed_line_names_position(self, tmp_path):
        from repro.errors import ResultsFormatError

        path = tmp_path / "alerts.jsonl"
        path.write_text('{"campaign": "c"}\n', encoding="utf-8")
        with pytest.raises(ResultsFormatError, match="alerts.jsonl:1"):
            EventLog.load_jsonl(path)

    def test_with_status(self):
        log = EventLog()
        log.extend([_alert(), _alert(severity="warning", name="latency-p95-ceiling")])
        assert log.with_status("firing") == log.events()
        assert log.with_status("resolved") == []


class TestScoreboard:
    def _verdict(self, slo="a", passed=True, severity="warning",
                 vantage="v", resolver="r"):
        from repro.monitor import SloVerdict

        return SloVerdict(
            slo=slo, vantage=vantage, resolver=resolver, transport="doh",
            metric="success_rate", value=0.9, threshold=0.94,
            passed=passed, severity=severity, samples=50,
        )

    def test_states(self):
        verdicts = [
            self._verdict(resolver="ok"),
            self._verdict(resolver="degraded", passed=False),
            self._verdict(resolver="failing", passed=False, severity="critical"),
        ]
        scoreboard = Scoreboard.from_verdicts(verdicts)
        assert scoreboard.status("v", "ok") == "OK"
        assert scoreboard.status("v", "degraded") == "DEGRADED"
        assert scoreboard.status("v", "failing") == "FAILING"
        assert scoreboard.worst_state() == "FAILING"
        assert scoreboard.counts() == {
            "OK": 1, "WATCH": 0, "DEGRADED": 1, "FAILING": 1,
        }

    def test_a_failed_info_objective_reads_watch(self):
        scoreboard = Scoreboard.from_verdicts([
            self._verdict(resolver="noted", passed=False, severity="info"),
            self._verdict(resolver="noted", slo="b"),
        ])
        assert scoreboard.status("v", "noted") == "WATCH"
        assert scoreboard.worst_state() == "WATCH"

    def test_render_is_a_markdown_table(self):
        scoreboard = Scoreboard.from_verdicts(
            [self._verdict(passed=False)], [_alert()]
        )
        text = scoreboard.render()
        assert text.splitlines()[0].startswith("| vantage")
        assert "DEGRADED" in text and "| 1" in text


# ---------------------------------------------------------------------------
# The engine: streaming/batch equivalence
# ---------------------------------------------------------------------------


class TestMonitorEquivalence:
    def test_monitor_saw_every_record(self, monitored_run):
        store, monitor = monitored_run
        assert monitor.records_seen == len(store)

    def test_alerts_fired_on_the_known_offenders(self, monitored_run):
        _, monitor = monitored_run
        resolvers = {e.group["resolver"] for e in monitor.alerts}
        assert "dns.pumplex.com" in resolvers  # dead: availability alerts
        assert "dns.google" not in resolvers
        assert all(e.source == "slo" for e in monitor.alerts)
        slos = {e.name for e in monitor.alerts}
        assert "availability-floor" in slos

    def test_streaming_equals_canonical_replay(self, monitored_run):
        store, monitor = monitored_run
        canonical = ResultStore()
        canonical.extend(store.records)
        canonical.canonical_sort()
        replayed = Monitor(default_policy())
        replayed.replay(canonical.records)
        replayed.finalize()
        assert replayed.alerts.to_jsonl() == monitor.alerts.to_jsonl()
        assert [v.to_dict() for v in replayed.verdicts()] == [
            v.to_dict() for v in monitor.verdicts()
        ]

    def test_live_verdicts_equal_aggregate_book_verdicts(self, monitored_run):
        store, monitor = monitored_run
        book = AggregateBook.from_records(store.records)
        assert [v.to_dict() for v in verdicts_from_book(book, monitor.policy)] == [
            v.to_dict() for v in monitor.verdicts()
        ]

    def test_live_verdicts_equal_warehouse_aggregates(self, monitored_run, tmp_path):
        from repro.store import Warehouse

        store, monitor = monitored_run
        warehouse = Warehouse.from_records(store.records, tmp_path / "wh")
        assert [
            v.to_dict()
            for v in verdicts_from_book(warehouse.aggregates(), monitor.policy)
        ] == [v.to_dict() for v in monitor.verdicts()]

    def test_warehouse_stream_replay_equals_live_alerts(self, monitored_run, tmp_path):
        from repro.store import Warehouse

        store, monitor = monitored_run
        warehouse = Warehouse.from_records(store.records, tmp_path / "wh")
        replayed = Monitor(default_policy())
        replayed.replay(warehouse.iter_sorted())
        replayed.finalize()
        assert replayed.alerts.to_jsonl() == monitor.alerts.to_jsonl()

    def test_verdicts_fail_the_dead_resolver(self, monitored_run):
        _, monitor = monitored_run
        failed = [v for v in monitor.verdicts() if not v.passed]
        failed_keys = {(v.resolver, v.slo) for v in failed}
        assert ("dns.pumplex.com", "availability-floor") in failed_keys
        assert ("dns.pumplex.com", "establishment-error-budget") in failed_keys
        # The healthy mainstream resolver passes everything; dns.google may
        # breach warning-level tail ceilings but never a critical objective.
        assert all(v.resolver != "dns.quad9.net" for v in failed)
        assert all(
            v.severity == "warning"
            for v in failed
            if v.resolver == "dns.google"
        )

    def test_scoreboard_marks_dead_resolver_failing(self, monitored_run):
        _, monitor = monitored_run
        scoreboard = monitor.scoreboard()
        assert scoreboard.status("ec2-ohio", "dns.pumplex.com") == "FAILING"
        assert scoreboard.status("ec2-ohio", "dns.quad9.net") == "OK"


class TestMonitorEngineUnits:
    def _record(self, *, success=True, duration=20.0, error=None, at=0.0,
                round_index=0, resolver="r", vantage="v", kind="dns_query"):
        return MeasurementRecord(
            campaign="c", vantage=vantage, resolver=resolver, kind=kind,
            transport="doh", domain="example.com", round_index=round_index,
            started_at_ms=at, duration_ms=duration, success=success,
            error_class=error,
        )

    def _policy(self, **window):
        window.setdefault("records", 10)
        window.setdefault("min_samples", 4)
        return replace(default_policy(), window=WindowConfig(**window))

    def test_fire_then_resolve_hysteresis(self):
        monitor = Monitor(self._policy())
        at = 0.0
        for _ in range(4):
            monitor.observe(self._record(at=at)); at += 1
        for _ in range(4):
            monitor.observe(
                self._record(success=False, duration=None,
                             error="connect_timeout", at=at)
            ); at += 1
        firing = [e for e in monitor.alerts if e.name == "availability-floor"]
        assert [e.status for e in firing] == ["firing"]
        # window refills with successes -> breach clears exactly once
        for _ in range(20):
            monitor.observe(self._record(at=at)); at += 1
        events = [e for e in monitor.alerts if e.name == "availability-floor"]
        assert [e.status for e in events] == ["firing", "resolved"]

    def test_no_evaluation_below_min_samples(self):
        monitor = Monitor(self._policy(min_samples=8))
        for i in range(7):
            monitor.observe(
                self._record(success=False, duration=None,
                             error="connect_timeout", at=float(i))
            )
        assert len(monitor.alerts) == 0

    def test_pings_and_attempts_skip_detectors_but_enter_book(self):
        monitor = Monitor(self._policy())
        for i in range(10):
            monitor.observe(
                self._record(kind="ping", success=False, duration=None,
                             error="timeout", at=float(i))
            )
            monitor.observe(
                self._record(kind="dns_query_attempt", success=False,
                             duration=None, error="connect_timeout", at=float(i))
            )
        assert monitor.group_count == 0
        assert len(monitor.alerts) == 0
        assert monitor.records_seen == 20
        assert [v.samples for v in monitor.verdicts()] == []  # no dns_query group

    def test_error_burst_alert_carries_class_evidence(self):
        monitor = Monitor(self._policy())
        at = 0.0
        for _ in range(4):
            monitor.observe(self._record(at=at)); at += 1
        for _ in range(2):
            monitor.observe(
                self._record(success=False, duration=None,
                             error="tls_handshake", at=at)
            ); at += 1
        bursts = [e for e in monitor.alerts if e.name == "establishment-error-budget"]
        assert bursts and bursts[0].evidence["detector"] == "error_burst"
        assert bursts[0].evidence["error_counts"] == {"tls_handshake": 1}
        assert bursts[0].evidence["classes"] == list(ESTABLISHMENT_CLASS_VALUES)

    def test_latency_ceiling_alert(self):
        monitor = Monitor(self._policy())
        at = 0.0
        for _ in range(4):
            monitor.observe(self._record(duration=2000.0, at=at)); at += 1
        slos = {e.name for e in monitor.alerts}
        assert {"latency-p95-ceiling", "latency-p99-ceiling"} <= slos

    def test_cusum_alert_on_latency_step(self):
        policy = replace(
            default_policy(),
            window=WindowConfig(records=200, min_samples=200),
            cusum=CusumConfig(alpha=0.1, k=0.5, h=5.0, min_samples=10),
        )
        monitor = Monitor(policy)
        at = 0.0
        for i in range(40):
            jitter = 5.0 if i % 2 else -5.0
            monitor.observe(self._record(duration=100.0 + jitter, at=at)); at += 1
        for i in range(20):
            jitter = 5.0 if i % 2 else -5.0
            monitor.observe(self._record(duration=300.0 + jitter, at=at)); at += 1
        shifts = [e for e in monitor.alerts if e.evidence["detector"] == "cusum"]
        assert shifts, "latency step must raise a cusum alert"
        assert shifts[0].name == "latency-shift"
        assert shifts[0].value > 5.0

    def test_finalize_exports_gauges(self):
        from repro.obs import MetricsRegistry

        monitor = Monitor(self._policy())
        for i in range(6):
            monitor.observe(self._record(at=float(i)))
        metrics = MetricsRegistry(enabled=True)
        monitor.finalize(metrics)
        assert metrics.gauge_value("monitor.groups") == 1.0
        assert metrics.gauge_value("monitor.records_seen") == 6.0
        assert metrics.gauge_value(
            "monitor.success_ratio", vantage="v", resolver="r", transport="doh"
        ) == 1.0
        ewma = metrics.gauge_value(
            "monitor.ewma_ms", vantage="v", resolver="r", transport="doh"
        )
        assert ewma == pytest.approx(20.0)

    def test_quantile_verdict_none_value_passes(self):
        book = AggregateBook()
        for i in range(20):
            book.observe(
                self._record(success=False, duration=None,
                             error="dns_rcode", at=float(i))
            )
        verdicts = verdicts_from_book(book, self._policy())
        tails = [v for v in verdicts if v.metric in ("latency_p95", "latency_p99")]
        assert tails and all(v.value is None and v.passed for v in tails)


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


class TestPrometheus:
    def _registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        registry.inc("campaign.queries", transport="doh", kind="dns_query")
        registry.inc("campaign.queries", transport="doh", kind="dns_query")
        registry.set_gauge("campaign.records", 42.0)
        for value in (1.0, 3.0, 120.0):
            registry.observe("campaign.query_ms", value, transport="doh")
        return registry

    def test_counter_and_gauge_lines(self):
        text = self._registry().to_prometheus()
        assert '# TYPE campaign_queries counter' in text
        assert 'campaign_queries{kind="dns_query",transport="doh"} 2' in text
        assert "# TYPE campaign_records gauge" in text
        assert "campaign_records 42" in text

    def test_histogram_exposition_is_cumulative(self):
        text = self._registry().to_prometheus()
        assert "# TYPE campaign_query_ms histogram" in text
        assert 'campaign_query_ms_bucket{le="0.5",transport="doh"} 0' in text
        assert 'campaign_query_ms_bucket{le="5",transport="doh"} 2' in text
        assert 'campaign_query_ms_bucket{le="+Inf",transport="doh"} 3' in text
        assert 'campaign_query_ms_sum{transport="doh"} 124' in text
        assert 'campaign_query_ms_count{transport="doh"} 3' in text

    def test_equal_state_means_equal_exposition(self):
        from repro.obs import MetricsRegistry

        a, b = self._registry(), MetricsRegistry.from_states(
            [self._registry().to_state()]
        )
        assert a.to_prometheus() == b.to_prometheus()

    def test_state_dump_round_trips_through_exposition(self, tmp_path):
        from repro.obs import MetricsRegistry
        from repro.obs.metrics import exposition_from_dump

        registry = self._registry()
        path = tmp_path / "state.json"
        registry.save_state_json(path)
        dump = json.loads(path.read_text(encoding="utf-8"))
        assert exposition_from_dump(dump) == registry.to_prometheus()

    def test_exposition_bytes_are_pinned(self):
        """One registry's snapshot dump and state dump, exposed as text: the
        digests were taken before the two exposition paths shared a writer."""
        import hashlib

        from repro.obs.metrics import exposition_from_dump

        registry = self._registry()
        registry.inc("campaign.errors", transport="dot", error_class="timeout")
        registry.set_gauge("campaign.queries", 9.0, transport="doq")
        registry.set_gauge("store.ingest_seconds", 0.125)
        for value in (0.2, 7.0, 45.0, 60_000.0):
            registry.observe("net.rtt_ms", value, vantage="ec2-ohio")
        digests = [
            hashlib.sha256(exposition_from_dump(dump).encode("utf-8")).hexdigest()
            for dump in (registry.snapshot(), registry.to_state())
        ]
        assert digests == [SNAPSHOT_EXPOSITION_SHA256, STATE_EXPOSITION_SHA256]

    def test_snapshot_dump_exposes_summaries(self):
        from repro.obs.metrics import exposition_from_dump

        text = exposition_from_dump(self._registry().snapshot())
        assert "# TYPE campaign_query_ms summary" in text
        assert 'quantile="0.95"' in text
        assert 'campaign_query_ms_count{transport="doh"} 3' in text

    def test_label_values_are_escaped(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        registry.inc("weird.metric", value='say "hi"')
        line = registry.to_prometheus().splitlines()[1]
        assert line == 'weird_metric{value="say \\"hi\\""} 1'

    def test_empty_registry_exposes_nothing(self):
        from repro.obs import MetricsRegistry

        assert MetricsRegistry(enabled=True).to_prometheus() == ""

    def test_non_finite_and_float_values(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        registry.set_gauge("g.nan", math.nan)
        registry.set_gauge("g.frac", 0.25)
        text = registry.to_prometheus()
        assert "g_nan NaN" in text
        assert "g_frac 0.25" in text
