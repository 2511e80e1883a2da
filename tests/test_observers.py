"""Unit tests for the longitudinal observer fleet.

Covers the spec registry (validation, file loading), the significance
model (warm-up, grading, one-shot baselines), the per-observer-day
debounce, the world-health index, and the fleet end-to-end on synthetic
record streams with known shifts.
"""

from __future__ import annotations

import json

import pytest

from repro.core.results import MeasurementRecord
from repro.core.scheduler import MS_PER_DAY
from repro.errors import ObserverConfigError
from repro.files import spec_to_table, write_text
from repro.monitor import EventLog, HealthEvent
from repro.obs.metrics import MetricsRegistry
from repro.observers import (
    BaselineConfig,
    ObserverFleet,
    ObserverRegistry,
    ObserverSpec,
    SignificanceModel,
    WorldHealthIndex,
    band_of,
    debounce_day,
    default_registry,
    scaled_registry,
)
from repro.observers.spec import FleetSpec


def make_record(
    resolver: str = "dns.google",
    day: int = 0,
    success: bool = True,
    duration_ms: float = 40.0,
    transport: str = "doh",
    error_class: str = "connect_timeout",
    vantage: str = "ec2-ohio",
    domain: str = "example.com",
    round_index: int = 0,
    offset_ms: float = 0.0,
    kind: str = "dns_query",
    campaign: str = "obs-test",
    response_wire: str = None,
) -> MeasurementRecord:
    return MeasurementRecord(
        campaign=campaign,
        vantage=vantage,
        resolver=resolver,
        kind=kind,
        transport=transport,
        domain=domain,
        round_index=round_index,
        started_at_ms=day * MS_PER_DAY + offset_ms,
        duration_ms=duration_ms if success else None,
        success=success,
        error_class=None if success else error_class,
        response_wire=response_wire,
    )


def day_batch(day, resolver="dns.google", n=10, failures=0, duration_ms=40.0, **kw):
    records = []
    for i in range(n):
        records.append(
            make_record(
                resolver=resolver,
                day=day,
                success=i >= failures,
                duration_ms=duration_ms,
                round_index=i,
                offset_ms=float(i),
                **kw,
            )
        )
    return records


AVAIL_SPEC = ObserverSpec(
    name="avail",
    kind="availability",
    scope="resolver",
    min_samples=5,
    baseline=BaselineConfig(alpha=0.2, min_days=3, min_delta=0.05, std_floor=0.02),
)


class TestSpecs:
    def test_kind_and_scope_validation(self):
        with pytest.raises(ObserverConfigError):
            ObserverSpec(name="x", kind="nope", scope="fleet")
        with pytest.raises(ObserverConfigError):
            ObserverSpec(name="x", kind="availability", scope="planet")
        with pytest.raises(ObserverConfigError):
            ObserverSpec(name="", kind="availability", scope="fleet")
        with pytest.raises(ObserverConfigError):
            ObserverSpec(name="x", kind="availability", scope="fleet", weight=0.0)

    def test_baseline_validation(self):
        with pytest.raises(ObserverConfigError):
            BaselineConfig(alpha=0.0)
        with pytest.raises(ObserverConfigError):
            BaselineConfig(z_warning=5.0, z_critical=3.0)
        with pytest.raises(ObserverConfigError):
            BaselineConfig(std_floor=0.0)

    def test_default_registry_has_the_five(self):
        registry = default_registry()
        assert registry.names() == [
            "answer-disagreement",
            "doq-adoption",
            "establishment-error-share",
            "region-availability",
            "resolver-p95-drift",
        ]
        kinds = {spec.kind for spec in registry.specs()}
        assert kinds == {
            "availability",
            "latency_p95",
            "error_share",
            "adoption_share",
            "disagreement_rate",
        }

    def test_registry_rejects_duplicates_and_unknown(self):
        registry = ObserverRegistry([AVAIL_SPEC])
        with pytest.raises(ObserverConfigError):
            registry.register(AVAIL_SPEC)
        with pytest.raises(ObserverConfigError):
            registry.get("missing")
        assert registry.select(["avail"]) == [AVAIL_SPEC]

    def test_registry_json_round_trip(self, tmp_path):
        fleet = FleetSpec(tuple(default_registry().specs()))
        path = write_text(tmp_path / "fleet.json", json.dumps(spec_to_table(fleet)))
        loaded = ObserverRegistry.load(path)
        assert [spec_to_table(s) for s in loaded.specs()] == [
            spec_to_table(s) for s in default_registry().specs()
        ]

    def test_registry_toml_load(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "fleet.toml"
        path.write_text(
            "[[observers]]\n"
            'name = "t"\nkind = "availability"\nscope = "fleet"\n'
            "min_samples = 3\n[observers.baseline]\nmin_days = 2\n",
            encoding="utf-8",
        )
        registry = ObserverRegistry.load(path)
        assert registry.get("t").baseline.min_days == 2

    def test_registry_load_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        with pytest.raises(ObserverConfigError):
            ObserverRegistry.load(empty)
        bad = tmp_path / "bad.json"
        bad.write_text('{"observers": [{"name": "x"}]}', encoding="utf-8")
        with pytest.raises(ObserverConfigError):
            ObserverRegistry.load(bad)

    def test_scaled_registry(self):
        scaled = scaled_registry(0.5)
        for spec, base in zip(scaled.specs(), default_registry().specs()):
            assert spec.min_samples == max(1, int(base.min_samples * 0.5))
        with pytest.raises(ObserverConfigError):
            scaled_registry(0.0)


class TestSignificanceModel:
    def test_warm_up_produces_no_candidates(self):
        model = SignificanceModel(AVAIL_SPEC)
        for _ in range(AVAIL_SPEC.baseline.min_days):
            assert not model.warmed_up
            candidate, zscore = model.evaluate(("g",), 1.0, 10)
            assert candidate is None and zscore is None
        assert model.warmed_up
        _, zscore = model.evaluate(("g",), 1.0, 10)
        assert zscore is not None

    def test_stable_stream_stays_quiet(self):
        model = SignificanceModel(AVAIL_SPEC)
        for _ in range(30):
            candidate, _ = model.evaluate(("g",), 1.0, 10)
            assert candidate is None

    def test_shift_fires_once_then_becomes_normal(self):
        model = SignificanceModel(AVAIL_SPEC)
        for _ in range(10):
            model.evaluate(("g",), 1.0, 10)
        candidate, zscore = model.evaluate(("g",), 0.5, 10)
        assert candidate is not None
        assert candidate.severity == "critical"
        assert candidate.direction == "down"
        assert zscore < 0
        # The baseline absorbs the shift: staying at 0.5 re-fires at most
        # briefly and then goes quiet (one-shot semantics).
        fired = 0
        for _ in range(30):
            candidate, _ = model.evaluate(("g",), 0.5, 10)
            fired += candidate is not None
        assert fired <= 3

    def test_relative_min_delta(self):
        spec = ObserverSpec(
            name="lat",
            kind="latency_p95",
            scope="resolver",
            min_samples=1,
            baseline=BaselineConfig(
                min_days=3, min_delta=0.5, relative=True, std_floor=1.0
            ),
        )
        model = SignificanceModel(spec)
        for _ in range(10):
            model.evaluate(("g",), 100.0, 5)
        # +20% is surprising by z but below the 50% relative gate.
        candidate, _ = model.evaluate(("g",), 120.0, 5)
        assert candidate is None
        candidate, _ = model.evaluate(("g",), 200.0, 5)
        assert candidate is not None


class TestDebounce:
    def test_most_severe_wins_and_others_suppressed(self):
        models = {g: SignificanceModel(AVAIL_SPEC) for g in ("a", "b", "c")}
        for _ in range(10):
            for model in models.values():
                model.evaluate(("x",), 1.0, 10)
        candidates = []
        for group, value in (("a", 0.9), ("b", 0.2), ("c", 0.85)):
            candidate, _ = models[group].evaluate((group,), value, 10)
            if candidate is not None:
                candidates.append(candidate)
        assert len(candidates) == 3
        event = debounce_day(AVAIL_SPEC, 7, 7 * MS_PER_DAY, candidates, 3, 30, 0, 9.0)
        assert event.status == "significant"
        assert event.group == {"resolver": "b"}  # the deepest dip
        assert event.evidence["suppressed"] == 2
        assert event.evidence["suppressed_groups"] == [
            {"resolver": "c"}, {"resolver": "a"},
        ]

    def test_silence_checkpoint_carries_coverage(self):
        event = debounce_day(AVAIL_SPEC, 3, 3 * MS_PER_DAY, [], 4, 40, 1, 0.7)
        assert event.status == "silence"
        assert event.group == {}
        assert event.severity == "none"
        assert event.evidence == {
            "day": 3,
            "readings": 4,
            "records": 40,
            "warming": 1,
            "max_abs_z": 0.7,
        }

    def test_event_json_round_trip(self):
        event = debounce_day(AVAIL_SPEC, 3, 3 * MS_PER_DAY, [], 4, 40, 1, None)
        again = HealthEvent.from_dict(json.loads(event.to_json()))
        assert again == event and again.to_json() == event.to_json()

    def test_log_round_trip(self, tmp_path):
        log = EventLog()
        log.emit(debounce_day(AVAIL_SPEC, 2, 2 * MS_PER_DAY, [], 1, 10, 0, None))
        log.emit(debounce_day(AVAIL_SPEC, 1, 1 * MS_PER_DAY, [], 1, 10, 1, 0.2))
        log.canonical_sort()
        path = log.save_jsonl(tmp_path / "events.jsonl")
        loaded = EventLog.load_jsonl(path)
        assert loaded.to_jsonl() == log.to_jsonl()
        assert [e.evidence["day"] for e in loaded] == [1, 2]


class TestWorldHealthIndex:
    def test_bands(self):
        from repro.monitor import HEALTH_STATES

        assert [band_of(score) for score in (95.0, 70.0, 50.0, 0.0)] == list(
            HEALTH_STATES
        )

    def _significant(self, observer, day, severity):
        return HealthEvent(
            source="observer", name=observer, group={"region": "g"},
            at_ms=day * MS_PER_DAY, status="significant", severity=severity,
            value=0.5, evidence={"day": day, "z": -25.0, "direction": "down"},
        )

    def _silence(self, observer, day):
        return HealthEvent(
            source="observer", name=observer, group={}, at_ms=day * MS_PER_DAY,
            status="silence", severity="none", value=None,
            evidence={"day": day, "readings": 1, "records": 10},
        )

    def test_scores_weights_and_clamp(self):
        spec = ObserverSpec(name="w2", kind="availability", scope="fleet", weight=2.0)
        events = [
            self._silence("w2", 0),
            self._significant("w2", 1, "warning"),  # 15 * 2.0 = 30
            self._significant("w2", 2, "critical"),  # 40 * 2.0 = 80
        ]
        index = WorldHealthIndex.from_events(events, [spec], MS_PER_DAY)
        scores = {s.day: s.score for s in index}
        assert scores == {0: 100.0, 1: 70.0, 2: 20.0}
        assert index.min_score() == 20.0
        assert not index.healthy(70.0)
        assert index.latest().contributions == {"w2": 80.0}

    def test_unmeasured_days_produce_no_samples(self):
        index = WorldHealthIndex.from_events(
            [self._silence("a", 0), self._silence("a", 9)], [], MS_PER_DAY
        )
        assert [s.day for s in index] == [0, 9]
        assert index.healthy()

    def test_empty_index_is_vacuously_healthy(self):
        index = WorldHealthIndex.from_events([], [], MS_PER_DAY)
        assert index.healthy()
        assert index.latest() is None
        assert index.worst_band() == "OK"

    def test_jsonl_round_trip(self, tmp_path):
        index = WorldHealthIndex.from_events(
            [self._significant("a", 3, "warning")], [], MS_PER_DAY
        )
        path = index.save_jsonl(tmp_path / "index.jsonl")
        loaded = WorldHealthIndex.load_jsonl(path)
        assert loaded.to_jsonl() == index.to_jsonl()


class TestFleet:
    def _stream_with_dip(self, dip_day=6, days=10):
        records = []
        for day in range(days):
            failures = 8 if day == dip_day else 0
            records.extend(day_batch(day, failures=failures))
        return records

    def test_availability_dip_fires_one_event(self):
        fleet = ObserverFleet([AVAIL_SPEC])
        fleet.replay(self._stream_with_dip())
        report = fleet.finalize()
        significant = report.events.with_status("significant")
        assert len(significant) == 1
        event = significant[0]
        assert event.evidence["day"] == 6
        assert event.name == "avail"
        assert event.group == {"resolver": "dns.google"}
        assert event.evidence["direction"] == "down"
        # Every other measured day closes with a silence checkpoint.
        silences = report.events.with_status("silence")
        assert {e.evidence["day"] for e in silences} == set(range(10)) - {6}
        assert len(silences) == 9

    def test_thin_days_are_gaps_not_silences(self):
        records = day_batch(0) + day_batch(1, n=2) + day_batch(2)
        fleet = ObserverFleet([AVAIL_SPEC])
        fleet.replay(records)
        report = fleet.finalize()
        assert {e.evidence["day"] for e in report.events} == {0, 2}
        assert report.days_observed == 2

    def test_non_query_records_ignored(self):
        fleet = ObserverFleet([AVAIL_SPEC])
        fleet.replay([make_record(kind="ping"), make_record(kind="dns_query_attempt")])
        report = fleet.finalize()
        assert report.records_seen == 0
        assert len(report.events) == 0

    def test_latency_drift_observer(self):
        spec = ObserverSpec(
            name="p95",
            kind="latency_p95",
            scope="resolver",
            min_samples=5,
            baseline=BaselineConfig(
                min_days=3, min_delta=0.25, relative=True, std_floor=5.0
            ),
        )
        records = []
        for day in range(8):
            records.extend(day_batch(day, duration_ms=40.0 if day < 7 else 400.0))
        fleet = ObserverFleet([spec])
        fleet.replay(records)
        report = fleet.finalize()
        significant = report.events.with_status("significant")
        assert [e.evidence["day"] for e in significant] == [7]
        assert significant[0].evidence["direction"] == "up"
        assert significant[0].group == {"resolver": "dns.google", "transport": "doh"}

    def test_latency_groups_are_transport_qualified(self):
        """A DoQ series ramping up next to an established DoH series must
        warm its own baseline, not read as the DoH tail drifting."""
        spec = ObserverSpec(
            name="p95",
            kind="latency_p95",
            scope="resolver",
            min_samples=5,
            baseline=BaselineConfig(
                min_days=3, min_delta=0.25, relative=True, std_floor=5.0
            ),
        )
        records = []
        for day in range(8):
            records.extend(day_batch(day, duration_ms=40.0))
            if day >= 5:  # DoQ appears mid-study, 4x slower
                records.extend(day_batch(day, transport="doq", duration_ms=160.0))
        from repro.obs.metrics import MetricsRegistry

        fleet = ObserverFleet([spec])
        fleet.replay(records)
        metrics = MetricsRegistry()
        report = fleet.finalize(metrics)
        # Two separate series exist; neither ever looks like a drift: the
        # DoH baseline never sees a DoQ duration, and the DoQ series is
        # internally stable (its first min_days readings are warm-up).
        assert not report.events.with_status("significant")
        for transport in ("doh", "doq"):
            assert metrics.gauge_value(
                "observer.baseline_mean", observer="p95",
                resolver="dns.google", transport=transport,
            ) is not None

    def test_error_share_uses_establishment_classes_only(self):
        spec = ObserverSpec(
            name="err",
            kind="error_share",
            scope="fleet",
            min_samples=5,
            baseline=BaselineConfig(min_days=2, min_delta=0.05, std_floor=0.01),
        )
        records = []
        for day in range(6):
            # rcode failures (error_class None on success path) must not count:
            # use a non-establishment class for the control failures.
            failures = 8 if day == 5 else 0
            records.extend(
                day_batch(day, failures=failures, error_class="connect_refused")
            )
            records.extend(
                day_batch(day, n=2, failures=2, error_class="dns_rcode")
            )
        fleet = ObserverFleet([spec])
        fleet.replay(records)
        report = fleet.finalize()
        assert [
            e.evidence["day"] for e in report.events.with_status("significant")
        ] == [5]

    def test_adoption_share_counts_doq_among_encrypted(self):
        spec = ObserverSpec(
            name="doq",
            kind="adoption_share",
            scope="fleet",
            min_samples=5,
            baseline=BaselineConfig(min_days=2, min_delta=0.1, std_floor=0.02),
        )
        records = []
        for day in range(6):
            doq = 8 if day == 5 else 0
            records.extend(day_batch(day, n=10 - doq, transport="doh"))
            records.extend(day_batch(day, n=doq, transport="doq"))
            records.extend(day_batch(day, n=4, transport="do53"))  # not encrypted
        fleet = ObserverFleet([spec])
        fleet.replay(records)
        report = fleet.finalize()
        significant = report.events.with_status("significant")
        assert [e.evidence["day"] for e in significant] == [5]
        assert significant[0].group == {}
        assert significant[0].value == pytest.approx(0.8)

    def test_region_scope_groups_by_catalog_region(self):
        spec = ObserverSpec(
            name="region",
            kind="availability",
            scope="region",
            min_samples=5,
            baseline=BaselineConfig(min_days=2, min_delta=0.05, std_floor=0.02),
        )
        records = []
        for day in range(5):
            # dns.google is NA; dns.pumplex.com has region None -> unlocatable.
            records.extend(day_batch(day, resolver="dns.google"))
            records.extend(
                day_batch(
                    day,
                    resolver="dns.pumplex.com",
                    failures=10 if day == 4 else 0,
                )
            )
        fleet = ObserverFleet([spec])
        fleet.replay(records)
        report = fleet.finalize()
        significant = report.events.with_status("significant")
        assert [e.group for e in significant] == [{"region": "unlocatable"}]

    def test_gauges_exported(self):
        metrics = MetricsRegistry()
        fleet = ObserverFleet([AVAIL_SPEC])
        fleet.replay(self._stream_with_dip())
        report = fleet.finalize(metrics)
        assert metrics.gauge_value("observer.records_seen") == 100.0
        assert metrics.gauge_value("observer.events") == 1.0
        assert metrics.gauge_value("observer.silences") == 9.0
        assert (
            metrics.gauge_value("observer.significant_days", observer="avail") == 1.0
        )
        assert metrics.gauge_value("observer.health_score") == pytest.approx(
            report.index.latest().score
        )
        baseline_mean = metrics.gauge_value(
            "observer.baseline_mean", observer="avail", resolver="dns.google"
        )
        assert baseline_mean is not None and 0.85 <= baseline_mean <= 1.0
        # And the prefix scan (used by metrics export) sees the series.
        assert metrics.gauges_matching("observer.")

    def test_render_mentions_every_observer(self):
        fleet = ObserverFleet([AVAIL_SPEC])
        fleet.replay(self._stream_with_dip())
        text = fleet.finalize().render()
        assert "avail" in text
        assert "World health" in text
        assert "records=100" in text
