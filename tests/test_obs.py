"""Tests for the observability layer: spans, metrics, phase attribution.

Covers the :mod:`repro.obs` primitives directly, their integration with
the campaign runner (determinism, phase telescoping, error attribution),
the :mod:`repro.analysis.phases` tables, the EventTrace JSONL export, and
the CLI surface (``trace``, ``measure --trace/--metrics/--progress``).
"""

import json

import pytest

from repro.analysis.phases import (
    error_phases,
    phase_breakdowns,
    phase_deltas,
    render_error_phases,
    render_phase_delta_table,
    render_phase_table,
)
from repro.core.runner import Campaign, CampaignConfig, RoundProgress
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.netsim.clock import EventLoop
from repro.netsim.packet import Datagram, Segment
from repro.netsim.trace import EventTrace, TraceEvent
from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    PhaseClock,
    Span,
    SpanCollector,
    get_metrics,
    get_recorder,
    set_metrics,
    set_recorder,
    tracing,
)
from tests.conftest import MINI_CATALOG_HOSTNAMES, make_mini_world

#: Phases that make up a successful fresh DoH query, in order.
DOH_PHASES = ("tcp_connect", "tls_handshake", "http_exchange", "dns_parse")


def run_traced_campaign(
    hostnames,
    vantage="ec2-ohio",
    rounds=2,
    seed=0,
    transport="doh",
    on_round_complete=None,
    own_world=False,
    reuse=False,
):
    """Build a fresh world and run one traced campaign over it.

    ``own_world=True`` builds a world containing only ``hostnames`` (for
    resolvers outside the mini catalog, e.g. the DoQ deployments).
    """
    if own_world:
        from repro.catalog.resolvers import CATALOG
        from repro.experiments.world import build_world

        catalog = [e for e in CATALOG if e.hostname in hostnames]
        world = build_world(seed=seed, catalog=catalog)
    else:
        world = make_mini_world(seed=seed)
    recorder = SpanCollector()
    metrics = MetricsRegistry(enabled=True)
    extra = {}
    if reuse:
        from repro.core.probes import DohProbeConfig

        extra["probe_config"] = DohProbeConfig(reuse_connections=True)
    config = CampaignConfig(
        name="obs-campaign",
        transports=(transport,),
        schedule=PeriodicSchedule(
            rounds=rounds, interval_ms=MS_PER_HOUR, start_ms=world.network.loop.now
        ),
        **extra,
    )
    campaign = Campaign(
        network=world.network,
        vantages=[world.vantage(vantage)],
        targets=world.targets(list(hostnames)),
        config=config,
        on_round_complete=on_round_complete,
    )
    # The campaign and the protocol layers (netsim, tlssim, httpsim,
    # quicsim) report into the *ambient* pair, so run under the tracing
    # context the same way the shard executor does.
    with tracing(recorder=recorder, metrics=metrics):
        store = campaign.run()
    return store, recorder, metrics


class TestSpanPrimitives:
    def test_to_json_round_trips(self):
        span = Span(span_id=3, parent_id=1, name="probe", start_ms=1.5, end_ms=2.5)
        line = span.to_json()
        assert json.loads(line)["name"] == "probe"
        assert Span.from_json(line) == span

    def test_collector_assigns_sequential_ids(self):
        collector = SpanCollector()
        first = collector.begin("a", 0.0)
        second = collector.begin("b", 1.0, parent_id=first)
        assert (first, second) == (1, 2)
        assert collector.children(first)[0].name == "b"
        assert [s.name for s in collector.roots()] == ["a"]

    def test_end_sets_status_and_attrs(self):
        collector = SpanCollector()
        span_id = collector.begin("probe", 0.0, transport="doh")
        collector.end(span_id, 5.0, status="error", error="timeout")
        span = collector.find(name="probe")[0]
        assert span.status == "error"
        assert span.duration_ms == 5.0
        assert span.attrs == {"transport": "doh", "error": "timeout"}

    def test_max_spans_drops_excess(self):
        collector = SpanCollector(max_spans=2)
        assert collector.begin("a", 0.0) == 1
        assert collector.begin("b", 0.0) == 2
        assert collector.begin("c", 0.0) == 0
        assert collector.dropped == 1
        assert len(collector) == 2

    def test_clear_resets_ids(self):
        collector = SpanCollector()
        collector.begin("a", 0.0)
        collector.clear()
        assert len(collector) == 0
        assert collector.begin("b", 0.0) == 1

    def test_null_recorder_is_inert(self):
        assert not NULL_RECORDER.enabled
        assert NULL_RECORDER.begin("x", 0.0) == 0
        assert NULL_RECORDER.emit("x", 0.0, 1.0) == 0
        NULL_RECORDER.end(0, 1.0)  # must not raise

    def test_render_tree_indents_children(self):
        collector = SpanCollector()
        root = collector.begin("campaign", 0.0)
        child = collector.begin("round", 1.0, parent_id=root, index=0)
        collector.end(child, 2.0)
        collector.end(root, 3.0)
        tree = collector.render_tree()
        lines = tree.splitlines()
        assert lines[0].startswith("campaign")
        assert lines[1].startswith("  round")
        assert "index=0" in lines[1]

    def test_render_tree_truncates(self):
        collector = SpanCollector()
        root = collector.begin("root", 0.0)
        for i in range(5):
            collector.emit(f"child{i}", 0.0, 1.0, parent_id=root)
        tree = collector.render_tree(max_spans=2)
        assert "more spans" in tree.splitlines()[-1]


class TestAmbientRecorder:
    def test_default_is_null(self):
        assert get_recorder() is NULL_RECORDER
        assert not get_metrics().enabled

    def test_tracing_context_restores_previous(self):
        collector = SpanCollector()
        metrics = MetricsRegistry(enabled=True)
        with tracing(recorder=collector, metrics=metrics) as (active, active_metrics):
            assert active is collector
            assert get_recorder() is collector
            assert get_metrics() is metrics
        assert get_recorder() is NULL_RECORDER
        assert not get_metrics().enabled

    def test_set_recorder_returns_previous(self):
        collector = SpanCollector()
        previous = set_recorder(collector)
        try:
            assert get_recorder() is collector
        finally:
            set_recorder(previous)
        previous_metrics = set_metrics(MetricsRegistry(enabled=True))
        set_metrics(previous_metrics)


class TestMetricsRegistry:
    def test_counters_with_labels(self):
        metrics = MetricsRegistry(enabled=True)
        metrics.inc("net.packets_sent", protocol="udp")
        metrics.inc("net.packets_sent", protocol="udp")
        metrics.inc("net.packets_sent", protocol="tcp")
        assert metrics.value("net.packets_sent", protocol="udp") == 2
        assert metrics.value("net.packets_sent", protocol="tcp") == 1
        assert metrics.value("net.packets_sent", protocol="icmp") == 0
        assert metrics.counters_matching("net.") == {
            "net.packets_sent{protocol=tcp}": 1,
            "net.packets_sent{protocol=udp}": 2,
        }

    def test_gauges_last_write_wins(self):
        metrics = MetricsRegistry(enabled=True)
        metrics.set_gauge("campaign.records", 3)
        metrics.set_gauge("campaign.records", 7)
        assert metrics.gauge_value("campaign.records") == 7
        assert metrics.gauge_value("missing") is None

    def test_histogram_quantiles(self):
        metrics = MetricsRegistry(enabled=True)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            metrics.observe("latency_ms", value)
        hist = metrics.histogram("latency_ms")
        assert hist.count == 5
        assert hist.min == 1.0 and hist.max == 100.0
        assert hist.mean == pytest.approx(22.0)
        assert 0.0 < hist.p50 <= 5.0
        assert hist.p99 <= 100.0

    def test_histogram_overflow_bucket_reports_max(self):
        metrics = MetricsRegistry(enabled=True)
        metrics.observe("slow_ms", 50_000.0)
        assert metrics.histogram("slow_ms").p50 == 50_000.0

    def test_disabled_registry_is_inert(self):
        metrics = MetricsRegistry(enabled=False)
        metrics.inc("a")
        metrics.set_gauge("b", 1.0)
        metrics.observe("c", 1.0)
        assert metrics.value("a") == 0
        assert metrics.gauge_value("b") is None
        assert metrics.histogram("c") is None
        assert metrics.summary() == "(no metrics recorded)"

    def test_snapshot_and_save(self, tmp_path):
        metrics = MetricsRegistry(enabled=True)
        metrics.inc("a", 2)
        metrics.observe("h", 10.0)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {"a": 2}
        assert snapshot["histograms"]["h"]["count"] == 1
        path = tmp_path / "metrics.json"
        metrics.save_json(path)
        assert json.loads(path.read_text())["counters"] == {"a": 2}


class TestPhaseClock:
    def test_phases_telescope_to_total(self):
        loop = EventLoop()
        collector = SpanCollector()
        clock = PhaseClock(loop, collector, transport="doh")
        clock.enter("tcp_connect")
        loop.run(until=10.0)
        clock.enter("tls_handshake")
        loop.run(until=25.0)
        clock.enter("http_exchange")
        loop.run(until=30.0)
        phases = clock.finish(True)
        assert phases == {
            "tcp_connect": 10.0,
            "tls_handshake": 15.0,
            "http_exchange": 5.0,
        }
        assert sum(phases.values()) == loop.now
        probe = collector.find(name="probe")[0]
        assert probe.duration_ms == 30.0
        assert [s.name for s in collector.children(probe.span_id)] == [
            "tcp_connect", "tls_handshake", "http_exchange",
        ]

    def test_reentered_phase_accumulates(self):
        loop = EventLoop()
        clock = PhaseClock(loop, NULL_RECORDER)
        clock.enter("dns_exchange")
        loop.run(until=4.0)
        clock.enter("dns_parse")
        loop.run(until=5.0)
        clock.enter("dns_exchange")  # msg-id mismatch: wait for another reply
        loop.run(until=9.0)
        phases = clock.finish(True)
        assert phases["dns_exchange"] == pytest.approx(8.0)
        assert phases["dns_parse"] == pytest.approx(1.0)

    def test_failure_attributes_open_phase(self):
        loop = EventLoop()
        collector = SpanCollector()
        clock = PhaseClock(loop, collector)
        clock.enter("tcp_connect")
        loop.run(until=11_000.0)
        clock.finish(False, error="connect_timeout")
        assert clock.failed_phase == "tcp_connect"
        probe = collector.find(name="probe")[0]
        assert probe.status == "error"
        assert probe.attrs["error"] == "connect_timeout"
        assert collector.find(name="tcp_connect")[0].status == "error"

    def test_finish_is_idempotent_and_blocks_enter(self):
        loop = EventLoop()
        clock = PhaseClock(loop, NULL_RECORDER)
        clock.enter("tcp_connect")
        loop.run(until=2.0)
        first = clock.finish(True)
        clock.enter("late_phase")  # e.g. a timer firing after the timeout
        assert clock.finish(False) is first
        assert "late_phase" not in first
        assert clock.failed_phase is None

    def test_no_spans_without_collector(self):
        loop = EventLoop()
        clock = PhaseClock(loop, NULL_RECORDER)
        assert clock.span_id == 0
        clock.enter("tcp_connect")
        loop.run(until=1.0)
        assert clock.finish(True) == {"tcp_connect": 1.0}


class TestCampaignTracing:
    def test_span_tree_shape(self):
        store, recorder, _ = run_traced_campaign(["dns.google"], rounds=2)
        roots = recorder.roots()
        assert [s.name for s in roots] == ["campaign"]
        campaign = roots[0]
        rounds = recorder.children(campaign.span_id)
        assert [s.name for s in rounds] == ["round", "round"]
        measurements = recorder.children(rounds[0].span_id)
        assert [s.name for s in measurements] == ["measurement"]
        probes = recorder.children(measurements[0].span_id)
        # 3 query probes + 1 ping probe per measurement set.
        assert [s.name for s in probes] == ["probe"] * 4
        query_probes = [s for s in probes if s.attrs.get("transport") == "doh"]
        assert len(query_probes) == 3
        fresh = query_probes[0]
        assert [s.name for s in recorder.children(fresh.span_id)] == list(DOH_PHASES)
        # every span is closed once the campaign returns
        assert all(s.end_ms is not None for s in recorder.spans)

    def test_same_seed_runs_are_byte_identical(self):
        _, first, _ = run_traced_campaign(["dns.google", "dns.brahma.world"], seed=7)
        _, second, _ = run_traced_campaign(["dns.google", "dns.brahma.world"], seed=7)
        assert first.to_jsonl() == second.to_jsonl()
        assert len(first) > 0

    def test_a_campaigns_snapshot_survives_the_shard_merge_byte_for_byte(self):
        """Gauges are floats at the source, as the merge makes them: a
        one-shard run writes the metrics file a plain registry would."""
        _, _, metrics = run_traced_campaign(["dns.google", "dns.pumplex.com"], rounds=2)
        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["campaign.records"] == 16.0
        assert {type(value) for value in snapshot["gauges"].values()} == {float}
        merged = MetricsRegistry.from_states([metrics.to_state()])
        assert json.dumps(merged.snapshot()) == json.dumps(snapshot)

    def test_different_seed_runs_differ(self):
        _, first, _ = run_traced_campaign(["dns.google"], seed=1)
        _, second, _ = run_traced_campaign(["dns.google"], seed=2)
        assert first.to_jsonl() != second.to_jsonl()

    def test_phase_durations_sum_to_record_duration(self):
        store, _, _ = run_traced_campaign(["dns.google", "dns.brahma.world"])
        queries = store.filter(kind="dns_query", success=True)
        assert queries
        for record in queries:
            parts = [
                part
                for part in (record.connect_ms, record.tls_ms, record.query_ms)
                if part is not None
            ]
            assert parts, record
            assert sum(parts) == pytest.approx(record.duration_ms, abs=1e-6)

    def test_reused_connection_skips_establishment(self):
        store, _, _ = run_traced_campaign(["dns.google"], rounds=1, reuse=True)
        reused = store.filter(kind="dns_query", predicate=lambda r: r.connection_reused)
        assert reused
        for record in reused:
            assert record.connect_ms is None
            assert record.tls_ms is None
            assert record.query_ms == pytest.approx(record.duration_ms, abs=1e-6)

    def test_untraced_run_still_fills_phase_fields(self):
        world = make_mini_world()
        config = CampaignConfig(
            name="plain",
            schedule=PeriodicSchedule(
                rounds=1, interval_ms=1.0, start_ms=world.network.loop.now
            ),
        )
        store = Campaign(
            network=world.network,
            vantages=[world.vantage("ec2-ohio")],
            targets=world.targets(["dns.google"]),
            config=config,
        ).run()
        queries = store.filter(kind="dns_query", success=True)
        assert queries and all(r.query_ms is not None for r in queries)
        assert get_recorder() is NULL_RECORDER

    def test_dead_resolver_fails_in_tcp_connect(self):
        store, recorder, _ = run_traced_campaign(["dns.pumplex.com"], rounds=1)
        queries = store.filter(kind="dns_query")
        assert queries and all(not r.success for r in queries)
        assert all(r.failed_phase == "tcp_connect" for r in queries)
        # ... and the failure is attributable to a span in the export.
        failed = [
            s for s in recorder.find(name="probe", status="error")
            if s.attrs.get("transport") == "doh"
        ]
        assert failed
        for span in failed:
            children = recorder.children(span.span_id)
            assert children[-1].name == "tcp_connect"
            assert children[-1].status == "error"

    def test_round_progress_callback(self):
        seen = []
        store, _, _ = run_traced_campaign(
            ["dns.google", "dns.quad9.net"], rounds=2, on_round_complete=seen.append
        )
        assert [p.round_index for p in seen] == [0, 1]
        assert seen[-1].records_total == len(store) == 16
        assert all(p.measurements == 2 for p in seen)
        assert seen[0].completed_at_ms < seen[1].completed_at_ms
        line = seen[0].describe()
        assert line.startswith("progress round=0 ") and "records=8" in line

    def test_campaign_metrics(self):
        store, _, metrics = run_traced_campaign(["dns.google"], rounds=2)
        queries = store.filter(kind="dns_query")
        assert metrics.value("campaign.queries", transport="doh", kind="dns_query") == len(queries)
        assert metrics.value("campaign.rounds_completed") == 2
        assert metrics.gauge_value("campaign.records") == len(store)
        assert metrics.histogram("campaign.query_ms", transport="doh").count == len(
            [r for r in queries if r.success]
        )
        assert metrics.value("net.packets_sent", protocol="tcp") > 0
        assert metrics.value("tls.handshakes", resumed=False, version="1.3") > 0
        assert metrics.value("h2.requests", method="POST") == len(queries)

    def test_ambient_tracing_context_applies_to_campaign(self):
        world = make_mini_world()
        config = CampaignConfig(
            name="ambient",
            schedule=PeriodicSchedule(
                rounds=1, interval_ms=1.0, start_ms=world.network.loop.now
            ),
        )
        campaign = Campaign(
            network=world.network,
            vantages=[world.vantage("ec2-ohio")],
            targets=world.targets(["dns.google"]),
            config=config,
        )
        with tracing() as (recorder, _metrics):
            campaign.run()
        assert recorder.find(name="campaign")
        assert get_recorder() is NULL_RECORDER


class TestDotAndDoqPhases:
    def test_dot_fresh_query_phases(self):
        store, recorder, _ = run_traced_campaign(
            ["dns.google"], rounds=1, transport="dot"
        )
        fresh = store.filter(
            kind="dns_query", success=True, predicate=lambda r: not r.connection_reused
        )
        assert fresh and all(r.connect_ms and r.tls_ms for r in fresh)
        names = {s.name for s in recorder.spans}
        assert {"tcp_connect", "tls_handshake", "dns_exchange", "dns_parse"} <= names

    def test_doq_handshake_lands_in_tls_ms(self):
        store, recorder, _ = run_traced_campaign(
            ["dns.adguard.com"], rounds=1, transport="doq", own_world=True
        )
        fresh = store.filter(
            kind="dns_query", success=True, predicate=lambda r: not r.connection_reused
        )
        assert fresh
        for record in fresh:
            assert record.connect_ms is None  # QUIC has no separate TCP connect
            assert record.tls_ms is not None and record.tls_ms > 0
        assert recorder.find(name="quic_handshake")

    def test_do53_has_exchange_only(self):
        store, _, _ = run_traced_campaign(["dns.google"], rounds=1, transport="do53")
        queries = store.filter(kind="dns_query", success=True)
        assert queries
        for record in queries:
            assert record.connect_ms is None and record.tls_ms is None
            assert record.query_ms == pytest.approx(record.duration_ms, abs=1e-6)


@pytest.fixture(scope="module")
def phase_store():
    """One campaign over the mini catalog from a near and a far vantage."""
    world = make_mini_world()
    hostnames = [h for h in MINI_CATALOG_HOSTNAMES if h != "odoh-target.alekberg.net"]
    config = CampaignConfig(
        name="phase-study",
        schedule=PeriodicSchedule(
            rounds=3, interval_ms=MS_PER_HOUR, start_ms=world.network.loop.now
        ),
    )
    return Campaign(
        network=world.network,
        vantages=[world.vantage("ec2-frankfurt"), world.vantage("ec2-seoul")],
        targets=world.targets(hostnames),
        config=config,
    ).run()


class TestPhaseAnalysis:
    def test_breakdown_totals_and_share(self, phase_store):
        [breakdown] = phase_breakdowns(
            phase_store, vantages=["ec2-frankfurt"], resolvers=["dns.google"]
        )
        assert breakdown.count > 0
        assert breakdown.median_total_ms > 0
        assert 0.0 <= breakdown.establishment_share <= 1.0

    def test_breakdown_none_without_data(self, phase_store):
        assert phase_breakdowns(phase_store, resolvers=["no.such.resolver"]) == []

    def test_breakdowns_grid(self, phase_store):
        grid = phase_breakdowns(phase_store, vantages=["ec2-frankfurt", "ec2-seoul"])
        cells = {(b.vantage, b.resolver) for b in grid}
        assert ("ec2-frankfurt", "dns.google") in cells
        assert ("ec2-seoul", "dns.brahma.world") in cells

    def test_far_vantage_added_latency_is_mostly_establishment(self, phase_store):
        """The related-work shape the poster builds on: for non-mainstream
        unicast resolvers measured from a distant vantage, TCP + TLS
        establishment dominates the added response time."""
        deltas = phase_deltas(
            phase_store, ["dns.brahma.world"], "ec2-frankfurt", "ec2-seoul"
        )
        assert len(deltas) == 1
        delta = deltas[0]
        assert delta.added_total_ms > 0
        assert delta.establishment_share_of_added > 0.5

    def test_anycast_resolver_adds_little(self, phase_store):
        [near] = phase_breakdowns(
            phase_store, vantages=["ec2-frankfurt"], resolvers=["dns.google"]
        )
        [far_unicast] = phase_breakdowns(
            phase_store, vantages=["ec2-seoul"], resolvers=["dns.brahma.world"]
        )
        assert near.median_total_ms < far_unicast.median_total_ms

    def test_error_phases_counts_dead_resolver(self, phase_store):
        counts = error_phases(phase_store.filter(resolver="dns.pumplex.com"))
        assert counts.get("tcp_connect", 0) > 0

    def test_error_phases_unknown_fallback(self):
        from repro.core.results import MeasurementRecord, ResultStore

        store = ResultStore()
        store.add(
            MeasurementRecord(
                campaign="x", vantage="v", resolver="r", transport="doh",
                kind="dns_query", domain="d.com", round_index=0,
                started_at_ms=0.0, duration_ms=None, success=False,
            )
        )
        assert error_phases(store) == {"(unknown)": 1}

    def test_render_tables(self, phase_store):
        grid = phase_breakdowns(phase_store, vantages=["ec2-seoul"])
        table = render_phase_table(grid)
        assert "estab %" in table and "dns.google" in table
        deltas = phase_deltas(
            phase_store, ["dns.brahma.world"], "ec2-frankfurt", "ec2-seoul"
        )
        delta_table = render_phase_delta_table(deltas, title="Added latency")
        assert delta_table.startswith("Added latency\n")
        assert "estab share of added" in delta_table
        errors = render_error_phases(error_phases(phase_store))
        assert "Failed phase" in errors


class TestEventTrace:
    def make_events(self):
        trace = EventTrace()
        udp = Datagram(
            src_ip="10.0.0.1", src_port=5353, dst_ip="10.0.0.2", dst_port=53,
            payload=b"q" * 40,
        )
        syn = Segment(
            src_ip="10.0.0.1", src_port=40000, dst_ip="10.0.0.2", dst_port=443,
            flag="SYN", conn_id=1,
        )
        trace.record(1.0, "sent", udp, delay_ms=20.0)
        trace.record(21.0, "delivered", udp)
        trace.record(30.0, "sent", syn, delay_ms=10.0)
        trace.record(31.0, "lost", syn)
        return trace

    def test_describe_mentions_endpoints_and_flag(self):
        trace = self.make_events()
        udp_line = trace.events[0].describe()
        assert "sent" in udp_line and "udp" in udp_line
        assert "10.0.0.1:5353 -> 10.0.0.2:53" in udp_line
        assert "(40B)" in udp_line
        tcp_line = trace.events[2].describe()
        assert "tcp SYN" in tcp_line
        assert trace.describe().count("\n") == 3

    def test_by_protocol(self):
        trace = self.make_events()
        assert trace.by_protocol() == {"tcp": 2, "udp": 2}
        assert trace.by_protocol(kind="sent") == {"tcp": 1, "udp": 1}
        assert trace.by_protocol(kind="lost") == {"tcp": 1}

    def test_between_ms_half_open(self):
        trace = self.make_events()
        window = trace.between_ms(1.0, 30.0)
        assert [e.time_ms for e in window] == [1.0, 21.0]
        assert trace.between_ms(30.0, 100.0)[0].kind == "sent"
        assert trace.between_ms(500.0, 600.0) == []

    def test_jsonl_round_trip(self, tmp_path):
        trace = self.make_events()
        lines = trace.to_jsonl().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first == {
            "time_ms": 1.0, "kind": "sent", "protocol": "udp",
            "src_ip": "10.0.0.1", "src_port": 5353,
            "dst_ip": "10.0.0.2", "dst_port": 53,
            "size": 40, "flag": None, "delay_ms": 20.0,
            "packet_id": trace.events[0].packet_id,
        }
        assert lines[0] == trace.events[0].to_json()
        path = tmp_path / "trace.jsonl"
        trace.save_jsonl(str(path))
        assert path.read_text() == trace.to_jsonl()

    def test_empty_trace_exports_nothing(self, tmp_path):
        trace = EventTrace()
        assert trace.to_jsonl() == ""
        assert trace.by_protocol() == {}


class TestCliObservability:
    def test_trace_command(self, tmp_path, capsys):
        from repro.cli import main

        spans_path = tmp_path / "spans.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "trace", "--resolver", "dns.google", "--vantage", "ec2-ohio",
            "--rounds", "1", "--output", str(spans_path),
            "--tree", "--summary", "--metrics-output", str(metrics_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "traced 4 records" in out
        assert "campaign [" in out and "tls_handshake" in out
        assert "== counters ==" in out
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        assert {"campaign", "round", "measurement", "probe"} <= {s["name"] for s in spans}
        assert json.loads(metrics_path.read_text())["counters"]

    def test_measure_progress_and_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "out.jsonl"
        spans_path = tmp_path / "spans.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "measure", "--vantage", "ec2-ohio",
            "--resolver", "dns.google", "dns.quad9.net",
            "--rounds", "2", "--output", str(output),
            "--progress", "--trace", str(spans_path), "--metrics", str(metrics_path),
        ])
        out, err = capsys.readouterr()
        assert code == 0
        # progress is chatter: it goes to stderr so stdout stays pipeable
        assert "progress " not in out
        progress_lines = [l for l in err.splitlines() if l.startswith("progress ")]
        assert len(progress_lines) == 2
        assert "round=0" in progress_lines[0] and "round=1" in progress_lines[1]
        assert spans_path.exists() and metrics_path.exists()

    def test_measure_without_flags_emits_no_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        output = tmp_path / "out.jsonl"
        code = main([
            "measure", "--vantage", "ec2-ohio", "--resolver", "dns.google",
            "--rounds", "1", "--output", str(output),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "progress " not in out
        assert get_recorder() is NULL_RECORDER
