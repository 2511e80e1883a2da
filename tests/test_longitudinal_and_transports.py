"""Tests for longitudinal drift analysis, multi-transport campaigns,
TC-bit truncation with TCP fallback, and Extended DNS Errors."""

import random

import pytest

from repro.analysis.longitudinal import (
    campaigns_in_order,
    drift_report,
    drift_reports_from_records,
)
from repro.analysis.response_times import resolver_medians
from repro.core.probes import Do53Probe, ProbeConfig
from repro.core.results import MeasurementRecord, ResultStore
from repro.core.runner import Campaign, CampaignConfig
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.dnswire.edns import EDE_NOT_READY, get_ede, make_ede_option
from repro.dnswire.types import TYPE_TXT
from repro.errors import AnalysisError, CampaignConfigError
from repro.experiments.campaigns import run_study
from tests.conftest import make_mini_world


def record(campaign, resolver, duration, success=True, started=0.0, round_index=0):
    return MeasurementRecord(
        campaign=campaign, vantage="v1", resolver=resolver, kind="dns_query",
        transport="doh", domain="google.com", round_index=round_index,
        started_at_ms=started, duration_ms=duration if success else None,
        success=success,
    )


class TestLongitudinal:
    def _store(self):
        store = ResultStore()
        for value in (10.0, 12.0, 14.0):
            store.add(record("base", "stable.example", value, started=0.0))
            store.add(record("base", "degraded.example", value, started=0.0))
            store.add(record("later", "stable.example", value + 1, started=1000.0))
            store.add(record("later", "degraded.example", value * 5, started=1000.0))
        return store

    def test_campaigns_in_order(self):
        assert campaigns_in_order(self._store()) == ["base", "later"]

    def test_drift_detection(self):
        report = drift_report(self._store(), "base", "later")
        drifted = {d.resolver for d in report.drifted}
        assert drifted == {"degraded.example"}
        assert report.stable_fraction == 0.5
        assert "DRIFT degraded.example" in report.describe()

    def test_latency_ratio(self):
        report = drift_report(self._store(), "base", "later")
        by_name = {d.resolver: d for d in report.per_resolver}
        assert by_name["degraded.example"].latency_ratio == pytest.approx(5.0)
        assert by_name["stable.example"].latency_ratio == pytest.approx(13.0 / 12.0)

    def test_availability_drop_flags_drift(self):
        store = ResultStore()
        for index in range(4):
            store.add(record("base", "r.example", 10.0, started=0.0))
            success = index == 0  # 25% availability later
            store.add(record("later", "r.example", 10.0, success=success, started=1000.0))
        report = drift_report(store, "base", "later")
        assert report.drifted

    def test_speedup_also_counts_as_drift(self):
        store = ResultStore()
        for _ in range(3):
            store.add(record("base", "r.example", 100.0, started=0.0))
            store.add(record("later", "r.example", 10.0, started=1000.0))
        report = drift_report(store, "base", "later")
        assert report.drifted  # "changed drastically" cuts both ways

    def test_missing_campaign_rejected(self):
        with pytest.raises(AnalysisError):
            drift_report(self._store(), "base", "nonexistent")

    def test_zero_baseline_median_reports_no_baseline_not_drift(self):
        """Regression: an ``inf`` latency ratio used to flag every resolver
        whose baseline median was 0 as drifted; such resolvers must surface
        as a distinct no-baseline status instead."""
        store = self._store()
        for value in (10.0, 12.0, 14.0):
            store.add(record("base", "fresh.example", 0.0, started=0.0))
            store.add(record("later", "fresh.example", value, started=1000.0))
        report = drift_report(store, "base", "later")
        by_name = {d.resolver: d for d in report.per_resolver}
        fresh = by_name["fresh.example"]
        assert not fresh.has_baseline
        assert fresh.latency_ratio is None
        assert fresh.status(report.latency_factor, report.availability_drop) == (
            "no-baseline"
        )
        assert "fresh.example" not in {d.resolver for d in report.drifted}
        assert [d.resolver for d in report.no_baseline] == ["fresh.example"]
        # The stable fraction is computed over comparable resolvers only,
        # and the summary names the no-baseline resolver distinctly.
        assert report.stable_fraction == 0.5
        text = report.describe()
        assert "NO-BASELINE fresh.example" in text
        assert "1 without baseline" in text
        assert "DRIFT fresh.example" not in text
        # The median ratio skips the undefined entry.
        assert report.median_latency_ratio == pytest.approx((5.0 + 13.0 / 12.0) / 2)

    def test_no_baseline_with_availability_drop_still_drifts(self):
        store = ResultStore()
        for index in range(4):
            store.add(record("base", "r.example", 0.0, started=0.0))
            success = index == 0  # 25% availability later
            store.add(
                record("later", "r.example", 10.0, success=success, started=1000.0)
            )
        report = drift_report(store, "base", "later")
        # No latency baseline, but the availability collapse is real: the
        # resolver reports as no-baseline, not silently dropped.
        assert [d.resolver for d in report.no_baseline] == ["r.example"]
        assert not report.drifted

    def test_reports_over_time(self):
        store = self._store()
        for value in (11.0, 13.0):
            store.add(record("even-later", "stable.example", value, started=2000.0))
        reports = drift_reports_from_records(store)
        assert [r.later_campaign for r in reports] == ["later", "even-later"]

    def test_single_campaign_rejected(self):
        store = ResultStore()
        store.add(record("only", "r.example", 10.0))
        with pytest.raises(AnalysisError):
            drift_reports_from_records(store)

    def test_monthly_recheck_shows_no_drift_in_stationary_world(self):
        store = run_study(
            world_seed=33, home_rounds=0, ec2_rounds=4, recheck_months=["feb", "mar"],
            target_hostnames=["dns.google", "dns.brahma.world", "dns.twnic.tw"],
        ).store
        reports = drift_reports_from_records(store, vantage="ec2-ohio")
        for report in reports:
            assert report.stable_fraction == 1.0, report.describe()


class TestTransportCampaigns:
    @pytest.fixture(scope="class")
    def world(self):
        return make_mini_world(seed=44)

    def _run(self, world, transport):
        config = CampaignConfig(
            name=f"{transport}-campaign",
            transport=transport,
            schedule=PeriodicSchedule(
                rounds=2, interval_ms=MS_PER_HOUR, start_ms=world.network.loop.now
            ),
        )
        return Campaign(
            network=world.network,
            vantages=[world.vantage("ec2-ohio")],
            targets=world.targets(["dns.google", "dns.brahma.world"]),
            config=config,
        ).run()

    def test_dot_campaign(self, world):
        store = self._run(world, "dot")
        queries = store.filter(kind="dns_query")
        assert queries and all(r.transport == "dot" for r in queries)
        assert any(r.success for r in queries)

    def test_do53_campaign(self, world):
        store = self._run(world, "do53")
        queries = store.filter(kind="dns_query")
        assert queries and all(r.transport == "do53" for r in queries)
        assert any(r.success for r in queries)

    def test_do53_fastest_dot_between(self, world):
        doh = self._run(world, "doh")
        dot = self._run(world, "dot")
        do53 = self._run(world, "do53")
        name = "dns.brahma.world"
        doh_median = resolver_medians(doh, vantage="ec2-ohio")[name]
        dot_median = resolver_medians(dot, vantage="ec2-ohio")[name]
        udp_median = resolver_medians(do53, vantage="ec2-ohio")[name]
        # Do53 = 1 RTT, DoT/DoH fresh = 3 RTT (same handshakes).
        assert udp_median < dot_median
        assert udp_median * 2 < doh_median
        assert dot_median == pytest.approx(doh_median, rel=0.2)

    def test_unknown_transport_rejected(self):
        with pytest.raises(CampaignConfigError):
            CampaignConfig(name="x", transport="smoke-signals")


class TestTruncationFallback:
    @pytest.fixture(scope="class")
    def world(self):
        return make_mini_world(seed=55)

    def test_oversized_answer_falls_back_to_tcp(self, world):
        deployment = world.deployment("dns.brahma.world")
        probe = Do53Probe(
            world.vantage("ec2-frankfurt").host, deployment.service_ip,
            ProbeConfig(), rng=random.Random(1),
        )
        outcomes = []
        probe.query("bulk.example-sites.net", outcomes.append, qtype=TYPE_TXT)
        world.network.run()
        outcome = outcomes[0]
        assert outcome.success
        assert outcome.error_detail == "via-tcp"
        assert outcome.response_size > 3000

    def test_fallback_disabled_returns_truncated(self, world):
        deployment = world.deployment("dns.brahma.world")
        probe = Do53Probe(
            world.vantage("ec2-frankfurt").host, deployment.service_ip,
            ProbeConfig(tcp_fallback=False), rng=random.Random(2),
        )
        outcomes = []
        probe.query("bulk.example-sites.net", outcomes.append, qtype=TYPE_TXT)
        world.network.run()
        outcome = outcomes[0]
        assert outcome.error_detail == "truncated"
        assert outcome.answers == []
        assert outcome.response_size < 512

    def test_small_answers_stay_on_udp(self, world):
        deployment = world.deployment("dns.brahma.world")
        probe = Do53Probe(
            world.vantage("ec2-frankfurt").host, deployment.service_ip,
            ProbeConfig(), rng=random.Random(3),
        )
        outcomes = []
        probe.query("google.com", outcomes.append)
        world.network.run()
        assert outcomes[0].success
        assert outcomes[0].error_detail is None  # no fallback happened


class TestExtendedDnsErrors:
    def test_ede_option_round_trip(self):
        from repro.dnswire.builder import make_query
        from repro.dnswire.edns import attach_ede
        from repro.dnswire.message import Message

        message = make_query("example.com", msg_id=0)
        attach_ede(message, EDE_NOT_READY, "overloaded")
        decoded = Message.from_wire(message.to_wire())
        ede = get_ede(decoded)
        assert ede == (EDE_NOT_READY, "overloaded")

    def test_ede_absent_returns_none(self):
        from repro.dnswire.builder import make_query

        assert get_ede(make_query("example.com", msg_id=0)) is None

    def test_make_ede_option_shape(self):
        option = make_ede_option(22, "hi")
        assert option.code == 15
        assert option.value[:2] == b"\x00\x16"

    def test_injected_failure_carries_ede(self):
        """A frontend-injected SERVFAIL explains itself via RFC 8914."""
        from repro.catalog.resolvers import CatalogEntry
        from repro.experiments.world import build_world
        from repro.dnswire.builder import make_query
        from repro.dnswire.message import Message
        from repro.httpsim.doh import decode_doh_response, encode_doh_request
        from repro.httpsim.h1 import HttpRequest

        entry = CatalogEntry(
            hostname="failing.test", operator="t", region="NA", cities=("chicago",),
            reliability="rock",
        )
        world = build_world(seed=66, catalog=[entry])
        deployment = world.deployment("failing.test")
        deployment.reliability.server_failure_p = 1.0
        frontend = deployment.sites[0].frontends[-1]
        responses = []
        request = encode_doh_request(make_query("google.com", msg_id=0).to_wire())
        frontend._serve_http(request, responses.append)
        world.network.run()
        wire = decode_doh_response(responses[0])
        message = Message.from_wire(wire)
        assert message.rcode == 2  # SERVFAIL
        ede = get_ede(message)
        assert ede is not None and ede[0] == EDE_NOT_READY
