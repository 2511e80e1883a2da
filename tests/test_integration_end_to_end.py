"""End-to-end integration tests across the full stack.

These tests drive genuine wire traffic through every layer: probe ->
TCP -> TLS -> HTTP -> DoH codec -> frontend -> recursive engine ->
authoritative hierarchy -> back, and assert on cross-layer properties
(packet counts, timing structure, protocol coherence).
"""

import random

import pytest

from repro.core.probes import DohProbe, DohProbeConfig, PingProbe
from repro.core.runner import Campaign, CampaignConfig
from repro.core.scheduler import PeriodicSchedule
from repro.experiments.campaigns import EC2_VANTAGE_NAMES, HOME_VANTAGE_NAMES, study_legs
from repro.parallel import run_campaigns
from repro.experiments.world import build_world
from repro.netsim.trace import EventTrace
from tests.conftest import MINI_CATALOG_HOSTNAMES


class TestWireLevelBehaviour:
    def test_fresh_doh_query_packet_budget(self):
        """A fresh cached DoH query uses a bounded number of packets."""
        from repro.catalog.resolvers import CATALOG
        from repro.experiments.world import build_world

        trace = EventTrace()
        catalog = [e for e in CATALOG if e.hostname == "dns.brahma.world"]
        world = build_world(seed=1, catalog=catalog, trace=trace)
        trace.clear()
        probe = DohProbe(
            world.vantage("ec2-frankfurt").host,
            world.deployment("dns.brahma.world").service_ip,
            "dns.brahma.world",
            DohProbeConfig(),
            rng=random.Random(1),
        )
        outcomes = []
        probe.query("google.com", outcomes.append)
        world.network.run()
        assert outcomes[0].success
        tcp_sent = trace.sent_count(protocol="tcp")
        # 3-way handshake + TLS flights + h2 preface/settings/acks +
        # request + response + teardown: well under 30 segments, and no
        # UDP at all (the resolver cache was warm).
        assert 8 <= tcp_sent <= 30
        assert trace.sent_count(protocol="udp") == 0

    def test_cold_cache_triggers_upstream_udp(self):
        from repro.catalog.resolvers import CATALOG

        trace = EventTrace()
        catalog = [e for e in CATALOG if e.hostname == "dns.brahma.world"]
        world = build_world(seed=1, catalog=catalog, trace=trace, warm_caches=False)
        trace.clear()
        probe = DohProbe(
            world.vantage("ec2-frankfurt").host,
            world.deployment("dns.brahma.world").service_ip,
            "dns.brahma.world",
            DohProbeConfig(),
            rng=random.Random(1),
        )
        outcomes = []
        probe.query("google.com", outcomes.append)
        world.network.run()
        assert outcomes[0].success
        # Root -> TLD -> auth: three upstream query/response exchanges.
        assert trace.sent_count(protocol="udp") == 6

    def test_response_time_decomposition(self, mini_world):
        """Fresh DoH ~= ping x 3 + processing for a warm unicast resolver."""
        world = mini_world
        host = world.vantage("ec2-seoul").host
        deployment = world.deployment("dns.twnic.tw")
        pings, queries = [], []
        PingProbe(host, deployment.service_ip).send(pings.append)
        world.network.run()
        DohProbe(host, deployment.service_ip, "dns.twnic.tw",
                 rng=random.Random(2)).query("google.com", queries.append)
        world.network.run()
        if queries[0].success and pings[0].success:
            ratio = queries[0].duration_ms / pings[0].duration_ms
            assert 2.5 <= ratio <= 4.5

    def test_all_transports_agree_on_answers(self, mini_world):
        from repro.core.probes import Do53Probe, DotProbe

        world = mini_world
        host = world.vantage("ec2-ohio").host
        deployment = world.deployment("dns.google")
        answers = {}

        DohProbe(host, deployment.service_ip, "dns.google",
                 rng=random.Random(3)).query(
            "google.com", lambda o: answers.setdefault("doh", o.answers)
        )
        world.network.run()
        DotProbe(host, deployment.service_ip, "dns.google",
                 rng=random.Random(3)).query(
            "google.com", lambda o: answers.setdefault("dot", o.answers)
        )
        world.network.run()
        Do53Probe(host, deployment.service_ip, rng=random.Random(3)).query(
            "google.com", lambda o: answers.setdefault("do53", o.answers)
        )
        world.network.run()
        assert answers["doh"] == answers["dot"] == answers["do53"]
        assert answers["doh"] == ["142.250.64.78"]


class TestDeterminism:
    def test_identical_studies_identical_records(self):
        def run_once():
            store = run_campaigns(
                study_legs(
                    home_rounds=2, ec2_rounds=2, target_hostnames=MINI_CATALOG_HOSTNAMES,
                ),
                world_seed=99,
            ).store
            return [record.to_json() for record in store]

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        def run_once(seed):
            store = run_campaigns(
                study_legs(
                    home_rounds=1, ec2_rounds=1, target_hostnames=MINI_CATALOG_HOSTNAMES,
                ),
                world_seed=seed,
            ).store
            return [record.to_json() for record in store]

        assert run_once(1) != run_once(2)


class TestStudyProperties:
    @pytest.fixture(scope="class")
    def store(self):
        return run_campaigns(
            study_legs(
                home_rounds=4, ec2_rounds=4, target_hostnames=MINI_CATALOG_HOSTNAMES,
            ),
            world_seed=13,
        ).store

    def test_every_live_resolver_measured_from_every_vantage(self, store):
        live = [h for h in MINI_CATALOG_HOSTNAMES if h != "dns.pumplex.com"]
        for vantage in HOME_VANTAGE_NAMES + EC2_VANTAGE_NAMES:
            seen = {record.resolver for record in store.filter(vantage=vantage)}
            for hostname in live:
                assert hostname in seen, (vantage, hostname)

    def test_icmp_silent_resolvers_have_no_ping_successes(self, store):
        # ibksturm.synology.me is configured answers_icmp=False.
        pings = store.filter(kind="ping", resolver="ibksturm.synology.me")
        assert pings and all(not record.success for record in pings)

    def test_successful_queries_have_durations_and_rcode(self, store):
        for record in store.filter(kind="dns_query", success=True):
            assert record.duration_ms is not None and record.duration_ms > 0
            assert record.rcode == 0
            assert record.http_status == 200

    def test_failed_queries_classified(self, store):
        for record in store.filter(kind="dns_query", success=False):
            assert record.error_class is not None

    def test_round_indexes_contiguous(self, store):
        home_rounds = {r.round_index for r in store.filter(predicate=lambda r: r.campaign == "home-chicago")}
        assert home_rounds == {0, 1, 2, 3}

    def test_mainstream_beats_distant_unicast_everywhere(self, store):
        from repro.analysis.response_times import resolver_medians

        for vantage in ("ec2-ohio", "ec2-frankfurt", "ec2-seoul"):
            medians = resolver_medians(store, vantage=vantage)
            assert medians["dns.google"] < medians["doh.ffmuc.net"], vantage
