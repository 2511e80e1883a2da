"""Tests for the Do53/DoT/DoH frontends and the deployment model."""

import random

import pytest

from repro.core.probes import (
    Do53Probe,
    DohProbe,
    DohProbeConfig,
    DotProbe,
    ProbeConfig,
)
from repro.core.errors_taxonomy import ErrorClass
from repro.dnswire.name import Name
from repro.dnswire.types import TYPE_A
from repro.errors import CampaignConfigError
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.deployment import (
    ProcessingModel,
    ReliabilityModel,
    ResolverDeployment,
    ResolverSite,
)
from repro.resolver.recursive import RootHints
from repro.resolver.zones import ROOT_SERVER_ADDRESSES, STUDY_DOMAINS, build_world_zones
from tests.conftest import add_host, make_quiet_network


def build_setup(
    reliability=None,
    transports=("doh", "dot", "do53"),
    tls_versions=("1.3", "1.2"),
    http_versions=("h2", "http/1.1"),
    answers_icmp=True,
    sites=1,
):
    """One resolver deployment + flat auth hierarchy + a client host."""
    net = make_quiet_network()
    zones = build_world_zones()
    for index, ip in enumerate(ROOT_SERVER_ADDRESSES.values()):
        host = add_host(net, f"auth{index}", ip, lat=39.04, lon=-77.49)
        AuthoritativeServer(zones).serve_udp(host)  # serves everything

    site_list = []
    for index in range(sites):
        host = add_host(net, f"site{index}", f"203.0.113.{index + 1}", lat=41.88, lon=-87.63)
        site_list.append(ResolverSite(host=host))
    deployment = ResolverDeployment(
        hostname="dns.test",
        sites=site_list,
        service_ip="192.88.99.1" if sites > 1 else site_list[0].host.ip,
        anycast=sites > 1,
        transports=transports,
        tls_versions=tls_versions,
        http_versions=http_versions,
        answers_icmp=answers_icmp,
        processing=ProcessingModel(base_ms=1.0, jitter_ms=0.0, slow_tail_p=0.0),
        reliability=reliability or ReliabilityModel(),
    )
    deployment.activate(net, RootHints(list(ROOT_SERVER_ADDRESSES.values())))
    client = add_host(net, "client", "198.18.0.1", lat=39.96, lon=-83.00)
    return net, deployment, client


def run_doh_query(net, deployment, client, domain="google.com", config=None):
    probe = DohProbe(
        client, deployment.service_ip, deployment.hostname,
        config or DohProbeConfig(), rng=random.Random(7),
    )
    outcomes = []
    probe.query(domain, outcomes.append)
    net.run()
    return outcomes[0]


class TestDohFrontend:
    def test_post_query_answered(self):
        net, deployment, client = build_setup()
        outcome = run_doh_query(net, deployment, client)
        assert outcome.success
        assert outcome.answers == [STUDY_DOMAINS["google.com."]]
        assert outcome.http_version == "h2"
        assert outcome.tls_version == "1.3"

    def test_get_query_answered(self):
        net, deployment, client = build_setup()
        outcome = run_doh_query(net, deployment, client, config=DohProbeConfig(method="GET"))
        assert outcome.success

    def test_http11_fallback(self):
        net, deployment, client = build_setup(http_versions=("http/1.1",))
        outcome = run_doh_query(net, deployment, client)
        assert outcome.success
        assert outcome.http_version == "http/1.1"

    def test_tls12_only_server(self):
        net, deployment, client = build_setup(tls_versions=("1.2",))
        outcome = run_doh_query(net, deployment, client)
        assert outcome.success
        assert outcome.tls_version == "1.2"

    def test_nxdomain_is_dns_rcode_failure(self):
        net, deployment, client = build_setup()
        outcome = run_doh_query(net, deployment, client, domain="missing.google.com")
        assert not outcome.success
        assert outcome.error_class == ErrorClass.DNS_RCODE
        assert outcome.rcode == 3

    def test_wrong_path_is_http_404(self):
        net, deployment, client = build_setup()
        outcome = run_doh_query(
            net, deployment, client, config=DohProbeConfig(doh_path="/wrong")
        )
        assert not outcome.success
        assert outcome.error_class == ErrorClass.HTTP_ERROR
        assert outcome.http_status == 404

    def test_connection_reuse_skips_handshake(self):
        net, deployment, client = build_setup()
        # Warm the resolver's cache so durations are pure transport time.
        run_doh_query(net, deployment, client)
        probe = DohProbe(
            client, deployment.service_ip, deployment.hostname,
            DohProbeConfig(reuse_connections=True), rng=random.Random(7),
        )
        durations = []
        for _ in range(3):
            outcomes = []
            probe.query("google.com", outcomes.append)
            net.run()
            durations.append(outcomes[0].duration_ms)
        probe.close()
        rtt = net.rtt_between(client, deployment.service_ip)
        assert durations[0] / rtt == pytest.approx(3.0, rel=0.2)
        assert durations[1] / rtt == pytest.approx(1.0, rel=0.25)
        assert durations[2] / rtt == pytest.approx(1.0, rel=0.25)

    def test_anycast_service_ip(self):
        net, deployment, client = build_setup(sites=2)
        outcome = run_doh_query(net, deployment, client)
        assert outcome.success
        assert net.is_anycast(deployment.service_ip)


class TestDotFrontend:
    def test_query_answered(self):
        net, deployment, client = build_setup()
        probe = DotProbe(
            client, deployment.service_ip, deployment.hostname,
            ProbeConfig(), rng=random.Random(7),
        )
        outcomes = []
        probe.query("google.com", outcomes.append)
        net.run()
        assert outcomes[0].success
        assert outcomes[0].answers == [STUDY_DOMAINS["google.com."]]

    def test_reuse_second_query_is_one_rtt(self):
        net, deployment, client = build_setup()
        probe = DotProbe(
            client, deployment.service_ip, deployment.hostname,
            ProbeConfig(reuse_connections=True), rng=random.Random(7),
        )
        durations = []
        for _ in range(2):
            outcomes = []
            probe.query("google.com", outcomes.append)
            net.run()
            durations.append(outcomes[0].duration_ms)
        probe.close()
        rtt = net.rtt_between(client, deployment.service_ip)
        assert durations[1] / rtt == pytest.approx(1.0, rel=0.15)

    def test_disabled_transport_refused(self):
        net, deployment, client = build_setup(transports=("doh",))
        probe = DotProbe(
            client, deployment.service_ip, deployment.hostname,
            ProbeConfig(), rng=random.Random(7),
        )
        outcomes = []
        probe.query("google.com", outcomes.append)
        net.run()
        assert not outcomes[0].success
        assert outcomes[0].error_class == ErrorClass.CONNECT_REFUSED


class TestDo53Frontend:
    def test_udp_query_answered(self):
        net, deployment, client = build_setup()
        probe = Do53Probe(client, deployment.service_ip, ProbeConfig(), rng=random.Random(7))
        outcomes = []
        probe.query("google.com", outcomes.append)
        net.run()
        assert outcomes[0].success
        assert outcomes[0].answers == [STUDY_DOMAINS["google.com."]]

    def test_do53_is_one_rtt_plus_processing(self):
        net, deployment, client = build_setup()
        probe = Do53Probe(client, deployment.service_ip, rng=random.Random(7))
        outcomes = []
        probe.query("google.com", outcomes.append)
        net.run()
        # Cache was warmed by nothing: first query walks the tree; second hits.
        outcomes2 = []
        probe.query("google.com", outcomes2.append)
        net.run()
        rtt = net.rtt_between(client, deployment.service_ip)
        assert outcomes2[0].duration_ms == pytest.approx(rtt + 1.0, rel=0.1)


class TestReliability:
    def test_refusals_surface_as_connect_refused(self):
        net, deployment, client = build_setup(
            reliability=ReliabilityModel(connect_refuse_p=0.999999)
        )
        outcome = run_doh_query(net, deployment, client)
        assert not outcome.success
        assert outcome.error_class == ErrorClass.CONNECT_REFUSED

    def test_drops_surface_as_connect_timeout(self):
        net, deployment, client = build_setup(
            reliability=ReliabilityModel(connect_drop_p=0.999999)
        )
        outcome = run_doh_query(
            net, deployment, client, config=DohProbeConfig(timeout_ms=2000.0)
        )
        assert not outcome.success
        assert outcome.error_class in (ErrorClass.CONNECT_TIMEOUT, ErrorClass.TIMEOUT)

    def test_server_failure_gives_servfail(self):
        net, deployment, client = build_setup(
            reliability=ReliabilityModel(server_failure_p=0.999999)
        )
        outcome = run_doh_query(net, deployment, client)
        assert not outcome.success
        assert outcome.error_class == ErrorClass.DNS_RCODE
        assert outcome.rcode == 2  # SERVFAIL

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(CampaignConfigError):
            ReliabilityModel(connect_refuse_p=0.6, connect_drop_p=0.5)


class TestDeploymentModel:
    def test_no_sites_rejected(self):
        with pytest.raises(CampaignConfigError):
            ResolverDeployment(hostname="x", sites=[], service_ip="10.0.0.1")

    def test_anycast_needs_two_sites(self):
        net = make_quiet_network()
        host = add_host(net, "s", "203.0.113.1")
        with pytest.raises(CampaignConfigError):
            ResolverDeployment(
                hostname="x", sites=[ResolverSite(host=host)],
                service_ip="192.88.99.1", anycast=True,
            )

    def test_icmp_policy_applied(self):
        net, deployment, client = build_setup(answers_icmp=False)
        from repro.netsim.icmp import ping

        results = []
        ping(client, deployment.service_ip, results.append, timeout_ms=500.0)
        net.run()
        assert not results[0].responded

    def test_describe(self):
        net, deployment, _client = build_setup()
        text = deployment.describe()
        assert "dns.test" in text and "non-mainstream" in text

    def test_processing_model_sampling(self):
        model = ProcessingModel(base_ms=2.0, jitter_ms=1.0, slow_tail_p=0.5, slow_tail_ms=100.0)
        rng = random.Random(1)
        samples = [model.sample_ms(rng) for _ in range(500)]
        assert min(samples) >= 2.0
        assert max(samples) > 50.0  # the heavy tail fires at p=0.5
