"""Tests for the measurement probes against the mini world."""

import random

import pytest

from repro.core.errors_taxonomy import ErrorClass
from repro.core.probes import (
    Do53Probe,
    DohProbe,
    DohProbeConfig,
    DotProbe,
    PingProbe,
    ProbeConfig,
)
from repro.session import COLD_TERMS, SessionTerms
from repro.tlssim.session import SessionCache
from tests.conftest import make_mini_world


@pytest.fixture(scope="module")
def world():
    return make_mini_world(seed=5)


def doh_outcome(
    world, vantage, hostname, domain="google.com", config=None, seed=1, session=COLD_TERMS
):
    deployment = world.deployment(hostname)
    probe = DohProbe(
        world.vantage(vantage).host, deployment.service_ip, hostname,
        config or DohProbeConfig(), rng=random.Random(seed), session=session,
    )
    outcomes = []
    probe.query(domain, outcomes.append)
    world.network.run()
    assert len(outcomes) == 1
    return outcomes[0]


class TestDohProbe:
    def test_success_details_populated(self, world):
        outcome = doh_outcome(world, "ec2-ohio", "dns.google")
        assert outcome.success
        assert outcome.rcode == 0
        assert outcome.http_status == 200
        assert outcome.http_version == "h2"
        assert outcome.tls_version == "1.3"
        assert outcome.response_size and outcome.response_size > 20
        assert outcome.answers
        assert not outcome.connection_reused

    def test_duration_scales_with_distance(self, world):
        near = doh_outcome(world, "ec2-frankfurt", "dns.brahma.world")
        far = doh_outcome(world, "ec2-seoul", "dns.brahma.world")
        assert near.success and far.success
        assert far.duration_ms > near.duration_ms * 5

    def test_anycast_fast_from_everywhere(self, world):
        for vantage in ("ec2-ohio", "ec2-frankfurt", "ec2-seoul"):
            outcome = doh_outcome(world, vantage, "dns.google")
            assert outcome.success
            assert outcome.duration_ms < 60.0, vantage

    def test_get_method(self, world):
        outcome = doh_outcome(
            world, "ec2-ohio", "dns.google", config=DohProbeConfig(method="GET")
        )
        assert outcome.success

    def test_http1_only_server_negotiates_h1(self, world):
        outcome = doh_outcome(world, "ec2-frankfurt", "ibksturm.synology.me", seed=3)
        if outcome.success:  # flaky deployment; success path checks versions
            assert outcome.http_version == "http/1.1"
            assert outcome.tls_version == "1.2"

    def test_dead_resolver_times_out(self, world):
        outcome = doh_outcome(
            world, "ec2-ohio", "dns.pumplex.com",
            config=DohProbeConfig(timeout_ms=3000.0),
        )
        assert not outcome.success
        assert outcome.error_class in (ErrorClass.CONNECT_TIMEOUT, ErrorClass.TIMEOUT)
        assert outcome.duration_ms is not None  # time spent until failure

    def test_odoh_target_pays_relay_penalty(self, world):
        plain = doh_outcome(world, "ec2-ohio", "dns.brahma.world")
        odoh = doh_outcome(world, "ec2-ohio", "odoh-target.alekberg.net")
        assert odoh.success
        # NY is closer to Ohio than Frankfurt, yet the relay + slow tier
        # keeps the ODoH target from being proportionally faster.
        assert odoh.duration_ms > 24.0

    def test_session_cache_resumption_speeds_up(self, world):
        cache = SessionCache()
        config = dict(session=SessionTerms(session_cache=cache, enable_early_data=True))
        first = doh_outcome(world, "ec2-seoul", "dns.brahma.world", **config)
        second = doh_outcome(world, "ec2-seoul", "dns.brahma.world", **config)
        assert first.success and second.success
        assert second.duration_ms < first.duration_ms * 0.78  # 2 RTT vs 3 RTT

    def test_reuse_mode_marks_records(self, world):
        deployment = world.deployment("dns.google")
        probe = DohProbe(
            world.vantage("ec2-ohio").host, deployment.service_ip, "dns.google",
            DohProbeConfig(reuse_connections=True), rng=random.Random(1),
        )
        outcomes = []
        probe.query("google.com", outcomes.append)
        world.network.run()
        probe.query("amazon.com", outcomes.append)
        world.network.run()
        probe.close()
        assert not outcomes[0].connection_reused
        assert outcomes[1].connection_reused
        assert outcomes[1].duration_ms < outcomes[0].duration_ms


class TestDotProbe:
    def test_success(self, world):
        deployment = world.deployment("dns.quad9.net")
        probe = DotProbe(
            world.vantage("ec2-ohio").host, deployment.service_ip, "dns.quad9.net",
            ProbeConfig(), rng=random.Random(1),
        )
        outcomes = []
        probe.query("google.com", outcomes.append)
        world.network.run()
        assert outcomes[0].success
        assert outcomes[0].tls_version == "1.3"

    def test_dot_close_is_idempotent(self, world):
        deployment = world.deployment("dns.quad9.net")
        probe = DotProbe(
            world.vantage("ec2-ohio").host, deployment.service_ip, "dns.quad9.net",
            ProbeConfig(reuse_connections=True), rng=random.Random(1),
        )
        outcomes = []
        probe.query("google.com", outcomes.append)
        world.network.run()
        probe.close()
        probe.close()
        assert outcomes[0].success


class TestDo53Probe:
    def test_success_over_udp(self, world):
        deployment = world.deployment("dns.google")
        probe = Do53Probe(
            world.vantage("ec2-ohio").host, deployment.service_ip, rng=random.Random(1)
        )
        outcomes = []
        probe.query("google.com", outcomes.append)
        world.network.run()
        assert outcomes[0].success
        assert outcomes[0].answers

    def test_do53_faster_than_fresh_doh(self, world):
        deployment = world.deployment("dns.brahma.world")
        host = world.vantage("ec2-ohio").host
        udp_outcomes, doh_outcomes = [], []
        Do53Probe(host, deployment.service_ip, rng=random.Random(1)).query(
            "google.com", udp_outcomes.append
        )
        world.network.run()
        DohProbe(host, deployment.service_ip, "dns.brahma.world",
                 rng=random.Random(1)).query("google.com", doh_outcomes.append)
        world.network.run()
        assert udp_outcomes[0].duration_ms < doh_outcomes[0].duration_ms / 2


class TestPingProbe:
    def test_ping_matches_rtt(self, world):
        deployment = world.deployment("dns.brahma.world")
        host = world.vantage("ec2-frankfurt").host
        outcomes = []
        PingProbe(host, deployment.service_ip).send(outcomes.append)
        world.network.run()
        assert outcomes[0].success
        rtt = world.network.rtt_between(host, deployment.service_ip)
        assert outcomes[0].duration_ms == pytest.approx(rtt, abs=3.0)

    def test_ping_much_smaller_than_doh(self, world):
        deployment = world.deployment("dns.twnic.tw")
        host = world.vantage("ec2-seoul").host
        pings, queries = [], []
        PingProbe(host, deployment.service_ip).send(pings.append)
        world.network.run()
        DohProbe(host, deployment.service_ip, "dns.twnic.tw",
                 rng=random.Random(1)).query("google.com", queries.append)
        world.network.run()
        assert queries[0].duration_ms > pings[0].duration_ms * 2.5


class TestProbeConfigValidation:
    """Bad timeout/retry parameters must fail at construction, not mid-probe."""

    def test_probes_made_without_a_config_share_one(self, world):
        # Frozen, so built and checked once, not once per probe.
        from repro.core.odoh import OdohProbe, OdohProbeConfig
        from repro.core.probes import make_probe

        host = world.vantage("ec2-ohio").host
        first, second = (
            make_probe(transport, host, "192.0.2.1", "a.example")
            for transport in ("doh", "do53")
        )
        assert first.config is second.config
        assert first.config == ProbeConfig()
        odoh = [OdohProbe(host, "192.0.2.1", "proxy.example", "a.example") for _ in "ab"]
        assert odoh[0].config is odoh[1].config
        assert odoh[0].config == OdohProbeConfig()

    @pytest.mark.parametrize("timeout_ms", [0, -1, -0.5, "fast", None, True])
    def test_doh_config_rejects_bad_timeouts(self, timeout_ms):
        from repro.errors import CampaignConfigError

        with pytest.raises(CampaignConfigError):
            DohProbeConfig(timeout_ms=timeout_ms)

    def test_doh_config_rejects_unknown_method(self):
        from repro.errors import CampaignConfigError

        with pytest.raises(CampaignConfigError):
            DohProbeConfig(method="PATCH")

    @pytest.mark.parametrize("timeout_ms", [0, -250.0])
    def test_dot_config_rejects_bad_timeouts(self, timeout_ms):
        from repro.errors import CampaignConfigError

        with pytest.raises(CampaignConfigError):
            ProbeConfig(timeout_ms=timeout_ms)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeout_ms=0),
            dict(retries=-1),
            dict(retries=1.5),
            dict(retry_interval_ms=0),
        ],
    )
    def test_do53_config_rejects_bad_parameters(self, kwargs):
        from repro.errors import CampaignConfigError

        with pytest.raises(CampaignConfigError):
            ProbeConfig(**kwargs)

    def test_doq_config_rejects_bad_timeout(self):
        from repro.errors import CampaignConfigError

        with pytest.raises(CampaignConfigError):
            ProbeConfig(timeout_ms=-1)

    def test_ping_probe_rejects_bad_timeout(self, world):
        from repro.errors import CampaignConfigError

        host = world.vantage("ec2-ohio").host
        with pytest.raises(CampaignConfigError):
            PingProbe(host, "10.0.0.1", timeout_ms=0)

    def test_valid_configs_accepted(self):

        assert DohProbeConfig(timeout_ms=1.0).timeout_ms == 1.0
        assert ProbeConfig(timeout_ms=2500).timeout_ms == 2500
        assert ProbeConfig(retries=0).retries == 0
        assert ProbeConfig(timeout_ms=4000.0).timeout_ms == 4000.0
