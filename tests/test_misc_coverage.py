"""Edge-path tests across modules: trace bounds, listener lifecycle,
HTTP/1.1 keep-alive DoH, DoT resumption, report rendering internals."""

import random

import pytest

from repro.analysis.render import render_boxplot_rows
from repro.analysis.figures import FigureRow
from repro.analysis.stats import summarize
from repro.core.probes import DohProbe, DohProbeConfig, DotProbe, ProbeConfig
from repro.errors import AddressError
from repro.netsim.packet import Datagram
from repro.netsim.trace import EventTrace
from repro.tlssim.session import SessionCache
from tests.conftest import (
    MINI_CATALOG_HOSTNAMES,
    add_host,
    make_mini_world,
    make_quiet_network,
)


class TestTraceBounds:
    def test_max_events_cap(self):
        trace = EventTrace(max_events=3)
        dgram = Datagram(src_ip="1.1.1.1", src_port=1, dst_ip="2.2.2.2",
                         dst_port=2, payload=b"x")
        for _ in range(10):
            trace.record(0.0, "sent", dgram)
        assert len(trace) == 3

    def test_clear(self):
        trace = EventTrace()
        dgram = Datagram(src_ip="1.1.1.1", src_port=1, dst_ip="2.2.2.2",
                         dst_port=2, payload=b"x")
        trace.record(0.0, "sent", dgram)
        trace.clear()
        assert len(trace) == 0

    def test_unroutable_recorded(self):
        net = make_quiet_network(trace=True)
        src = add_host(net, "s", "10.0.0.1")
        dgram = Datagram(src_ip=src.ip, src_port=1, dst_ip="10.9.9.9",
                         dst_port=2, payload=b"x")
        net.transmit(src, dgram)
        assert [e.kind for e in net.trace] == ["unroutable"]


class TestHostLifecycle:
    def test_rebind_udp_after_unbind(self):
        net = make_quiet_network()
        host = add_host(net, "h", "10.0.0.1")
        host.bind_udp(53, lambda dgram, h: None)
        with pytest.raises(AddressError):
            host.bind_udp(53, lambda dgram, h: None)
        host.unbind_udp(53)
        host.bind_udp(53, lambda dgram, h: None)

    def test_close_tcp_listener(self):
        from repro.errors import ConnectionRefused
        from repro.netsim.sockets import SimTcpConnection

        net = make_quiet_network()
        a = add_host(net, "a", "10.0.0.1")
        b = add_host(net, "b", "10.0.0.2")
        b.listen_tcp(443, lambda conn: None)
        b.close_tcp_listener(443)
        errors = []
        SimTcpConnection.connect(a, b.ip, 443, lambda c: None, on_error=errors.append)
        net.run()
        assert isinstance(errors[0], ConnectionRefused)


class TestRenderEdgeCases:
    def test_ping_rows_included(self):
        rows = [
            FigureRow(
                resolver="r", mainstream=False,
                dns_stats=summarize([30.0, 32.0, 34.0]),
                ping_stats=summarize([10.0, 11.0, 12.0]),
            )
        ]
        text = render_boxplot_rows(rows, include_ping=True)
        assert "(ping)" in text

    def test_explicit_scale(self):
        rows = [
            FigureRow(resolver="r", mainstream=True,
                      dns_stats=summarize([100.0, 120.0]), ping_stats=None)
        ]
        text = render_boxplot_rows(rows, scale_max_ms=200.0)
        assert "200ms" in text


class TestH1KeepAliveDoH:
    def test_sequential_queries_one_connection(self):
        """HTTP/1.1 DoH reuses the connection for back-to-back queries."""
        world = make_mini_world(seed=61)
        deployment = world.deployment("ibksturm.synology.me")  # h1-only
        deployment.reliability.connect_refuse_p = 0.0
        deployment.reliability.connect_drop_p = 0.0
        deployment.reliability.server_failure_p = 0.0
        for site in deployment.sites:
            site.host.syn_policy = None
        probe = DohProbe(
            world.vantage("ec2-frankfurt").host, deployment.service_ip,
            "ibksturm.synology.me",
            DohProbeConfig(reuse_connections=True, http_versions=("http/1.1",),
                           tls_versions=("1.2",)),
            rng=random.Random(1),
        )
        durations = []
        for domain in ("google.com", "amazon.com", "wikipedia.com"):
            out = []
            probe.query(domain, out.append)
            world.network.run()
            assert out[0].success, out[0].error_detail
            assert out[0].http_version == "http/1.1"
            durations.append(out[0].duration_ms)
        probe.close()
        world.network.run()
        # Later queries skip the TCP+TLS1.2 establishment entirely; this
        # resolver's slow/jittery service tier still dominates the floor,
        # so the bound is the establishment saving, not a fixed ratio.
        assert durations[1] < durations[0] * 0.65
        assert durations[2] < durations[0] * 0.65


class TestDotResumption:
    def test_session_cache_speeds_up_second_connection(self):
        world = make_mini_world(seed=62)
        deployment = world.deployment("dns.google")
        cache = SessionCache()
        host = world.vantage("ec2-seoul").host

        def one(seed):
            probe = DotProbe(
                host, deployment.service_ip, "dns.google",
                ProbeConfig(), rng=random.Random(seed), session_cache=cache,
            )
            out = []
            probe.query("google.com", out.append)
            world.network.run()
            return out[0]

        first = one(1)
        second = one(2)
        assert first.success and second.success
        # Resumed TLS 1.3 omits the certificate flight; with 0-RTT disabled
        # on DoT probes by default (no early_data config), timing may match,
        # but never regress beyond jitter.
        assert second.duration_ms <= first.duration_ms * 1.3


class TestPaperReportRendering:
    def test_rendered_figures_have_all_panels(self):
        from repro.experiments.campaigns import run_study
        from repro.experiments.paper import generate_report

        store = run_study(
            world_seed=63, home_rounds=2, ec2_rounds=2,
            target_hostnames=MINI_CATALOG_HOSTNAMES,
        ).store
        report = generate_report(store=store)
        for figure in ("figure1", "figure2", "figure3", "figure4"):
            assert figure in report.rendered_figures
        assert "home-pooled" in report.rendered_figures["figure2"]
        assert "ec2-seoul" in report.rendered_figures["figure4"]
        # Each claim row renders into the table.
        text = report.describe()
        for claim in report.claims:
            assert claim.claim_id in text
