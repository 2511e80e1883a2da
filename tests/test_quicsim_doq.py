"""Tests for the QUIC simulation and DNS-over-QUIC."""

import random
from dataclasses import replace

import pytest

from repro.catalog.resolvers import CATALOG
from repro.core.probes import DohProbe, DohProbeConfig, DoqProbe, ProbeConfig
from repro.core.runner import Campaign, CampaignConfig
from repro.core.scheduler import PeriodicSchedule
from repro.errors import ConnectTimeout
from repro.experiments.world import build_world
from repro.quicsim.packets import (
    INITIAL_MIN_BYTES,
    KIND_INITIAL,
    KIND_ONE_RTT,
    QuicPacketError,
    decode_packet,
    encode_packet,
    stream_frame,
    stream_frame_data,
)
from repro.quicsim.connection import QuicClientConnection, QuicConfig, QuicServerListener
from repro.tlssim.session import SessionCache
from tests.conftest import add_host, make_quiet_network


class TestPacketCodec:
    def test_round_trip(self):
        frames = [stream_frame(4, 0, b"hello", True)]
        wire = encode_packet(KIND_ONE_RTT, 99, 7, frames)
        packet = decode_packet(wire)
        assert packet.kind == KIND_ONE_RTT
        assert packet.conn_id == 99
        assert packet.packet_number == 7
        assert stream_frame_data(packet.frames[0]) == b"hello"

    def test_initial_padding(self):
        wire = encode_packet(KIND_INITIAL, 1, 0, [], pad_to=INITIAL_MIN_BYTES)
        assert len(wire) >= INITIAL_MIN_BYTES
        assert decode_packet(wire).frames == ()

    def test_garbage_rejected(self):
        with pytest.raises(QuicPacketError):
            decode_packet(b"\x01\x02")
        with pytest.raises(QuicPacketError):
            decode_packet(b"\x09" + b"\x00" * 20)

    def test_binary_stream_data_safe(self):
        payload = bytes(range(256))
        wire = encode_packet(KIND_ONE_RTT, 1, 0, [stream_frame(0, 0, payload, True)])
        assert stream_frame_data(decode_packet(wire).frames[0]) == payload


def quic_echo_pair(net=None):
    """Client host + server host running an uppercasing QUIC echo."""
    net = net or make_quiet_network()
    client = add_host(net, "qc", "10.0.0.1", lat=41.88, lon=-87.63)
    server = add_host(net, "qs", "10.0.0.2", lat=39.96, lon=-83.00)

    def on_stream(conn, stream_id, data):
        conn.respond_stream(stream_id, data.upper())

    listener = QuicServerListener(server, 853, on_stream, QuicConfig())
    return net, client, server, listener


class TestQuicConnection:
    def test_fresh_exchange_is_two_rtt(self):
        net, client, server, _listener = quic_echo_pair()
        rtt = net.path_between(client, server).base_rtt_ms
        done = []
        conn = QuicClientConnection(client, server.ip, 853, "q.example")
        conn.open_stream(b"ping", lambda data: done.append((net.now, data)))
        net.run()
        when, data = done[0]
        assert data == b"PING"
        assert when / rtt == pytest.approx(2.0, rel=0.15)

    def test_multiple_streams_multiplex(self):
        net, client, server, listener = quic_echo_pair()
        conn = QuicClientConnection(client, server.ip, 853, "q.example")
        got = {}
        for index in range(3):
            conn.open_stream(
                f"msg{index}".encode(), lambda d, i=index: got.setdefault(i, d)
            )
        net.run()
        assert got == {0: b"MSG0", 1: b"MSG1", 2: b"MSG2"}
        assert listener.streams_served == 3

    def test_large_stream_reassembled(self):
        net, client, server, _listener = quic_echo_pair()
        conn = QuicClientConnection(client, server.ip, 853, "q.example")
        payload = bytes(i % 251 for i in range(5000))
        done = []
        conn.open_stream(payload, done.append)
        net.run()
        assert done[0] == payload.upper() if hasattr(payload, "upper") else done[0]
        assert len(done[0]) == 5000

    def test_zero_rtt_resumption(self):
        net, client, server, _listener = quic_echo_pair()
        rtt = net.path_between(client, server).base_rtt_ms
        cache = SessionCache()
        config = QuicConfig(session_cache=cache)
        # First connection: full handshake, stores a ticket.
        first_done = []
        conn1 = QuicClientConnection(client, server.ip, 853, "q.example", config=config)
        conn1.open_stream(b"one", lambda d: first_done.append(net.now))
        net.run()
        conn1.close()
        net.run()
        # Second: 0-RTT — response in ~1 RTT.
        start = net.now
        second_done = []
        conn2 = QuicClientConnection(client, server.ip, 853, "q.example", config=config)
        conn2.open_stream(b"two", lambda d: second_done.append(net.now))
        net.run()
        assert conn2.used_early_data
        assert (second_done[0] - start) / rtt == pytest.approx(1.0, rel=0.2)

    def test_ticket_registry_holds_one_lifetime_of_tickets(self):
        net, client, server, _listener = quic_echo_pair()
        cache = SessionCache()
        config = QuicConfig(session_cache=cache)
        week_ms = 7 * 24 * 3600 * 1000.0

        def exchange():
            conn = QuicClientConnection(client, server.ip, 853, "q.example", config=config)
            conn.open_stream(b"ping", lambda data: None)
            net.run()
            conn.close()
            net.run()
            return conn

        # Connections more than a ticket lifetime apart: each issue finds
        # the earlier tickets expired and drops them.
        for _ in range(5):
            assert not exchange().resumed
            net.loop.call_later(week_ms + 1.0, lambda: None)
            net.run()
        assert len(server.quic_tickets) == 1
        # A live ticket still resumes ...
        assert not exchange().resumed
        assert exchange().resumed
        assert len(server.quic_tickets) == 2
        # ... and one past its server-side expiry does not, even when the
        # client believes it lives on.
        (ticket,) = cache._tickets.values()
        cache.store(replace(ticket, lifetime_ms=10 * week_ms))
        net.loop.call_later(week_ms + 1.0, lambda: None)
        net.run()
        assert not exchange().resumed

    def test_rejected_early_data_replayed(self):
        net, client, server, listener = quic_echo_pair()
        cache = SessionCache()
        config = QuicConfig(session_cache=cache)
        conn1 = QuicClientConnection(client, server.ip, 853, "q.example", config=config)
        done1 = []
        conn1.open_stream(b"warm", done1.append)
        net.run()
        conn1.close()
        net.run()
        listener.config.allow_early_data = False  # server key rotation
        done2 = []
        conn2 = QuicClientConnection(client, server.ip, 853, "q.example", config=config)
        conn2.open_stream(b"retry", done2.append)
        net.run()
        assert done2 == [b"RETRY"]

    def test_dead_server_times_out(self):
        net = make_quiet_network()
        client = add_host(net, "qc", "10.0.0.1")
        add_host(net, "qs", "10.0.0.2").blackholed = True
        errors = []
        QuicClientConnection(
            client, "10.0.0.2", 853, "q.example",
            config=QuicConfig(connect_timeout_ms=800.0),
            on_error=errors.append,
        )
        net.run()
        assert isinstance(errors[0], ConnectTimeout)

    def test_loss_recovered_by_pto(self):
        net, client, server, _listener = quic_echo_pair()
        # Lose the first datagram (the Initial), then deliver everything.
        state = [True]
        original = type(net.latency).sample_loss

        def lose_first(path, rng):
            if state[0]:
                state[0] = False
                return True
            return False

        done = []
        try:
            type(net.latency).sample_loss = staticmethod(lose_first)
            conn = QuicClientConnection(client, server.ip, 853, "q.example")
            conn.open_stream(b"x", lambda d: done.append(net.now))
            net.run()
        finally:
            type(net.latency).sample_loss = original
        assert len(done) == 1
        assert done[0] >= 300.0  # paid one PTO


@pytest.fixture(scope="module")
def doq_world():
    catalog = [
        replace(entry, reliability="rock")
        for entry in CATALOG
        if entry.hostname == "dns.adguard.com"
    ]
    return build_world(seed=14, catalog=catalog)


class TestDoqProbe:
    def test_query_succeeds(self, doq_world):
        world = doq_world
        deployment = world.deployment("dns.adguard.com")
        probe = DoqProbe(
            world.vantage("ec2-frankfurt").host, deployment.service_ip,
            "dns.adguard.com", ProbeConfig(), rng=random.Random(1),
        )
        out = []
        probe.query("google.com", out.append)
        world.network.run()
        assert out[0].success
        assert out[0].tls_version == "quic"
        assert out[0].answers == ["142.250.64.78"]

    def test_doq_saves_a_round_trip_vs_doh(self, doq_world):
        world = doq_world
        deployment = world.deployment("dns.adguard.com")
        host = world.vantage("ec2-ohio").host
        rtt = world.network.rtt_between(host, deployment.service_ip)
        doh_out, doq_out = [], []
        DohProbe(host, deployment.service_ip, "dns.adguard.com",
                 DohProbeConfig(), rng=random.Random(2)).query("google.com", doh_out.append)
        world.network.run()
        DoqProbe(host, deployment.service_ip, "dns.adguard.com",
                 ProbeConfig(), rng=random.Random(2)).query("google.com", doq_out.append)
        world.network.run()
        assert doq_out[0].duration_ms < doh_out[0].duration_ms - 0.7 * rtt

    def test_reuse_mode(self, doq_world):
        world = doq_world
        deployment = world.deployment("dns.adguard.com")
        probe = DoqProbe(
            world.vantage("ec2-ohio").host, deployment.service_ip,
            "dns.adguard.com", ProbeConfig(reuse_connections=True),
            rng=random.Random(3),
        )
        out = []
        probe.query("google.com", out.append)
        world.network.run()
        probe.query("amazon.com", out.append)
        world.network.run()
        probe.close()
        assert out[1].connection_reused
        assert out[1].duration_ms < out[0].duration_ms * 0.7

    def test_doq_campaign(self, doq_world):
        world = doq_world
        config = CampaignConfig(
            name="doq-campaign",
            transports=("doq",),
            schedule=PeriodicSchedule(
                rounds=2, interval_ms=3600_000.0, start_ms=world.network.loop.now
            ),
        )
        store = Campaign(
            network=world.network,
            vantages=[world.vantage("ec2-ohio")],
            targets=world.targets(["dns.adguard.com"]),
            config=config,
        ).run()
        queries = store.filter(kind="dns_query")
        assert queries and all(r.transport == "doq" for r in queries)
        assert all(r.success for r in queries)

    def test_non_doq_deployment_ignores_quic(self, doq_world):
        """A resolver without DoQ silently drops QUIC datagrams -> timeout."""
        from repro.catalog.resolvers import CATALOG as FULL

        catalog = [e for e in FULL if e.hostname == "dns.brahma.world"]
        world = build_world(seed=15, catalog=catalog)
        deployment = world.deployment("dns.brahma.world")
        probe = DoqProbe(
            world.vantage("ec2-frankfurt").host, deployment.service_ip,
            "dns.brahma.world", ProbeConfig(timeout_ms=1500.0),
            rng=random.Random(4),
        )
        out = []
        probe.query("google.com", out.append)
        world.network.run()
        assert not out[0].success
