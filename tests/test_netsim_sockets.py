"""Tests for simulated UDP sockets and TCP connections."""

import pytest

from repro.errors import ConnectionRefused, ConnectTimeout, SocketError
from repro.netsim.sockets import MSS, SYN_RTO_MS, SimTcpConnection, SimUdpSocket
from tests.conftest import add_host, make_quiet_network


def make_pair(net=None):
    net = net or make_quiet_network()
    a = add_host(net, "a", "10.0.0.1", lat=41.88, lon=-87.63)
    b = add_host(net, "b", "10.0.0.2", lat=39.96, lon=-83.00)
    return net, a, b


class TestUdpSocket:
    def test_ephemeral_ports_unique(self):
        net, a, _b = make_pair()
        s1, s2 = SimUdpSocket(a), SimUdpSocket(a)
        assert s1.port != s2.port

    def test_echo_round_trip(self):
        net, a, b = make_pair()

        def server(dgram, host):
            reply = SimUdpSocket(host)
            reply.sendto(b"pong", dgram.src_ip, dgram.src_port)
            reply.close()

        b.bind_udp(53, server)
        client = SimUdpSocket(a)
        got = []
        client.on_datagram = lambda dgram: got.append(dgram.payload)
        client.sendto(b"ping", b.ip, 53)
        net.run()
        assert got == [b"pong"]

    def test_closed_socket_rejects_send(self):
        _net, a, b = make_pair()
        socket = SimUdpSocket(a)
        socket.close()
        with pytest.raises(SocketError):
            socket.sendto(b"x", b.ip, 53)

    def test_close_unbinds_port(self):
        net, a, b = make_pair()
        socket = SimUdpSocket(a)
        port = socket.port
        socket.close()
        # Reusing the port must not raise "already bound".
        a.bind_udp(port, lambda dgram, host: None)

    def test_unbound_port_drops_silently(self):
        net, a, b = make_pair()
        client = SimUdpSocket(a)
        client.sendto(b"x", b.ip, 9999)  # nothing bound there
        net.run()  # must simply drain with no error


class TestTcpHandshake:
    def test_connect_takes_one_rtt(self):
        net, a, b = make_pair()
        b.listen_tcp(443, lambda conn: None)
        established = []
        SimTcpConnection.connect(a, b.ip, 443, lambda conn: established.append(net.now))
        net.run()
        rtt = net.path_between(a, b).base_rtt_ms
        assert established == [pytest.approx(rtt)]

    def test_server_acceptor_invoked(self):
        net, a, b = make_pair()
        accepted = []
        b.listen_tcp(443, accepted.append)
        SimTcpConnection.connect(a, b.ip, 443, lambda conn: None)
        net.run()
        assert len(accepted) == 1
        assert not accepted[0].is_client
        assert accepted[0].state == SimTcpConnection.ESTABLISHED

    def test_closed_port_refused(self):
        net, a, b = make_pair()
        errors = []
        SimTcpConnection.connect(
            a, b.ip, 443, lambda conn: None, on_error=errors.append
        )
        net.run()
        assert len(errors) == 1
        assert isinstance(errors[0], ConnectionRefused)

    def test_unroutable_destination_times_out(self):
        net, a, _b = make_pair()
        errors = []
        SimTcpConnection.connect(
            a, "10.9.9.9", 443, lambda conn: None,
            on_error=errors.append, timeout_ms=500.0,
        )
        net.run()
        assert len(errors) == 1
        assert isinstance(errors[0], ConnectTimeout)

    def test_blackholed_server_times_out(self):
        net, a, b = make_pair()
        b.listen_tcp(443, lambda conn: None)
        b.blackholed = True
        errors = []
        SimTcpConnection.connect(
            a, b.ip, 443, lambda conn: None, on_error=errors.append, timeout_ms=800.0
        )
        net.run()
        assert isinstance(errors[0], ConnectTimeout)

    def test_syn_policy_refuse(self):
        net, a, b = make_pair()
        b.listen_tcp(443, lambda conn: None)
        b.syn_policy = lambda segment: "refuse"
        errors = []
        SimTcpConnection.connect(a, b.ip, 443, lambda conn: None, on_error=errors.append)
        net.run()
        assert isinstance(errors[0], ConnectionRefused)

    def test_syn_policy_drop_then_timeout(self):
        net, a, b = make_pair()
        b.listen_tcp(443, lambda conn: None)
        b.syn_policy = lambda segment: "drop"
        errors = []
        SimTcpConnection.connect(
            a, b.ip, 443, lambda conn: None, on_error=errors.append, timeout_ms=700.0
        )
        net.run()
        assert isinstance(errors[0], ConnectTimeout)

    def test_syn_retransmission_recovers_from_loss(self):
        net, a, b = make_pair()
        b.listen_tcp(443, lambda conn: None)
        # Lose exactly the first packet (the SYN), then deliver everything.
        original_rate = [1.0]

        def flaky_loss(path, rng):
            if original_rate[0] > 0:
                original_rate[0] = 0
                return True
            return False

        net.latency.core_loss_rate = 0.0
        import repro.netsim.network as network_module

        established = []
        monkey_target = net.latency
        real_sample = type(monkey_target).sample_loss
        try:
            type(monkey_target).sample_loss = staticmethod(flaky_loss)
            SimTcpConnection.connect(
                a, b.ip, 443, lambda conn: established.append(net.now), timeout_ms=10_000
            )
            net.run()
        finally:
            type(monkey_target).sample_loss = real_sample
        # Established after ~1s retransmission timeout + 1 RTT.
        assert len(established) == 1
        assert established[0] >= 1000.0


class TestTcpData:
    def _connected_pair(self, net=None):
        net, a, b = make_pair(net)
        server_conns = []
        b.listen_tcp(443, server_conns.append)
        client_conns = []
        SimTcpConnection.connect(a, b.ip, 443, client_conns.append)
        net.run()
        return net, client_conns[0], server_conns[0]

    def test_small_send_received_once(self):
        net, client, server = self._connected_pair()
        received = []
        server.on_data = received.append
        client.send(b"hello")
        net.run()
        assert received == [b"hello"]

    def test_large_send_segmented_and_reassembled(self):
        net, client, server = self._connected_pair()
        chunks = []
        server.on_data = chunks.append
        payload = bytes(range(256)) * 20  # 5120 B > 3 x MSS
        client.send(payload)
        net.run()
        assert b"".join(chunks) == payload
        assert len(chunks) == (len(payload) + MSS - 1) // MSS

    def test_bidirectional_exchange(self):
        net, client, server = self._connected_pair()
        server.on_data = lambda data: server.send(b"resp:" + data)
        got = []
        client.on_data = got.append
        client.send(b"req")
        net.run()
        assert got == [b"resp:req"]

    def test_empty_send_is_noop(self):
        net, client, server = self._connected_pair()
        received = []
        server.on_data = received.append
        client.send(b"")
        net.run()
        assert received == []

    def test_send_before_established_rejected(self):
        net, a, b = make_pair()
        b.listen_tcp(443, lambda conn: None)
        conn = SimTcpConnection.connect(a, b.ip, 443, lambda c: None)
        with pytest.raises(SocketError):
            conn.send(b"early")

    def test_byte_counters(self):
        net, client, server = self._connected_pair()
        server.on_data = lambda data: None
        client.send(b"12345")
        net.run()
        assert client.bytes_sent == 5
        assert server.bytes_received == 5

    def test_srtt_estimated_from_handshake(self):
        net, client, server = self._connected_pair()
        rtt = net.path_between(client.host, server.host).base_rtt_ms
        assert client.srtt_ms == pytest.approx(rtt, rel=0.01)


class TestTcpTeardown:
    def _connected_pair(self):
        net = make_quiet_network()
        net, a, b = make_pair(net)
        server_conns = []
        b.listen_tcp(443, server_conns.append)
        client_conns = []
        SimTcpConnection.connect(a, b.ip, 443, client_conns.append)
        net.run()
        return net, client_conns[0], server_conns[0]

    def test_close_sends_fin_and_peer_sees_close(self):
        net, client, server = self._connected_pair()
        closed = []
        server.on_close = lambda: closed.append(True)
        client.close()
        net.run()
        assert closed == [True]
        assert client.state == SimTcpConnection.CLOSED
        assert server.state == SimTcpConnection.CLOSED

    def test_abort_sends_rst(self):
        net, client, server = self._connected_pair()
        errors = []
        server.on_error = errors.append
        client.abort()
        net.run()
        assert len(errors) == 1

    def test_send_after_close_rejected(self):
        net, client, _server = self._connected_pair()
        client.close()
        with pytest.raises(SocketError):
            client.send(b"x")

    def test_connection_unregistered_after_close(self):
        net, client, _server = self._connected_pair()
        conn_id = client.conn_id
        client.close()
        assert client.host.connection(conn_id) is None


class _CountingDict(dict):
    """A reassembly map that counts how many segments were parked in it."""

    parked = 0

    def __setitem__(self, key, value):
        self.parked += 1
        super().__setitem__(key, value)


class TestTcpReassembly:
    def _connected_pair(self):
        net, a, b = make_pair()
        server_conns = []
        b.listen_tcp(443, server_conns.append)
        client_conns = []
        SimTcpConnection.connect(a, b.ip, 443, client_conns.append)
        net.run()
        server = server_conns[0]
        server._reassembly = _CountingDict()
        return net, client_conns[0], server

    @staticmethod
    def _delays(monkeypatch, delays):
        from repro.netsim.latency import LatencyModel

        queue = list(delays)
        monkeypatch.setattr(
            LatencyModel, "sample_one_way_ms", staticmethod(lambda path, rng: queue.pop(0))
        )

    @pytest.mark.parametrize(
        "delays, parked",
        [
            ((30.0, 10.0, 20.0), 3),  # arrives 1, 2, 0
            ((30.0, 20.0, 10.0), 3),  # arrives 2, 1, 0
            ((10.0, 30.0, 20.0), 2),  # arrives 0, 2, 1: the first goes straight through
            ((20.0, 10.0, 30.0), 2),  # arrives 1, 0, 2: the last finds the gap closed
        ],
    )
    def test_reordered_flight_reaches_the_application_once_and_in_order(
        self, monkeypatch, delays, parked
    ):
        net, client, server = self._connected_pair()
        chunks = []
        server.on_data = chunks.append
        payload = bytes(range(256)) * 16 + b"tail"  # 3 segments: MSS, MSS, rest
        assert 2 * MSS < len(payload) <= 3 * MSS
        self._delays(monkeypatch, delays)
        client.send(payload)
        net.run()
        assert chunks == [payload[:MSS], payload[MSS : 2 * MSS], payload[2 * MSS :]]
        assert server.bytes_received == len(payload)
        assert not server._reassembly
        # Only segments that arrive ahead of a gap, or behind parked ones,
        # go through the reassembly map.
        assert server._reassembly.parked == parked

        # With the gap closed, later in-order segments bypass the map again.
        self._delays(monkeypatch, (10.0, 10.0))
        client.send(b"after")
        client.send(b"again")
        net.run()
        assert chunks[3:] == [b"after", b"again"]
        assert server._reassembly.parked == parked

    def test_close_from_on_data_stops_the_drain(self, monkeypatch):
        net, client, server = self._connected_pair()
        chunks = []

        def on_data(data):
            chunks.append(data)
            server.close()

        server.on_data = on_data
        self._delays(monkeypatch, (30.0, 10.0, 20.0, 1.0))  # + the server's FIN
        client.send(b"x" * (3 * MSS))
        net.run()
        assert chunks == [b"x" * MSS]
        assert not server._reassembly  # teardown cleared what was parked


class TestHandshakeTimers:
    """Which timers a connection owns, and when each is cancelled."""

    @staticmethod
    def _lose(monkeypatch, lost_packets):
        """Lose the packets whose 0-based send index is in ``lost_packets``."""
        from repro.netsim.latency import LatencyModel

        sent = iter(range(10**6))
        monkeypatch.setattr(
            LatencyModel, "sample_loss", staticmethod(lambda path, rng: next(sent) in lost_packets)
        )

    def test_established_connection_leaves_only_cancelled_timers(self):
        net, a, b = make_pair()
        server_conns = []
        b.listen_tcp(443, server_conns.append)
        client = SimTcpConnection.connect(a, b.ip, 443, lambda conn: None)
        armed = [client._connect_timer, client._handshake_timer]
        net.loop.run(until=1.0)  # SYN in flight, nothing delivered yet
        assert all(t is not None and not t.cancelled for t in armed)
        net.run()
        armed.append(server_conns[0]._handshake_timer)
        assert client.state == server_conns[0].state == SimTcpConnection.ESTABLISHED
        assert client._connect_timer is None and client._handshake_timer is None
        assert server_conns[0]._handshake_timer is None
        assert all(t.cancelled and not t.fired for t in armed[:2])
        # Three packets, three deliveries; no timer was dispatched.
        assert net.loop.events_processed == 3
        assert net.loop.pending == 0
        assert net.now < 100.0  # the clock did not run on to a dead 1 s timer

    def test_refused_and_closed_connections_cancel_their_timers(self):
        net, a, b = make_pair()
        errors = []
        refused = SimTcpConnection.connect(a, b.ip, 443, lambda conn: None, on_error=errors.append)
        timers = [refused._connect_timer, refused._handshake_timer]
        net.run()
        assert isinstance(errors[0], ConnectionRefused)
        assert all(t.cancelled and not t.fired for t in timers)
        assert net.loop.events_processed == 2  # SYN and RST delivered

    def test_lost_syn_is_retransmitted_after_the_rto(self, monkeypatch):
        net, a, b = make_pair()
        b.listen_tcp(443, lambda conn: None)
        self._lose(monkeypatch, {0})
        established = []
        client = SimTcpConnection.connect(a, b.ip, 443, lambda conn: established.append(net.now))
        first_timer = client._handshake_timer
        net.run()
        rtt = net.path_between(a, b).base_rtt_ms
        assert established == [pytest.approx(SYN_RTO_MS + rtt)]
        assert first_timer.fired and not first_timer.cancelled
        assert client.srtt_ms == pytest.approx(rtt)  # timed from the retransmission

    def test_lost_syn_ack_is_recovered_by_either_side(self, monkeypatch):
        net, a, b = make_pair()
        server_conns = []
        b.listen_tcp(443, server_conns.append)
        self._lose(monkeypatch, {1})  # the first SYN-ACK
        established = []
        SimTcpConnection.connect(a, b.ip, 443, lambda conn: established.append(net.now))
        net.run()
        assert len(established) == 1 and established[0] >= SYN_RTO_MS
        assert server_conns[0].state == SimTcpConnection.ESTABLISHED
        assert net.loop.pending == 0

    def test_fourth_loss_ends_in_connect_timeout(self, monkeypatch):
        net, a, b = make_pair()
        b.listen_tcp(443, lambda conn: None)
        self._lose(monkeypatch, {0, 1, 2, 3})
        errors = []
        SimTcpConnection.connect(
            a, b.ip, 443, lambda conn: None,
            on_error=lambda exc: errors.append((net.now, exc)), timeout_ms=60_000.0,
        )
        net.run()
        assert len(errors) == 1
        failed_at, exc = errors[0]
        assert isinstance(exc, ConnectTimeout) and "4 attempts" in str(exc)
        # 1 s + 2 s + 4 s + 8 s of exponential backoff.
        assert failed_at == pytest.approx(15 * SYN_RTO_MS)
        assert net.loop.pending == 0

    def test_lost_data_segment_is_retransmitted_after_the_rto(self, monkeypatch):
        net, a, b = make_pair()
        server_conns = []
        b.listen_tcp(443, server_conns.append)
        client_conns = []
        SimTcpConnection.connect(a, b.ip, 443, client_conns.append)
        net.run()
        received = []
        server_conns[0].on_data = lambda data: received.append((net.now, data))
        started = net.now
        self._lose(monkeypatch, {0})
        client_conns[0].send(b"hello")
        net.run()
        assert [data for _, data in received] == [b"hello"]
        assert received[0][0] - started >= 250.0  # one data RTO later
