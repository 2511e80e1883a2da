"""Tests for the simulated TLS layer: records, sessions, handshakes."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.catalog.resolvers import CATALOG
from repro.errors import TlsError, TlsHandshakeError
from repro.netsim.sockets import SimTcpConnection
from repro.tlssim.record import (
    CONTENT_APPLICATION_DATA,
    CONTENT_HANDSHAKE,
    MAX_RECORD_BODY,
    RecordStream,
    wrap_record,
)
from repro.tlssim.session import SessionCache, SessionTicket
from repro.tlssim.handshake import (
    CLIENT_HELLO,
    NEW_SESSION_TICKET,
    SERVER_HELLO,
    SIZE_CLIENT_HELLO,
    SIZE_SERVER_HELLO,
    SIZE_TICKET,
    ClientHello,
    NewSessionTicket,
    ServerHello,
    TlsClientConfig,
    TlsClientConnection,
    TlsServerConfig,
    TlsServerConnection,
    _decode_client_hello,
    _decode_finished,
    _decode_handshakes,
    _decode_new_session_ticket,
    _decode_server_hello,
    _encode_client_hello,
    _encode_new_session_ticket,
    _encode_server_hello,
)
from tests.conftest import add_host, make_quiet_network


class TestRecordFraming:
    def test_round_trip_single_record(self):
        stream = RecordStream()
        records = stream.feed(wrap_record(CONTENT_HANDSHAKE, b"hello"))
        assert records == [(CONTENT_HANDSHAKE, b"hello")]

    def test_incremental_feed(self):
        wire = wrap_record(CONTENT_APPLICATION_DATA, b"abcdef")
        stream = RecordStream()
        assert stream.feed(wire[:3]) == []
        assert stream.feed(wire[3:7]) == []
        assert stream.feed(wire[7:]) == [(CONTENT_APPLICATION_DATA, b"abcdef")]

    def test_multiple_records_in_one_feed(self):
        wire = wrap_record(22, b"a") + wrap_record(23, b"bb")
        assert RecordStream().feed(wire) == [(22, b"a"), (23, b"bb")]

    def test_large_body_split_across_records(self):
        body = b"x" * (MAX_RECORD_BODY + 100)
        records = RecordStream().feed(wrap_record(23, body))
        assert len(records) == 2
        assert b"".join(payload for _t, payload in records) == body

    def test_empty_body(self):
        assert RecordStream().feed(wrap_record(23, b"")) == [(23, b"")]

    def test_bad_version_rejected(self):
        stream = RecordStream()
        with pytest.raises(TlsError):
            stream.feed(bytes([22, 0x02, 0x00, 0x00, 0x01, 0x00]))

    @given(bodies=st.lists(st.binary(min_size=0, max_size=200), min_size=1, max_size=10))
    def test_property_concatenated_records_round_trip(self, bodies):
        wire = b"".join(wrap_record(23, body) for body in bodies)
        records = RecordStream().feed(wire)
        assert [payload for _t, payload in records] == list(bodies)

    @given(
        records=st.lists(
            st.tuples(st.sampled_from([21, 22, 23]), st.binary(min_size=0, max_size=300)),
            min_size=1,
            max_size=8,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=2600), max_size=12),
    )
    def test_property_any_split_yields_the_records_of_one_whole_feed(self, records, cuts):
        wire = b"".join(wrap_record(kind, body) for kind, body in records)
        whole = RecordStream().feed(wire)
        assert whole == records
        points = sorted({min(cut, len(wire)) for cut in cuts})
        stream, pieces = RecordStream(), []
        for start, end in zip([0] + points, points + [len(wire)]):
            pieces.extend(stream.feed(wire[start:end]))
        assert pieces == whole
        assert stream.buffered == 0
        assert all(type(body) is bytes for _kind, body in pieces)

    def test_incomplete_tail_is_buffered_not_the_records_before_it(self):
        wire = wrap_record(22, b"first") + wrap_record(23, b"second")
        stream = RecordStream()
        assert stream.feed(wire[:-2]) == [(22, b"first")]
        assert stream.buffered == len(wrap_record(23, b"second")) - 2
        assert stream.feed(wire[-2:]) == [(23, b"second")]
        assert stream.buffered == 0

    @pytest.mark.parametrize(
        "bad, message",
        [
            (bytes([22, 0x02, 0x00, 0x00, 0x01, 0x00]), "version"),
            (bytes([23, 0x03, 0x03]) + (MAX_RECORD_BODY + 1).to_bytes(2, "big"), "exceeds maximum"),
        ],
    )
    @pytest.mark.parametrize("split", [False, True])
    def test_bad_record_after_good_ones_raises_and_keeps_raising(self, bad, message, split):
        good = wrap_record(22, b"ok")
        stream = RecordStream()
        if split:
            assert stream.feed(good + bad[:2]) == [(22, b"ok")]
            with pytest.raises(TlsError, match=message):
                stream.feed(bad[2:])
        else:
            with pytest.raises(TlsError, match=message):
                stream.feed(good + bad)
        # What was consumed stays consumed; the bad header stays at the front.
        assert stream.buffered == len(bad)
        with pytest.raises(TlsError, match=message):
            stream.feed(wrap_record(23, b"later"))


class TestSessionCache:
    def test_store_and_lookup(self):
        cache = SessionCache()
        ticket = SessionTicket.issue("dns.example", "1.3", True, now_ms=0.0)
        cache.store(ticket)
        assert cache.lookup("dns.example", now_ms=1000.0) is ticket
        assert cache.hits == 1

    def test_miss_counts(self):
        cache = SessionCache()
        assert cache.lookup("nobody", now_ms=0.0) is None
        assert cache.misses == 1

    def test_expired_ticket_evicted(self):
        cache = SessionCache()
        ticket = SessionTicket.issue("dns.example", "1.3", True, now_ms=0.0, lifetime_ms=100.0)
        cache.store(ticket)
        assert cache.lookup("dns.example", now_ms=200.0) is None
        assert len(cache) == 0

    def test_newer_ticket_wins(self):
        cache = SessionCache()
        old = SessionTicket.issue("dns.example", "1.3", False, now_ms=0.0)
        new = SessionTicket.issue("dns.example", "1.3", True, now_ms=10.0)
        cache.store(old)
        cache.store(new)
        assert cache.lookup("dns.example", now_ms=20.0) is new

    def test_invalidate(self):
        cache = SessionCache()
        cache.store(SessionTicket.issue("dns.example", "1.3", True, now_ms=0.0))
        cache.invalidate("dns.example")
        assert cache.lookup("dns.example", now_ms=1.0) is None


def run_handshake(
    client_versions=("1.3", "1.2"),
    server_versions=("1.3", "1.2"),
    client_alpn=("h2", "http/1.1"),
    server_alpn=("h2", "http/1.1"),
    cache=None,
    early_data=True,
    rounds=1,
    server_name="dns.example",
    ticket_lifetime_ms=None,
    before_round=None,
):
    """Drive `rounds` sequential connections; return per-round details.

    ``before_round(net, round_index)`` runs ahead of each connection (to
    let virtual time pass or doctor the session cache).

    Each detail carries both endpoints (``tls``, ``server``) and
    ``flights``: ``(side, on-wire record length)`` of every handshake
    record in the order it was sent.
    """
    net = make_quiet_network()
    # A long path (Chicago <-> Frankfurt, ~99 ms RTT) so the fixed crypto
    # processing delays are negligible against round-trip counts.
    a = add_host(net, "client", "10.0.0.1", lat=41.88, lon=-87.63)
    b = add_host(net, "server", "10.0.0.2", lat=50.11, lon=8.68, continent="EU")
    rtt = net.path_between(a, b).base_rtt_ms
    server_config = TlsServerConfig(versions=server_versions, alpn_preference=server_alpn)
    if ticket_lifetime_ms is not None:
        server_config = dataclasses.replace(
            server_config, ticket_lifetime_ms=ticket_lifetime_ms
        )
    results = []

    def tap(tcp_conn, side, detail):
        send = tcp_conn.send

        def logged_send(data):
            # One send carries one flight as one record.
            ((content_type, _body),) = RecordStream().feed(data)
            if content_type == CONTENT_HANDSHAKE:
                detail["flights"].append((side, len(data)))
            send(data)

        tcp_conn.send = logged_send

    def acceptor(tcp_conn):
        tap(tcp_conn, "server", results[-1])
        server = TlsServerConnection(tcp_conn, server_config)
        server.on_application_data = lambda data: server.send_application(b"echo:" + data)
        results[-1]["server"] = server

    b.listen_tcp(443, acceptor)
    for round_index in range(rounds):
        if before_round is not None:
            before_round(net, round_index)
        detail = {"flights": []}
        results.append(detail)
        started = net.now

        def on_tcp(conn, detail=detail, started=started):
            tap(conn, "client", detail)
            tls = TlsClientConnection(
                conn,
                server_name,
                TlsClientConfig(
                    versions=client_versions,
                    alpn=client_alpn,
                    session_cache=cache,
                    enable_early_data=early_data,
                ),
                on_established=lambda c: detail.setdefault("established_at", net.now),
                on_error=lambda exc: detail.setdefault("error", exc),
            )
            tls.on_application_data = lambda data: detail.setdefault(
                "response", (net.now, data)
            )
            tls.send_application(b"ping")
            detail["tls"] = tls

        SimTcpConnection.connect(
            a, b.ip, 443, on_tcp, on_error=lambda exc: detail.setdefault("error", exc)
        )
        net.run()
        detail["started"] = started
        detail["rtt"] = rtt
        tls = detail.get("tls")
        if tls is not None:
            tls.close()
            net.run()
    return results


class TestHandshakes:
    def test_tls13_full_is_three_rtt_to_response(self):
        (detail,) = run_handshake(client_versions=("1.3",))
        elapsed = detail["response"][0] - detail["started"]
        assert elapsed / detail["rtt"] == pytest.approx(3.0, rel=0.05)
        assert detail["tls"].negotiated_version == "1.3"
        assert detail["response"][1] == b"echo:ping"

    def test_tls12_full_is_four_rtt_to_response(self):
        (detail,) = run_handshake(client_versions=("1.2",), server_versions=("1.2",))
        elapsed = detail["response"][0] - detail["started"]
        assert elapsed / detail["rtt"] == pytest.approx(4.0, rel=0.05)
        assert detail["tls"].negotiated_version == "1.2"

    def test_version_negotiation_prefers_server_order(self):
        (detail,) = run_handshake(client_versions=("1.2", "1.3"), server_versions=("1.3", "1.2"))
        assert detail["tls"].negotiated_version == "1.3"

    def test_version_mismatch_alerts(self):
        (detail,) = run_handshake(client_versions=("1.3",), server_versions=("1.2",))
        assert isinstance(detail["error"], TlsHandshakeError)
        assert "response" not in detail

    def test_alpn_negotiated(self):
        (detail,) = run_handshake(client_alpn=("http/1.1",), server_alpn=("h2", "http/1.1"))
        assert detail["tls"].negotiated_alpn == "http/1.1"

    def test_alpn_mismatch_alerts(self):
        (detail,) = run_handshake(client_alpn=("spdy",), server_alpn=("h2",))
        assert isinstance(detail["error"], TlsHandshakeError)

    def test_resumption_uses_ticket(self):
        cache = SessionCache()
        first, second = run_handshake(cache=cache, early_data=False, rounds=2)
        assert not first["tls"].resumed
        assert second["tls"].resumed

    def test_zero_rtt_resumption_saves_a_round_trip(self):
        cache = SessionCache()
        first, second = run_handshake(cache=cache, early_data=True, rounds=2)
        first_elapsed = first["response"][0] - first["started"]
        second_elapsed = second["response"][0] - second["started"]
        assert first_elapsed / first["rtt"] == pytest.approx(3.0, rel=0.05)
        assert second_elapsed / second["rtt"] == pytest.approx(2.0, rel=0.05)
        assert second["tls"].used_early_data

    def test_resumed_handshake_sends_fewer_bytes(self):
        cache = SessionCache()
        first, second = run_handshake(cache=cache, early_data=False, rounds=2)
        # No certificate in the resumed server flight.
        assert second["tls"].handshake_bytes < first["tls"].handshake_bytes

    def test_tls12_resumption_is_one_rtt_shorter(self):
        cache = SessionCache()
        first, second = run_handshake(
            client_versions=("1.2",), server_versions=("1.2",), cache=cache, rounds=2
        )
        first_elapsed = first["response"][0] - first["started"]
        second_elapsed = second["response"][0] - second["started"]
        assert first_elapsed / first["rtt"] == pytest.approx(4.0, rel=0.05)
        assert second_elapsed / second["rtt"] == pytest.approx(3.0, rel=0.05)


class TestTicketRegistry:
    """The server host's registry of issued tickets (``Host.tls_tickets``)."""

    def test_registry_holds_one_lifetime_of_tickets(self):
        # ~0.4 s per connection against a 1 s lifetime: every ticket is
        # presented while live, and each issue drops the expired ones.
        details = run_handshake(
            cache=SessionCache(), early_data=False, rounds=12, ticket_lifetime_ms=1000.0
        )
        assert [d["tls"].resumed for d in details] == [False] + [True] * 11
        registry = details[-1]["server"].tcp.host.tls_tickets
        assert 1 <= len(registry) <= 4
        newest = max(registry.values())
        assert all(expiry > newest - 1000.0 for expiry in registry.values())

    def test_ticket_past_its_server_side_expiry_is_not_honoured(self):
        cache = SessionCache()

        def outlive_the_ticket(net, round_index):
            if round_index == 1:
                # The client believes the ticket lives on; the server's
                # copy expires while three seconds pass.
                (ticket,) = cache._tickets.values()
                cache.store(dataclasses.replace(ticket, lifetime_ms=1e9))
                net.loop.call_later(3000.0, lambda: None)
                net.run()

        first, second = run_handshake(
            cache=cache,
            early_data=False,
            rounds=2,
            ticket_lifetime_ms=1000.0,
            before_round=outlive_the_ticket,
        )
        assert second["tls"].config.session_cache is cache
        assert not second["tls"].resumed
        assert not second["server"].resumed


class TestEarlyDataRejection:
    def test_rejected_early_data_is_replayed(self):
        net = make_quiet_network()
        a = add_host(net, "client", "10.0.0.1", lat=41.88, lon=-87.63)
        b = add_host(net, "server", "10.0.0.2", lat=39.96, lon=-83.00)
        cache = SessionCache()
        server_config = TlsServerConfig(allow_early_data=True)
        received = []

        def acceptor(tcp_conn):
            server = TlsServerConnection(tcp_conn, server_config)

            def on_data(data):
                received.append(data)
                server.send_application(b"echo:" + data)

            server.on_application_data = on_data

        b.listen_tcp(443, acceptor)

        def one_round():
            responses = []

            def on_tcp(conn):
                tls = TlsClientConnection(
                    conn, "dns.example",
                    TlsClientConfig(session_cache=cache, enable_early_data=True),
                )
                tls.on_application_data = responses.append
                tls.send_application(b"ping")

            SimTcpConnection.connect(a, b.ip, 443, on_tcp)
            net.run()
            return responses

        assert one_round() == [b"echo:ping"]  # full handshake
        # Server stops accepting early data (e.g. key rotation).
        server_config.allow_early_data = False
        assert one_round() == [b"echo:ping"]  # replayed after rejection
        # Exactly one application delivery per round: no duplicates.
        assert received == [b"ping", b"ping"]


#: Every handshake flavour: (client+server versions, second round resumes).
HANDSHAKE_MODES = {
    "1.3-full": (("1.3",), False),
    "1.3-resumed": (("1.3",), True),
    "1.2-full": (("1.2",), False),
    "1.2-resumed": (("1.2",), True),
}


def run_mode(mode, **kwargs):
    """The detail of one handshake of ``mode`` (the second round if resumed)."""
    versions, resumed = HANDSHAKE_MODES[mode]
    details = run_handshake(
        client_versions=versions,
        server_versions=versions,
        cache=SessionCache() if resumed else None,
        early_data=False,
        rounds=2 if resumed else 1,
        **kwargs,
    )
    assert details[-1]["tls"].resumed == resumed
    return details[-1]


class TestFlightSizes:
    """Record lengths are the codec's contract with the simulator: they set
    segmentation and therefore timing.  The bodies are free to change."""

    # On-wire record = 5 (record header) + per message 4 (handshake header)
    # + its padded size: CH 280, SH 120, EE 40, Cert 2800, Fin 52, SHD 8,
    # CKE 140, CCS 6, NST 208.
    @pytest.mark.parametrize(
        "mode, expected",
        [
            ("1.3-full", [("client", 289), ("server", 3033), ("client", 61), ("server", 217)]),
            ("1.3-resumed", [("client", 289), ("server", 229), ("client", 61), ("server", 217)]),
            (
                "1.2-full",
                [("client", 289), ("server", 2945), ("client", 215), ("server", 71), ("server", 217)],
            ),
            ("1.2-resumed", [("client", 289), ("server", 195), ("client", 71), ("server", 217)]),
        ],
    )
    def test_every_flight_has_its_pinned_length(self, mode, expected):
        longest = max((entry.hostname for entry in CATALOG), key=len)
        assert run_mode(mode, server_name=longest)["flights"] == expected

    @pytest.mark.parametrize("mode", sorted(HANDSHAKE_MODES))
    def test_handshake_bytes_received_equal_bytes_the_peer_sent(self, mode):
        detail = run_mode(mode)
        # 5-byte record headers are not handshake bytes.
        sent = {
            side: sum(size - 5 for who, size in detail["flights"] if who == side)
            for side in ("client", "server")
        }
        client, server = detail["tls"], detail["server"]
        assert client.handshake_bytes - sent["client"] == sent["server"]
        assert server.handshake_bytes - sent["server"] == sent["client"]


def field_text(max_size=24):
    """Strings a handshake field can carry: any text without NUL."""
    return st.text(
        st.characters(blacklist_characters="\0", blacklist_categories=("Cs",)),
        max_size=max_size,
    )


_field_lists = st.lists(field_text(), max_size=4).map(tuple)


@st.composite
def client_hellos(draw):
    ticket = draw(st.none() | st.tuples(st.integers(0, 2**64 - 1), field_text()))
    return ClientHello(
        versions=draw(_field_lists),
        sni=draw(field_text(max_size=300)),  # long names outgrow the padding
        alpn=draw(_field_lists),
        ticket_id=ticket[0] if ticket else None,
        ticket_version=ticket[1] if ticket else None,
        early_data=draw(st.booleans()),
        early_replay=draw(st.booleans()),
    )


class TestHandshakeCodec:
    """Field round trips and hostile input for the packed handshake bodies."""

    @staticmethod
    def only_message(wire, msg_type, min_size):
        ((decoded_type, body),) = _decode_handshakes(wire)
        assert decoded_type == msg_type
        assert len(body) >= min_size
        return body

    @given(hello=client_hellos())
    def test_property_client_hello_round_trips(self, hello):
        body = self.only_message(_encode_client_hello(hello), CLIENT_HELLO, SIZE_CLIENT_HELLO)
        assert _decode_client_hello(body) == hello

    @given(
        hello=st.builds(
            ServerHello,
            version=field_text(),
            alpn=st.none() | field_text(),
            resumed=st.booleans(),
            early_data_accepted=st.booleans(),
        )
    )
    def test_property_server_hello_round_trips(self, hello):
        body = self.only_message(_encode_server_hello(hello), SERVER_HELLO, SIZE_SERVER_HELLO)
        assert len(body) == SIZE_SERVER_HELLO
        assert _decode_server_hello(body) == hello

    @given(
        ticket=st.builds(
            NewSessionTicket,
            ticket_id=st.integers(0, 2**64 - 1),
            version=field_text(),
            early_data=st.booleans(),
            lifetime_ms=st.floats(allow_nan=False),
        )
    )
    def test_property_new_session_ticket_round_trips(self, ticket):
        body = self.only_message(
            _encode_new_session_ticket(ticket), NEW_SESSION_TICKET, SIZE_TICKET
        )
        assert len(body) == SIZE_TICKET
        assert _decode_new_session_ticket(body) == ticket

    def test_finished_carries_the_final_flag(self):
        assert _decode_finished(b"\x01" + bytes(51)) is True
        assert _decode_finished(bytes(52)) is False

    @given(body=st.binary(max_size=400))
    def test_property_decoders_raise_only_handshake_errors(self, body):
        for decode in (
            _decode_handshakes,
            _decode_client_hello,
            _decode_server_hello,
            _decode_new_session_ticket,
            _decode_finished,
        ):
            try:
                decode(body)
            except TlsHandshakeError:
                pass


_MESSAGE_TYPES = st.sampled_from([0, 1, 2, 4, 8, 11, 14, 16, 20, 99, 254])
_record_bodies = st.binary(max_size=300) | st.builds(
    # Well-framed messages, so the fuzz reaches the field decoders.
    lambda msg_type, payload: bytes([msg_type]) + len(payload).to_bytes(3, "big") + payload,
    _MESSAGE_TYPES,
    st.binary(max_size=320),
)


@settings(max_examples=60, deadline=None)
@given(bodies=st.lists(_record_bodies, min_size=1, max_size=4))
@example(bodies=[b"not json"])
@example(bodies=[b"\x01\x00\x00\x02[]"])
@example(
    bodies=[
        _encode_client_hello(ClientHello(("1.3",), "dns.example", ("h2",))),
        b"\x14\x00\x00\x00",
    ]
)
def test_property_server_survives_arbitrary_handshake_records(bodies):
    """Whatever a peer puts in handshake records, the server terminates and
    reports nothing but TlsHandshakeError — the event loop never sees an
    exception."""
    net = make_quiet_network()
    a = add_host(net, "client", "10.0.0.1")
    b = add_host(net, "server", "10.0.0.2", lat=39.96, lon=-83.00)
    errors = []
    b.listen_tcp(443, lambda conn: TlsServerConnection(conn, on_error=errors.append))

    def on_tcp(conn):
        for body in bodies:
            conn.send(wrap_record(CONTENT_HANDSHAKE, body))

    SimTcpConnection.connect(a, b.ip, 443, on_tcp)
    net.run()
    assert all(isinstance(exc, TlsHandshakeError) for exc in errors)
