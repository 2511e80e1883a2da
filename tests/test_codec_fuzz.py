"""Byte fuzzing of the decoders that read the simulated wire.

The QUIC packet codec, the HTTP/3 stream codec and the HTTP/2 header block
carry JSON; the HTTP/1.1 parsers read text heads, the TLS record layer and
the length-prefixed DNS stream carry raw frames.  Whatever bytes arrive,
each decoder must terminate, raise nothing but a ``repro.errors`` type
(``ReproError`` and its subclasses, the codecs' own ``QuicPacketError`` and
``H3CodecError`` among them), and give the same verdict when handed the
same bytes again: the memo tables a decoder keeps must not change what it
says.  The DoH request decoder is fuzzed behind the HTTP/1.1 parser, the
way a DoH frontend reaches it, and the QUIC packet codec once more behind
the listener that serves whole datagrams, which must also hold no more
than ``MAX_EARLY_PACKETS`` of them for connections it has not met, and
behind both ends of a connection fed forged stream frames: a server
connection reassembles at most ``MAX_OPEN_STREAMS`` streams at once, a
client only the streams it opened.

Random bytes almost never nest deeply, so the payloads mix arbitrary bytes
with JSON texts and with runs of ``[`` long enough to exhaust the
interpreter's recursion limit inside ``json.loads``.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import ReproError
from repro.errors import HttpProtocolError
from repro.httpsim import h2, h3
from repro.httpsim.doh import DohCodecError, decode_doh_request
from repro.httpsim.h1 import H1RequestParser, H1ResponseParser, HttpRequest
from repro.netsim.packet import Datagram
from repro.quicsim.connection import (
    MAX_EARLY_PACKETS,
    MAX_OPEN_STREAMS,
    QuicClientConnection,
    QuicServerListener,
)
from repro.quicsim.packets import (
    KIND_INITIAL,
    KIND_ONE_RTT,
    QuicPacketError,
    decode_packet,
    encode_packet,
    stream_frame,
    stream_frame_data,
)
from repro.tlssim.record import RecordStream
from repro.transports import LengthPrefixedStream

from tests.conftest import add_host, make_quiet_network

#: Deep enough to overflow any recursion limit ``json.loads`` runs under.
DEEP = b"[" * 100_000

_QUIC_HEADER = struct.Struct("!BQI")
_H3_FRAME_HEADER = struct.Struct("!BI")


def _quic(payload: bytes) -> None:
    packet = decode_packet(_QUIC_HEADER.pack(KIND_ONE_RTT, 7, 0) + payload)
    for frame in packet.frames:
        stream_frame_data(frame)


def _h3_headers(payload: bytes) -> bytes:
    return _H3_FRAME_HEADER.pack(h3.FRAME_HEADERS, len(payload)) + payload


def _h2_headers(payload: bytes) -> bytes:
    flags = h2.FLAG_END_HEADERS | h2.FLAG_END_STREAM
    return len(payload).to_bytes(3, "big") + struct.pack("!BBI", h2.FRAME_HEADERS, flags, 1) + payload


def _h2_client(wire: bytes) -> None:
    session = h2.H2ClientSession(lambda _data: None, "resolver.example")
    session.request(HttpRequest(method="GET", path="/dns-query"), lambda _response: None)
    session.feed(wire)


def _h2_server(wire: bytes) -> None:
    session = h2.H2ServerSession(lambda _data: None, lambda _request, _stream_id: None)
    session.feed(h2.PREFACE + wire)


def _length_prefixed(wire: bytes) -> None:
    stream = LengthPrefixedStream()
    stream.feed(wire)
    stream.finish()


def _h1_head(payload: bytes) -> bytes:
    """``payload`` as the request target and a header value of a full head."""
    return b"GET /dns-query?dns=" + payload + b" HTTP/1.1\r\nX: " + payload + b"\r\n\r\n"


def _h1_doh(wire: bytes) -> None:
    for request in H1RequestParser().feed(wire):
        decode_doh_request(request)


#: name -> (decoder of one input, the framing that puts a payload in front of it).
DECODERS = {
    "quic.decode_packet": (_quic, lambda payload: payload),
    "h3.decode_h3_request": (h3.decode_h3_request, _h3_headers),
    "h3.decode_h3_response": (h3.decode_h3_response, _h3_headers),
    "h2.H2ClientSession.feed": (_h2_client, _h2_headers),
    "h2.H2ServerSession.feed": (_h2_server, _h2_headers),
    "h1.H1RequestParser.feed": (lambda wire: H1RequestParser().feed(wire), _h1_head),
    "h1.H1ResponseParser.feed": (
        lambda wire: H1ResponseParser().feed(wire),
        lambda payload: b"HTTP/1.1 200 " + payload + b"\r\nContent-Length: 0\r\n\r\n",
    ),
    "doh.decode_doh_request": (_h1_doh, _h1_head),
    "tlssim.RecordStream.feed": (
        lambda wire: RecordStream().feed(wire),
        lambda payload: struct.pack("!BHH", 23, 0x0303, len(payload) & 0xFFFF) + payload,
    ),
    "LengthPrefixedStream.feed": (_length_prefixed, lambda payload: payload),
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

payloads = st.one_of(
    st.binary(max_size=256),
    _json_values.map(lambda value: json.dumps(value).encode("utf-8")),
    st.integers(min_value=1, max_value=5_000).map(lambda depth: b"[" * depth),
    st.integers(min_value=1, max_value=5_000).map(lambda depth: b'{"a":' * depth),
)


def _verdict(decode, wire: bytes):
    """The ``repro.errors`` type ``decode`` raised on ``wire``, or None; any
    other exception propagates and fails the test."""
    try:
        decode(wire)
    except ReproError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("name", sorted(DECODERS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payload=payloads, framed=st.booleans())
@example(payload=DEEP, framed=True)
@example(payload=b"[1]", framed=True)
@example(payload=b'[{"type":"stream","data":1}]', framed=True)
def test_any_bytes_end_in_a_result_or_the_same_named_error(name, payload, framed):
    decode, frame = DECODERS[name]
    wire = frame(payload) if framed else payload
    first = _verdict(decode, wire)
    assert _verdict(decode, wire) is first


@pytest.mark.parametrize(
    "frames",
    [b"[1]", b"[null]", b'["stream"]', b"[[]]", b'[{"type":"stream"}, 2]'],
    ids=repr,
)
def test_a_frame_that_is_not_an_object_is_a_packet_error(frames):
    with pytest.raises(QuicPacketError):
        decode_packet(_QUIC_HEADER.pack(KIND_ONE_RTT, 7, 0) + frames)


@pytest.mark.parametrize(
    "frame",
    [1, None, "data", [], {"data": 1}, {"data": None}, {"data": ["00"]}, {}, {"data": "0g"}],
    ids=repr,
)
def test_stream_frame_data_names_every_bad_frame(frame):
    with pytest.raises(QuicPacketError):
        stream_frame_data(frame)


@pytest.mark.parametrize(
    "parser, wire",
    [
        (H1RequestParser, b"GET / HTTP/1.1\r\n\xff: x\r\n\r\n"),
        (H1RequestParser, b"GET / HTTP/1.1\r\nX: \xe9\r\n\r\n"),
        (H1RequestParser, b"G\xe9T / HTTP/1.1\r\n\r\n"),
        (H1RequestParser, b"POST / HTTP/1.1\r\nContent-Length: -3\r\n\r\nabcdef"),
        (H1RequestParser, b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc"),
        (H1RequestParser, b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\nabc"),
        (H1RequestParser, b"POST / HTTP/1.1\r\nContent-Length: 0x3\r\n\r\nabc"),
        (H1ResponseParser, b"HTTP/1.1 200 \xff\r\n\r\n"),
        (H1ResponseParser, b"HTTP/1.1 200 OK\r\nContent-Type: \x80\r\n\r\n"),
        (H1ResponseParser, b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nab"),
        (H1ResponseParser, b"HTTP/1.1 200 OK\r\ncontent-length: 2.0\r\n\r\nab"),
    ],
    ids=lambda value: value.__name__ if isinstance(value, type) else repr(value),
)
def test_a_non_ascii_head_or_a_length_not_all_digits_is_an_http_protocol_error(parser, wire):
    with pytest.raises(HttpProtocolError):
        parser().feed(wire)


@pytest.mark.parametrize("target", ["//[", "http://[::1/dns-query", "//[x]/dns-query"])
def test_an_unparseable_request_target_is_a_400_codec_error(target):
    with pytest.raises(DohCodecError) as raised:
        decode_doh_request(HttpRequest(method="GET", path=target))
    assert raised.value.status_hint == 400


def _echo_server():
    network = make_quiet_network()
    client = add_host(network, "client", "10.0.0.1")
    server = add_host(network, "server", "10.0.0.2")
    listener = QuicServerListener(
        server, 853, lambda conn, stream_id, data: conn.respond_stream(stream_id, data)
    )
    return network, client, listener


def _deliver(listener: QuicServerListener, wire: bytes) -> None:
    listener._on_datagram(Datagram("10.0.0.1", 4433, "10.0.0.2", 853, wire), listener.host)


#: A QUIC header of any kind and a connection id the listener has not met,
#: in front of any payload, or bytes with no header at all.
datagrams = st.one_of(
    st.binary(max_size=64),
    st.builds(
        lambda kind, conn_id, payload: _QUIC_HEADER.pack(kind, conn_id, 0) + payload,
        st.sampled_from((KIND_INITIAL, 2, KIND_ONE_RTT, 0, 255)),
        st.integers(min_value=1, max_value=2**40),
        payloads,
    ),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(datagrams, max_size=120))
@example([_QUIC_HEADER.pack(KIND_ONE_RTT, 2**40 + n, 0) + b"[]" for n in range(200)])
def test_the_quic_listener_takes_any_datagrams_and_holds_at_most_the_bound(wires):
    network, _client, listener = _echo_server()
    for wire in wires:
        _deliver(listener, wire)
    network.run()
    assert listener.early_packets_held <= MAX_EARLY_PACKETS


def test_forged_early_packets_stay_bounded_while_a_real_connection_is_served():
    network, client, listener = _echo_server()
    for n in range(2_000):
        _deliver(listener, _QUIC_HEADER.pack(KIND_ONE_RTT, 2**40 + n, 0) + b"[]")
    assert listener.early_packets_held == MAX_EARLY_PACKETS
    echoed = []
    QuicClientConnection(client, "10.0.0.2", 853, "q.example").open_stream(
        b"ping", echoed.append
    )
    network.run()
    assert echoed == [b"ping"]
    assert listener.early_packets_held == MAX_EARLY_PACKETS


def test_forged_initials_without_a_hello_open_no_connection():
    network, client, listener = _echo_server()
    for n in range(1_000):
        frames = [] if n % 2 else [stream_frame(0, 0, b"x", True), {"type": "ack"}]
        _deliver(listener, encode_packet(KIND_INITIAL, 2**40 + n, 0, frames))
    assert listener.connection_count == 0
    echoed = []
    QuicClientConnection(client, "10.0.0.2", 853, "q.example").open_stream(
        b"ping", echoed.append
    )
    network.run()
    assert echoed == [b"ping"]
    assert listener.connection_count == 1


def _served_connection():
    """An echo listener, a client, and the server's side of their one
    connection once it has answered a request."""
    network, client, listener = _echo_server()
    conn = QuicClientConnection(client, "10.0.0.2", 853, "q.example")
    echoed = []
    conn.open_stream(b"ping", echoed.append)
    network.run()
    assert echoed == [b"ping"]
    (server_conn,) = listener._connections.values()
    return network, listener, conn, server_conn


#: Stream frames with any id and offset, a little data, FIN or not.
stream_frames = st.builds(
    stream_frame,
    st.integers(min_value=0, max_value=4 * MAX_OPEN_STREAMS),
    st.integers(min_value=0, max_value=8),
    st.binary(max_size=4),
    st.booleans(),
)
_unfinished_streams = [[stream_frame(4 * n + 1, 1, b"x", False)] for n in range(1_000)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.lists(stream_frames, min_size=1, max_size=4), max_size=100))
@example(_unfinished_streams)
def test_a_quic_server_connection_reassembles_at_most_the_bound(packets):
    network, listener, _conn, server_conn = _served_connection()
    for frames in packets:
        _deliver(listener, encode_packet(KIND_ONE_RTT, server_conn.conn_id, 1, frames))
    network.run()
    assert len(server_conn._assemblers) <= MAX_OPEN_STREAMS


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.lists(stream_frames, min_size=1, max_size=4), max_size=100))
@example(_unfinished_streams)
def test_a_quic_client_reassembles_only_the_streams_it_opened(packets):
    network, _listener, conn, _server_conn = _served_connection()
    for frames in packets:
        conn._on_datagram(Datagram("10.0.0.2", 853, conn.host.ip, conn._socket.port,
                                   encode_packet(KIND_ONE_RTT, conn.conn_id, 1, frames)))
    network.run()
    assert conn._assemblers == {}


def test_a_forged_stream_frame_does_not_answer_a_request_in_flight():
    network, _listener, conn, _server_conn = _served_connection()
    echoed = []
    conn.open_stream(b"pong", echoed.append)
    (stream_id,) = conn._responses
    for other in (stream_id - 4, stream_id + 4, stream_id + 1):
        conn._on_datagram(Datagram("10.0.0.2", 853, conn.host.ip, conn._socket.port,
                                   encode_packet(KIND_ONE_RTT, conn.conn_id, 1,
                                                 [stream_frame(other, 0, b"forged", True)])))
    assert echoed == [] and conn._assemblers == {}
    network.run()
    assert echoed == [b"pong"]
