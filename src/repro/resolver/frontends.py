"""Resolver frontends: Do53 (UDP+TCP), DoT (RFC 7858) and DoH (RFC 8484).

All frontends share one query path: parse the wire query, consult the
site's recursive engine (cache hit or full recursive walk), apply the
deployment's service-time distribution, and hand the parsed query and the
response :class:`Message` back to the transport it arrived on.  The
transport encodes the response once and reads whatever else it needs
(minimum TTL, EDNS payload limit, truncation) off those two messages, so
a query is parsed exactly once on the server.  DoT and DoH run over the
simulated TLS layer; DoH speaks HTTP/2 or HTTP/1.1 according to the
negotiated ALPN.
"""

from __future__ import annotations

import random
import struct
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.dnswire.builder import make_response
from repro.dnswire.edns import (
    EDE_NO_REACHABLE_AUTHORITY,
    EDE_NOT_READY,
    EdnsOptions,
    add_edns,
    attach_ede,
    get_edns,
)
from repro.dnswire.message import Message
from repro.dnswire.types import RCODE_SERVFAIL, TYPE_OPT
from repro.errors import DnsWireError, FramingError
from repro.httpsim.doh import (
    DohCodecError,
    decode_doh_request,
    encode_doh_error,
    encode_doh_response,
)
from repro.httpsim.h1 import H1RequestParser, HttpRequest, HttpResponse, encode_response
from repro.httpsim.h2 import H2ServerSession
from repro.httpsim.odoh_codec import (
    CONTENT_TYPE_ODOH,
    OdohCodecError,
    open_query,
    seal_response,
)
from repro.netsim.packet import Datagram
from repro.netsim.sockets import SimTcpConnection
from repro.tlssim.handshake import TlsServerConfig, TlsServerConnection

if TYPE_CHECKING:  # pragma: no cover
    from repro.resolver.deployment import ResolverDeployment, ResolverSite

DO53_PORT = 53
DOT_PORT = 853
DOH_PORT = 443
DOQ_PORT = 853  # DoQ runs over UDP; DoT's 853 is TCP — no clash
DOH3_PORT = 443  # DoH3 runs over QUIC/UDP; DoH's 443 is TCP — no clash

#: Called with the parsed query and the response to send for it.
RespondFn = Callable[[Message, Message], None]

_RECORD_TTL = attrgetter("ttl")


class _LengthPrefixedStream:
    """Parser for the 2-byte length-prefixed DNS framing of TCP/DoT."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        self._buffer += data
        messages = []
        while len(self._buffer) >= 2:
            (length,) = struct.unpack_from("!H", self._buffer, 0)
            if len(self._buffer) < 2 + length:
                break
            messages.append(bytes(self._buffer[2 : 2 + length]))
            del self._buffer[: 2 + length]
        return messages

    @property
    def pending(self) -> int:
        """Bytes buffered waiting for the rest of a frame."""
        return len(self._buffer)

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary.

        Call when the underlying connection closes; a part-delivered
        frame means the peer truncated mid-stream, which surfaces as a
        named :class:`~repro.errors.FramingError` rather than a timeout.
        """
        if self._buffer:
            raise FramingError(
                f"stream closed mid-frame with {len(self._buffer)} "
                "unconsumed bytes"
            )

    @staticmethod
    def frame(message: bytes) -> bytes:
        return struct.pack("!H", len(message)) + message


#: Public name for the framing parser (probes and tests import this).
LengthPrefixedStream = _LengthPrefixedStream


class _FrontendBase:
    """Shared query-answering path."""

    def __init__(
        self,
        deployment: "ResolverDeployment",
        site: "ResolverSite",
        rng: random.Random,
    ) -> None:
        self.deployment = deployment
        self.site = site
        self.rng = rng
        self.queries_handled = 0
        self.failures_injected = 0

    @property
    def _loop(self):
        assert self.site.host.network is not None
        return self.site.host.network.loop

    def handle_query_wire(self, wire: bytes, respond: RespondFn) -> bool:
        """Parse and answer one DNS query; returns False on unparseable input."""
        try:
            query = Message.from_wire(wire)
        except DnsWireError:
            return False
        self.queries_handled += 1
        question = query.question
        engine = self.site.engine
        assert engine is not None, "deployment not activated"

        def send_response(response: Message) -> None:
            mutator = self.deployment.response_mutator
            if mutator is not None:
                response = mutator(query, response)
            if get_edns(query) is not None and response.opt_record() is None:
                add_edns(response, EdnsOptions())
            delay = self.deployment.processing.sample_ms(self.rng)
            # ODoH targets sit behind a relay: one extra hop each way.
            delay += 2.0 * self.deployment.odoh_relay_extra_ms
            # Transient overload/degradation injected by a fault window.
            delay += self.site.host.impairments.extra_processing_ms
            self._loop.call_later(delay, respond, query, response)

        if question is None:
            send_response(make_response(query, rcode=RCODE_SERVFAIL))
            return True
        if self.deployment.reliability.server_fails(self.rng):
            self.failures_injected += 1
            failed = make_response(query, rcode=RCODE_SERVFAIL)
            attach_ede(failed, EDE_NOT_READY, "temporarily overloaded")
            send_response(failed)
            return True

        def on_result(result) -> None:
            response = make_response(
                query,
                answers=result.records,
                rcode=result.rcode,
                recursion_available=True,
            )
            if result.rcode == RCODE_SERVFAIL:
                # RFC 8914: explain recursive failures to the client.
                attach_ede(response, EDE_NO_REACHABLE_AUTHORITY, "upstream timeout")
            send_response(response)

        engine.resolve_question(question.qname, question.qtype, on_result)
        return True


class Do53Frontend(_FrontendBase):
    """Classic DNS over UDP port 53, plus TCP 53 with length framing.

    UDP responses that exceed the client's advertised payload size (the
    EDNS buffer size, or 512 bytes without EDNS) are truncated: the server
    answers with an empty message carrying the TC bit, and the client is
    expected to retry over TCP (RFC 1035 §4.2.1 / RFC 6891).
    """

    def __init__(self, deployment, site, rng: random.Random) -> None:
        super().__init__(deployment, site, rng)
        host = site.host
        host.bind_udp(DO53_PORT, self._handle_udp)
        host.listen_tcp(DO53_PORT, self._accept_tcp)

    @staticmethod
    def _udp_payload_limit(query: Message) -> int:
        edns = get_edns(query)
        if edns is None:
            return 512
        return max(512, edns.payload_size)

    @staticmethod
    def _truncate(response: Message) -> bytes:
        response.answers = []
        response.authorities = []
        response.additionals = [r for r in response.additionals if r.rdtype == TYPE_OPT]
        response.header.tc = True
        return response.to_wire()

    def _handle_udp(self, dgram: Datagram, host) -> None:
        def respond(query: Message, response: Message) -> None:
            wire = response.to_wire()
            if len(wire) > self._udp_payload_limit(query):
                wire = self._truncate(response)
            reply = Datagram(
                src_ip=dgram.dst_ip,  # reply from the queried (anycast) address
                src_port=dgram.dst_port,
                dst_ip=dgram.src_ip,
                dst_port=dgram.src_port,
                payload=wire,
            )
            assert host.network is not None
            host.network.transmit(host, reply)

        self.handle_query_wire(dgram.payload, respond)

    def _accept_tcp(self, conn: SimTcpConnection) -> None:
        stream = _LengthPrefixedStream()

        def on_data(data: bytes) -> None:
            for wire in stream.feed(data):
                self.handle_query_wire(
                    wire,
                    lambda _query, response: conn.send(
                        _LengthPrefixedStream.frame(response.to_wire())
                    ),
                )

        conn.on_data = on_data


class DoTFrontend(_FrontendBase):
    """DNS over TLS (RFC 7858): TLS on port 853, length-prefixed messages."""

    def __init__(self, deployment, site, tls_config: TlsServerConfig, rng: random.Random) -> None:
        super().__init__(deployment, site, rng)
        # DoT has no ALPN requirement in practice; accept anything offered.
        self.tls_config = TlsServerConfig(
            versions=tls_config.versions,
            alpn_preference=("dot",) + tuple(tls_config.alpn_preference),
            cert_chain_bytes=tls_config.cert_chain_bytes,
            crypto_delay_ms=tls_config.crypto_delay_ms,
        )
        site.host.listen_tcp(DOT_PORT, self._accept)

    def _accept(self, conn: SimTcpConnection) -> None:
        stream = _LengthPrefixedStream()
        tls = TlsServerConnection(conn, self.tls_config)

        def on_app_data(data: bytes) -> None:
            for wire in stream.feed(data):
                self.handle_query_wire(
                    wire,
                    lambda _query, response: tls.send_application(
                        _LengthPrefixedStream.frame(response.to_wire())
                    ),
                )

        tls.on_application_data = on_app_data


class DoHFrontend(_FrontendBase):
    """DNS over HTTPS (RFC 8484): TLS on 443, HTTP/2 or HTTP/1.1 by ALPN."""

    def __init__(self, deployment, site, tls_config: TlsServerConfig, rng: random.Random) -> None:
        super().__init__(deployment, site, rng)
        self.tls_config = tls_config
        site.host.listen_tcp(DOH_PORT, self._accept)

    def _accept(self, conn: SimTcpConnection) -> None:
        state: Dict[str, object] = {}
        tls = TlsServerConnection(conn, self.tls_config)

        def ensure_session() -> None:
            if "session" in state:
                return
            if tls.negotiated_alpn == "h2":
                state["session"] = H2ServerSession(
                    send=tls.send_application, on_request=handle_h2_request
                )
            else:
                state["session"] = H1RequestParser()

        def handle_h2_request(request: HttpRequest, stream_id: int) -> None:
            session = state["session"]
            assert isinstance(session, H2ServerSession)
            self._serve_http(
                request, lambda response: session.respond(stream_id, response)
            )

        def on_app_data(data: bytes) -> None:
            ensure_session()
            session = state["session"]
            if isinstance(session, H2ServerSession):
                session.feed(data)
            else:
                assert isinstance(session, H1RequestParser)
                for request in session.feed(data):
                    self._serve_http(
                        request,
                        lambda response: tls.send_application(encode_response(response)),
                    )

        tls.on_application_data = on_app_data

    def _serve_http(self, request: HttpRequest, send_http) -> None:
        if (
            request.method == "POST"
            and request.header("Content-Type") == CONTENT_TYPE_ODOH
        ):
            self._serve_oblivious(request, send_http)
            return
        try:
            wire = decode_doh_request(request, expected_path=self.deployment.doh_path)
        except DohCodecError as exc:
            status = getattr(exc, "status_hint", 400)
            send_http(encode_doh_error(status, str(exc)))
            return

        def respond(_query: Message, response: Message) -> None:
            min_ttl = _min_answer_ttl(response)
            send_http(encode_doh_response(response.to_wire(), min_ttl=min_ttl))

        if not self.handle_query_wire(wire, respond):
            send_http(encode_doh_error(400, "malformed DNS message"))

    def _serve_oblivious(self, request: HttpRequest, send_http) -> None:
        """Answer an ODoH target request (sealed query in, sealed answer out)."""
        if not self.deployment.supports_odoh:
            send_http(encode_doh_error(415, "oblivious DNS not supported"))
            return
        try:
            wire, key_id = open_query(request.body)
        except OdohCodecError as exc:
            send_http(encode_doh_error(400, str(exc)))
            return

        def respond(_query: Message, response: Message) -> None:
            sealed = seal_response(response.to_wire(), key_id)
            send_http(
                HttpResponse(
                    status=200,
                    headers={"Content-Type": CONTENT_TYPE_ODOH},
                    body=sealed,
                )
            )

        if not self.handle_query_wire(wire, respond):
            send_http(encode_doh_error(400, "malformed sealed DNS message"))


class DoQFrontend(_FrontendBase):
    """DNS over QUIC (RFC 9250): QUIC on UDP 853, one query per stream.

    Each stream carries one 2-byte-length-prefixed DNS message in each
    direction; the server closes the stream with its response.
    """

    def __init__(self, deployment, site, rng: random.Random) -> None:
        super().__init__(deployment, site, rng)
        from repro.quicsim.connection import QuicConfig, QuicServerListener

        self.listener = QuicServerListener(
            site.host, DOQ_PORT, self._on_stream, QuicConfig()
        )

    def _on_stream(self, conn, stream_id: int, data: bytes) -> None:
        messages = _LengthPrefixedStream().feed(data)
        if not messages:
            conn.respond_stream(stream_id, b"")
            return
        self.handle_query_wire(
            messages[0],
            lambda _query, response: conn.respond_stream(
                stream_id, _LengthPrefixedStream.frame(response.to_wire())
            ),
        )


class Doh3Frontend(_FrontendBase):
    """DoH over HTTP/3 (RFC 9114 on QUIC, UDP 443): one exchange per stream.

    Reuses the DoH codec path — request path/method validation, cache-
    control from the minimum answer TTL, HTTP error statuses — on top of
    the HTTP/3 stream framing.  ODoH stays DoH/TCP-only.
    """

    def __init__(self, deployment, site, rng: random.Random) -> None:
        super().__init__(deployment, site, rng)
        from repro.quicsim.connection import QuicConfig, QuicServerListener

        self.listener = QuicServerListener(
            site.host, DOH3_PORT, self._on_stream, QuicConfig()
        )

    def _on_stream(self, conn, stream_id: int, data: bytes) -> None:
        from repro.httpsim.h3 import (
            H3CodecError,
            decode_h3_request,
            encode_h3_response,
        )

        def send_http(response: HttpResponse) -> None:
            conn.respond_stream(stream_id, encode_h3_response(response))

        try:
            request = decode_h3_request(data)
        except H3CodecError:
            send_http(encode_doh_error(400, "malformed HTTP/3 request"))
            return
        try:
            wire = decode_doh_request(request, expected_path=self.deployment.doh_path)
        except DohCodecError as exc:
            status = getattr(exc, "status_hint", 400)
            send_http(encode_doh_error(status, str(exc)))
            return

        def respond(_query: Message, response: Message) -> None:
            min_ttl = _min_answer_ttl(response)
            send_http(encode_doh_response(response.to_wire(), min_ttl=min_ttl))

        if not self.handle_query_wire(wire, respond):
            send_http(encode_doh_error(400, "malformed DNS message"))


def _min_answer_ttl(response: Message) -> Optional[int]:
    return min(map(_RECORD_TTL, response.answers), default=None)
