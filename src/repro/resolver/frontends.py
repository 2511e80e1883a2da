"""Resolver frontend: the server side of every row of the transport table.

A :class:`Frontend` listens for one transport (Do53 on UDP and TCP, DoT,
DoH over HTTP/1.1 or HTTP/2 by ALPN, DoQ, DoH over HTTP/3) and answers
through one query path: parse the wire query, consult the site's
recursive engine (cache hit or full recursive walk), apply the
deployment's service-time distribution, and hand the parsed query and the
response :class:`Message` back to the transport it arrived on.  The
transport encodes the response once and reads whatever else it needs
(minimum TTL, EDNS payload limit, truncation) off those two messages, so
a query is parsed exactly once on the server.

What differs between transports is the listener (per connection kind)
and the responder (per framing), and there is one of each: the
length-prefixed responder serves Do53/TCP, DoT and DoQ; the DoH request
handler serves the HTTP/1.1, HTTP/2 and HTTP/3 listeners.
"""

from __future__ import annotations

import dataclasses
import random
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Optional

from repro.dnswire.builder import make_response
from repro.dnswire.edns import (
    EDE_NO_REACHABLE_AUTHORITY,
    EDE_NOT_READY,
    add_edns,
    attach_ede,
    get_edns,
)
from repro.dnswire.message import Message
from repro.dnswire.types import RCODE_SERVFAIL, TYPE_OPT
from repro.errors import DnsWireError
from repro.httpsim.doh import (
    DohCodecError,
    decode_doh_request,
    encode_doh_error,
    encode_doh_response,
)
from repro.httpsim.h1 import H1RequestParser, HttpRequest, HttpResponse, encode_response
from repro.httpsim.h2 import H2ServerSession, response_frames
from repro.httpsim.h3 import H3CodecError, decode_h3_request, encode_h3_response
from repro.httpsim.odoh_codec import (
    CONTENT_TYPE_ODOH,
    OdohCodecError,
    open_query,
    seal_response,
)
from repro.netsim.packet import Datagram
from repro.netsim.sockets import SimTcpConnection
from repro.quicsim.connection import QuicConfig, QuicServerListener
from repro.tlssim.handshake import TlsServerConfig, TlsServerConnection
from repro.transports import LengthPrefixedStream, Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.resolver.deployment import ResolverDeployment, ResolverSite

#: Called with the parsed query and the response to send for it.
RespondFn = Callable[[Message, Message], None]

_RECORD_TTL = attrgetter("ttl")


class Frontend:
    """One transport's listener on one site, and the shared query path."""

    def __init__(
        self,
        transport: Transport,
        deployment: "ResolverDeployment",
        site: "ResolverSite",
        rng: random.Random,
        tls_config: Optional[TlsServerConfig] = None,
    ) -> None:
        self.transport = transport
        self.deployment = deployment
        self.site = site
        self.rng = rng
        self.queries_handled = 0
        self.failures_injected = 0
        #: ODoH targets are reached over DoH/TCP only; the QUIC listener
        #: treats a sealed body as any other unsupported media type.
        self.serves_odoh = transport.connection == "tls"
        host = site.host
        if transport.connection == "udp":
            # Classic DNS: UDP, plus TCP with length framing for answers
            # that overflow the client's UDP payload budget (RFC 1035
            # §4.2.1 / RFC 6891).
            host.bind_udp(transport.port, self._handle_udp)
            host.listen_tcp(transport.port, self._accept_tcp)
        elif transport.connection == "tls":
            assert tls_config is not None
            # A fixed-ALPN transport (DoT) prefers its own protocol id but,
            # having no ALPN requirement in practice, accepts the rest too.
            self.tls_config = dataclasses.replace(
                tls_config,
                alpn_preference=transport.alpn + tuple(tls_config.alpn_preference),
            )
            host.listen_tcp(transport.port, self._accept_tls)
        else:
            self.listener = QuicServerListener(
                host, transport.port, self._on_quic_stream, QuicConfig()
            )

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
                add_edns(response)
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

    # -- listeners, per connection kind ------------------------------------------

    def _handle_udp(self, dgram: Datagram, host) -> None:
        def respond(query: Message, response: Message) -> None:
            wire = response.to_wire()
            if len(wire) > _udp_payload_limit(query):
                wire = _truncate(response)
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
        conn.on_data = self._framed_responder(conn.send)

    def _accept_tls(self, conn: SimTcpConnection) -> None:
        tls = TlsServerConnection(conn, self.tls_config)
        if self.transport.framing == "length":
            tls.on_application_data = self._framed_responder(tls.send_application)
            return
        session = None  # H2ServerSession or H1RequestParser, once ALPN has settled

        def serve_h2(request: HttpRequest, stream_id: int) -> None:
            # Answered through ``tls``, not ``session.respond``: the session
            # holds this callback, and a callback naming the session back
            # would be a cycle no teardown reaches.
            self._serve_http(
                request,
                lambda response: tls.send_application(
                    response_frames(stream_id, response)
                ),
            )

        def on_app_data(data: bytes) -> None:
            nonlocal session
            if session is None:
                if tls.negotiated_alpn == "h2":
                    session = H2ServerSession(
                        send=tls.send_application, on_request=serve_h2
                    )
                else:
                    session = H1RequestParser()
            if isinstance(session, H2ServerSession):
                session.feed(data)
                return
            for request in session.feed(data):
                self._serve_http(
                    request,
                    lambda response: tls.send_application(encode_response(response)),
                )

        tls.on_application_data = on_app_data

    def _on_quic_stream(self, conn, stream_id: int, data: bytes) -> None:
        """One query per bidirectional stream; the response closes it."""
        if self.transport.framing == "length":
            on_data = self._framed_responder(
                lambda framed: conn.respond_stream(stream_id, framed)
            )
            if not on_data(data):  # no complete query: end the stream empty
                conn.respond_stream(stream_id, b"")
            return

        def send_http(response: HttpResponse) -> None:
            conn.respond_stream(stream_id, encode_h3_response(response))

        try:
            request = decode_h3_request(data)
        except H3CodecError:
            send_http(encode_doh_error(400, "malformed HTTP/3 request"))
            return
        self._serve_http(request, send_http)

    # -- responders, per framing -----------------------------------------------------

    def _framed_responder(
        self, send: Callable[[bytes], None]
    ) -> Callable[[bytes], int]:
        """The length-prefixed responder of Do53/TCP, DoT and DoQ.

        Feed the returned function stream bytes; every query they complete
        is answered, framed, through ``send``.  It returns how many queries
        the chunk completed.
        """
        stream = LengthPrefixedStream()

        def respond(_query: Message, response: Message) -> None:
            send(LengthPrefixedStream.frame(response.to_wire()))

        def on_data(data: bytes) -> int:
            wires = stream.feed(data)
            for wire in wires:
                self.handle_query_wire(wire, respond)
            return len(wires)

        return on_data

    def _serve_http(self, request: HttpRequest, send_http) -> None:
        """The DoH request handler of the HTTP/1.1, HTTP/2 and HTTP/3 listeners."""
        if (
            self.serves_odoh
            and request.method == "POST"
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


def _udp_payload_limit(query: Message) -> int:
    """The client's advertised UDP payload size: its EDNS buffer size, or
    512 bytes without EDNS (RFC 6891)."""
    edns = get_edns(query)
    if edns is None:
        return 512
    return max(512, edns.payload_size)


def _truncate(response: Message) -> bytes:
    """An over-budget UDP response becomes an empty message carrying the TC
    bit; the client is expected to retry over TCP (RFC 1035 §4.2.1)."""
    response.answers = []
    response.authorities = []
    response.additionals = [r for r in response.additionals if r.rdtype == TYPE_OPT]
    response.header.tc = True
    return response.to_wire()


def _min_answer_ttl(response: Message) -> Optional[int]:
    return min(map(_RECORD_TTL, response.answers), default=None)
