"""Measurement probes: one DNS probe for every transport, and ICMP ping.

A :class:`Probe` issues one query toward a resolver and reports a
:class:`ProbeOutcome` through a callback.  Which stack it drives — UDP,
TLS over TCP or QUIC underneath; raw, length-prefixed, DoH or DoH/3
framing on top — is a row of :data:`repro.transports.TRANSPORTS`; the
query prelude, connection establishment, reuse, framing, outcome and
teardown each exist once and are shared by every row, so a difference
between two transports' numbers is a difference between their stacks.

Connection-oriented transports operate in two modes:

* **fresh** (default, matching the paper's methodology): every query pays
  full establishment, like a ``dig``-style one-shot client;
* **reuse**: the probe keeps the connection (and HTTP/2 session) open
  across queries, which is the connection-reuse regime studied by the
  related work the paper builds on.

All probes enforce an end-to-end deadline and classify failures via
:mod:`repro.core.errors_taxonomy`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Sequence

from repro.core.errors_taxonomy import ErrorClass, classify_error
from repro.dnswire.builder import make_query_wire
from repro.dnswire.message import Message
from repro.dnswire.types import RCODE_NOERROR, TYPE_A
from repro.errors import (
    CampaignConfigError,
    ConnectionReset,
    DnsWireError,
    FramingError,
    HttpError,
    HttpStatusError,
    ProbeTimeout,
)
from repro.httpsim.doh import decode_doh_response, encode_doh_request
from repro.httpsim.h1 import H1ResponseParser, HttpRequest, HttpResponse, encode_request
from repro.httpsim.h2 import H2ClientSession
from repro.httpsim.h3 import decode_h3_response, encode_h3_request
from repro.netsim.host import Host
from repro.netsim.icmp import PingResult, ping
from repro.netsim.sockets import SimTcpConnection, SimUdpSocket
from repro.obs import PhaseClock, SpanRecorder, get_recorder
from repro.quicsim.connection import QuicClientConnection, QuicConfig
from repro.tlssim.handshake import TlsClientConfig, TlsClientConnection
from repro.tlssim.session import SessionCache
from repro.transports import TRANSPORTS, LengthPrefixedStream, Transport

DEFAULT_TIMEOUT_MS = 5000.0


def _validate_timeout_ms(timeout_ms: float) -> None:
    """Reject non-positive or non-numeric probe deadlines at construction."""
    if not isinstance(timeout_ms, (int, float)) or isinstance(timeout_ms, bool):
        raise CampaignConfigError(f"timeout_ms must be a number, got {timeout_ms!r}")
    if timeout_ms <= 0:
        raise CampaignConfigError(f"timeout_ms must be positive, got {timeout_ms!r}")


@dataclass
class ProbeOutcome:
    """Result of one probe."""

    duration_ms: Optional[float]
    success: bool
    error_class: Optional[ErrorClass] = None
    error_detail: Optional[str] = None
    rcode: Optional[int] = None
    http_status: Optional[int] = None
    http_version: Optional[str] = None
    tls_version: Optional[str] = None
    response_size: Optional[int] = None
    connection_reused: bool = False
    answers: List[str] = field(default_factory=list)
    #: Phase timings (ms): TCP connect, TLS/QUIC handshake, and the query
    #: exchange.  Filled by the probe's :class:`~repro.obs.PhaseClock`;
    #: ``None`` for phases that did not occur.
    connect_ms: Optional[float] = None
    tls_ms: Optional[float] = None
    query_ms: Optional[float] = None
    #: The phase in flight when a failed probe gave up (None on success).
    failed_phase: Optional[str] = None
    #: The raw DNS response message bytes, for answer differencing.  Set
    #: whenever a well-formed response was parsed (including non-NOERROR
    #: responses); ``None`` when the probe never got a parseable message.
    response_wire: Optional[bytes] = None
    #: How the transport session was (re)used: ``cold`` (full
    #: establishment), ``warm`` (kept-alive connection), ``resumed``
    #: (abbreviated 1-RTT handshake from a session ticket) or
    #: ``zero_rtt`` (accepted early data).  ``None`` for transports
    #: without session semantics (Do53, ping) and for probes that failed
    #: before an HTTP status or a DNS message came back.
    session_state: Optional[str] = None

    @classmethod
    def failure(cls, duration_ms: Optional[float], exc: BaseException) -> "ProbeOutcome":
        return cls(
            duration_ms=duration_ms,
            success=False,
            error_class=classify_error(exc),
            error_detail=str(exc),
        )


OutcomeCallback = Callable[[ProbeOutcome], None]

#: Phases whose durations roll up into ``ProbeOutcome.query_ms``.
_QUERY_PHASES = ("http_exchange", "dns_exchange", "dns_parse")


class _OneShot:
    """One query in flight: completes exactly once, by answer or deadline.

    Carries what every later step needs (the phase clock, the query wire
    and id, whether the connection was reused) and, on completion, runs
    the cleanups and lands the phase timings on the outcome before the
    caller sees it.
    """

    def __init__(
        self, loop, timeout_ms: float, clock: PhaseClock, on_complete: OutcomeCallback
    ) -> None:
        _validate_timeout_ms(timeout_ms)
        self.loop = loop
        self.clock = clock
        self.started_at = loop.now
        self.done = False
        self.wire = b""
        self.msg_id = 0
        self.reused = False
        self._on_complete = on_complete
        self._timer = loop.call_later(timeout_ms, self._timeout)
        self._cleanup: List[Callable[[], None]] = []

    def add_cleanup(self, fn: Callable[[], None]) -> None:
        self._cleanup.append(fn)

    @property
    def elapsed_ms(self) -> float:
        return self.loop.now - self.started_at

    def _timeout(self) -> None:
        self.fail(ProbeTimeout(f"probe exceeded deadline after {self.elapsed_ms:.0f} ms"))

    def finish(self, outcome: ProbeOutcome) -> None:
        if self.done:
            return
        self.done = True
        self._timer.cancel()
        # Read what is about to be called, let go of all of it, then call:
        # the cleanups and the callback hold the connection and the
        # measurement that hold this shot.
        cleanups, self._cleanup = self._cleanup, []
        on_complete, self._on_complete = self._on_complete, None
        for fn in cleanups:
            fn()
        clock = self.clock
        phases = clock.finish(
            outcome.success,
            error=outcome.error_class.value if outcome.error_class else None,
        )
        outcome.connect_ms = phases.get("tcp_connect")
        tls_ms = phases.get("tls_handshake")
        outcome.tls_ms = tls_ms if tls_ms is not None else phases.get("quic_handshake")
        if any(phase in phases for phase in _QUERY_PHASES):
            outcome.query_ms = sum(phases.get(phase, 0.0) for phase in _QUERY_PHASES)
        outcome.failed_phase = clock.failed_phase
        on_complete(outcome)

    def fail(self, exc: BaseException) -> None:
        self.finish(ProbeOutcome.failure(self.elapsed_ms, exc))


@dataclass
class ProbeConfig:
    """Knobs of a probe, one set for every transport.

    A transport reads the fields its stack has: ``method``, ``doh_path``
    and ``http_versions`` matter where there is HTTP, ``tls_versions``
    where there is TLS, the session fields where there is a connection to
    keep or resume, and the retry fields on UDP.
    """

    method: str = "POST"
    http_versions: Sequence[str] = ("h2", "http/1.1")
    tls_versions: Sequence[str] = ("1.3", "1.2")
    timeout_ms: float = DEFAULT_TIMEOUT_MS
    reuse_connections: bool = False
    session_cache: Optional[SessionCache] = None
    #: Attempt 0-RTT when a cached ticket allows it.  ``None`` takes the
    #: transport's habit (:attr:`Transport.early_data`): QUIC clients do,
    #: TLS-over-TCP clients do not.
    enable_early_data: Optional[bool] = None
    #: Probability a 0-RTT attempt is rejected by the server's anti-replay
    #: filter (drawn from the probe's own RNG; see TlsClientConfig).
    early_data_reject_p: float = 0.0
    #: Certificate-validation cost charged to full (non-resumed) handshakes.
    cert_verify_ms: float = 0.0
    doh_path: str = "/dns-query"
    #: UDP retransmissions, ``retry_interval_ms`` apart.
    retries: int = 1
    retry_interval_ms: float = 2000.0
    #: Retry over TCP when a UDP response arrives with the TC bit set.
    tcp_fallback: bool = True

    def __post_init__(self) -> None:
        _validate_timeout_ms(self.timeout_ms)
        if self.method not in ("POST", "GET"):
            raise CampaignConfigError(f"DoH method must be POST or GET, got {self.method!r}")
        if not isinstance(self.retries, int) or self.retries < 0:
            raise CampaignConfigError(
                f"retries must be a non-negative integer, got {self.retries!r}"
            )
        if self.retry_interval_ms <= 0:
            raise CampaignConfigError(
                f"retry_interval_ms must be positive, got {self.retry_interval_ms!r}"
            )


class _Live:
    """One connection as the framings see it.

    ``conn`` is the TLS or QUIC connection — or, for Do53, the UDP socket
    or the plain TCP connection of the truncation fallback — and ``kind``
    says which.  ``http`` is the HTTP/2 session or HTTP/1.1 parser of a
    DoH connection: framing state lives on the probe's record of the
    connection, so a kept-alive probe finds it again on the next query.
    """

    __slots__ = ("conn", "kind", "http")

    def __init__(self, conn, kind: str) -> None:
        self.conn = conn
        self.kind = kind
        self.http = None

    def send(
        self,
        payload: bytes,
        on_data: Callable[[bytes], None],
        on_end: Callable[[], None],
    ) -> None:
        """Send one framed request; response bytes reach ``on_data`` and
        ``on_end`` fires if the peer ends the stream."""
        conn = self.conn
        if self.kind == "quic":
            # One stream per exchange, delivered whole: its bytes, then
            # its end (a no-op once the answer completed the query).
            def on_stream(data: bytes) -> None:
                on_data(data)
                on_end()

            conn.open_stream(payload, on_stream)
        elif self.kind == "tls":
            conn.on_application_data = on_data
            conn.on_close = on_end
            conn.send_application(payload)
        else:
            conn.on_data = on_data
            conn.on_close = on_end
            conn.send(payload)


class Probe:
    """DNS measurement client bound to one vantage host, one resolver and
    one row of the transport table."""

    def __init__(
        self,
        transport: Transport,
        host: Host,
        service_ip: str,
        server_name: str,
        config: Optional[ProbeConfig] = None,
        rng: Optional[random.Random] = None,
        recorder: Optional[SpanRecorder] = None,
    ) -> None:
        self.transport = transport
        self.host = host
        self.service_ip = service_ip
        self.server_name = server_name
        self.config = config or ProbeConfig()
        self.rng = rng if rng is not None else random.Random(0)
        self.recorder = recorder
        self._live: Optional[_Live] = None

    @property
    def _loop(self):
        assert self.host.network is not None
        return self.host.network.loop

    # -- public API -----------------------------------------------------------

    def query(
        self,
        domain: str,
        on_complete: OutcomeCallback,
        qtype: int = TYPE_A,
        span_parent: Optional[int] = None,
    ) -> None:
        """Measure one query's end-to-end response time."""
        transport = self.transport
        loop = self._loop
        clock = PhaseClock(
            loop,
            self.recorder if self.recorder is not None else get_recorder(),
            parent_id=span_parent,
            transport=transport.name,
            server=self.server_name,
            domain=domain,
        )
        shot = _OneShot(loop, self.config.timeout_ms, clock, on_complete)
        shot.msg_id = self.rng.randint(0, 0xFFFF) if transport.random_msg_id else 0
        shot.wire = make_query_wire(domain, qtype, shot.msg_id)

        live = self._live if self.config.reuse_connections else None
        if live is not None and live.conn.closed:
            # The kept-alive connection died underneath us (server FIN,
            # idle teardown, failed handshake): writes to it would be
            # dropped silently, so establish afresh.  One rule for every
            # connection kind.
            self.close()
            live = None
        # Decide reuse up front: by response time a fresh connection has
        # already been stored in _live, so testing it then would misreport
        # a first query on a kept-alive probe as "warm".
        shot.reused = live is not None
        if live is not None:
            clock.enter(transport.exchange_phase)
            self._send(shot, live)
        else:
            self._establish(shot)

    def close(self) -> None:
        """Drop any kept-alive connection."""
        live, self._live = self._live, None
        if live is not None:
            live.conn.close()
            live.http = None

    # -- connection establishment, per connection kind -------------------------

    def _establish(self, shot: _OneShot) -> None:
        """Open a fresh connection and hand the query to :meth:`_send`."""
        transport = self.transport
        config = self.config
        clock = shot.clock
        early_data = (
            transport.early_data
            if config.enable_early_data is None
            else config.enable_early_data
        )

        if transport.connection == "udp":
            live = _Live(SimUdpSocket(self.host), "udp")
            shot.add_cleanup(live.conn.close)
            clock.enter(transport.exchange_phase)
            self._send(shot, live)

        elif transport.connection == "quic":
            # QUIC queues the stream until the handshake permits (and
            # remembers it for replay if 0-RTT is rejected), so the query
            # is handed over at once and only the phase changes later.
            clock.enter("quic_handshake")
            live = _Live(
                QuicClientConnection(
                    self.host, self.service_ip, transport.port, self.server_name,
                    config=QuicConfig(
                        session_cache=config.session_cache,
                        enable_early_data=early_data,
                        early_data_reject_p=config.early_data_reject_p,
                        early_data_rng=self.rng,
                        cert_verify_ms=config.cert_verify_ms,
                        connect_timeout_ms=self._connect_budget_ms(shot),
                    ),
                    on_error=shot.fail,
                    on_established=lambda _conn: clock.enter(transport.exchange_phase),
                ),
                "quic",
            )
            if config.reuse_connections:
                self._live = live
            shot.add_cleanup(partial(self._release, live))
            self._send(shot, live)

        else:
            tls_config = TlsClientConfig(
                versions=tuple(config.tls_versions),
                alpn=transport.alpn or tuple(config.http_versions),
                session_cache=config.session_cache,
                enable_early_data=early_data,
                early_data_reject_p=config.early_data_reject_p,
                early_data_rng=self.rng,
                cert_verify_ms=config.cert_verify_ms,
            )

            def on_tcp(conn: SimTcpConnection) -> None:
                def on_tls(tls: TlsClientConnection) -> None:
                    if config.reuse_connections:
                        self._live = live
                    if transport.framing == "http":
                        if tls.negotiated_alpn == "h2" or (
                            tls.negotiated_alpn is None and "h2" in config.http_versions
                        ):
                            live.http = H2ClientSession(
                                send=tls.send_application, authority=self.server_name
                            )
                            tls.on_application_data = live.http.feed
                        else:
                            live.http = H1ResponseParser()
                    clock.enter(transport.exchange_phase)
                    self._send(shot, live)

                clock.enter("tls_handshake")
                live = _Live(
                    TlsClientConnection(
                        conn, self.server_name, tls_config,
                        on_established=on_tls, on_error=shot.fail,
                    ),
                    "tls",
                )
                # Registered before the handshake so a deadline that hits
                # mid-handshake closes the TCP connection too.
                shot.add_cleanup(partial(self._release, live))

            self._connect_tcp(shot, on_tcp)

    def _connect_budget_ms(self, shot: _OneShot) -> float:
        """Connect deadline, just inside what is left of the probe's own.

        A never-answered SYN (or QUIC Initial) then classifies as a
        connection-establishment failure rather than a generic timeout.
        """
        return max(1.0, self.config.timeout_ms - shot.elapsed_ms - 1.0)

    def _connect_tcp(
        self, shot: _OneShot, on_established: Callable[[SimTcpConnection], None]
    ) -> None:
        def established(conn: SimTcpConnection) -> None:
            if shot.done:
                conn.close()
            else:
                on_established(conn)

        shot.clock.enter("tcp_connect")
        SimTcpConnection.connect(
            self.host,
            self.service_ip,
            self.transport.port,
            established,
            on_error=shot.fail,
            timeout_ms=self._connect_budget_ms(shot),
        )

    def _release(self, live: _Live) -> None:
        """Shot cleanup: close the connection unless the probe kept it."""
        if self._live is not live:
            live.conn.close()
            # An HTTP/2 session still holds the callback of a request that
            # was never answered, and that callback holds ``live``.
            live.http = None

    # -- request framing / response de-framing, per framing ---------------------

    def _send(self, shot: _OneShot, live: _Live) -> None:
        """Frame the query onto ``live``; de-framed answers reach :meth:`_answer`."""
        # Do53's truncation fallback speaks length framing over plain TCP.
        framing = "length" if live.kind == "tcp" else self.transport.framing
        if framing == "raw":
            live.conn.on_datagram = lambda dgram: self._answer(shot, live, dgram.payload)
            self._send_datagram(shot, live.conn, self.config.retries)
            return
        stream = LengthPrefixedStream() if framing == "length" else None

        def on_end() -> None:
            # The peer ended the stream while we still await the answer:
            # a half-delivered frame is a mid-stream truncation (named
            # FramingError), a clean boundary is an ordinary reset.
            if shot.done:
                return
            try:
                if stream is not None:
                    stream.finish()
            except FramingError as exc:
                shot.fail(exc)
            else:
                shot.fail(ConnectionReset("server closed the stream before responding"))

        if framing == "length":

            def on_bytes(data: bytes) -> None:
                for dns_wire in stream.feed(data):
                    if self._answer(shot, live, dns_wire):
                        return

            live.send(LengthPrefixedStream.frame(shot.wire), on_bytes, on_end)

        else:
            request = self._http_request(shot.wire)

            def on_http(response: HttpResponse) -> None:
                self._answer(shot, live, None, response)

            if isinstance(live.http, H2ClientSession):
                # HTTP/2 multiplexes: the session owns the inbound bytes
                # and routes each response to its own request.
                live.conn.on_close = on_end
                try:
                    live.http.request(request, on_http)
                except HttpError as exc:
                    shot.fail(exc)
                return
            # HTTP/1.1 and HTTP/3: one exchange at a time on this stream.
            if framing == "h3":
                payload = encode_h3_request(request, host=self.server_name)

                def deframe(data: bytes) -> Sequence[HttpResponse]:
                    return (decode_h3_response(data),)

            else:
                payload = encode_request(request, host=self.server_name)
                deframe = live.http.feed

            def on_http_bytes(data: bytes) -> None:
                try:
                    responses = deframe(data)
                except (HttpError, ValueError) as exc:
                    # ValueError: non-ASCII bytes in an HTTP/1.1 head.
                    shot.fail(exc)
                    return
                for response in responses:
                    on_http(response)
                    break

            live.send(payload, on_http_bytes, on_end)

    def _send_datagram(self, shot: _OneShot, socket: SimUdpSocket, remaining: int) -> None:
        """Send the query, and again each retry interval while unanswered."""
        if shot.done or socket.closed:
            return
        socket.sendto(shot.wire, self.service_ip, self.transport.port)
        if remaining > 0:
            self._loop.call_later(
                self.config.retry_interval_ms, self._send_datagram, shot, socket, remaining - 1
            )

    def _retry_over_tcp(self, shot: _OneShot) -> None:
        """Ask again over TCP with length framing (RFC 1035 §4.2.1)."""

        def on_tcp(conn: SimTcpConnection) -> None:
            shot.add_cleanup(conn.close)
            shot.clock.enter(self.transport.exchange_phase)
            self._send(shot, _Live(conn, "tcp"))

        self._connect_tcp(shot, on_tcp)

    def _http_request(self, dns_wire: bytes) -> HttpRequest:
        return encode_doh_request(
            dns_wire, method=self.config.method, path=self.config.doh_path
        )

    def _dns_from_http(self, response: HttpResponse) -> bytes:
        return decode_doh_response(response)

    # -- response -> outcome ---------------------------------------------------------

    def _answer(
        self,
        shot: _OneShot,
        live: _Live,
        dns_wire: Optional[bytes],
        http: Optional[HttpResponse] = None,
    ) -> bool:
        """Turn one de-framed response into the outcome.

        ``dns_wire`` is the DNS message, or None when it is still inside
        the HTTP response ``http``.  Returns False when the message is not
        the answer to this query (the caller keeps waiting), True once
        the query is settled.
        """
        if shot.done:
            return True
        if http is not None and http.status != 200:
            outcome = ProbeOutcome.failure(shot.elapsed_ms, HttpStatusError(http.status))
            self._label(outcome, shot, live, http)
            shot.finish(outcome)
            return True
        clock = shot.clock
        clock.enter("dns_parse")
        try:
            if dns_wire is None:
                dns_wire = self._dns_from_http(http)
            message = Message.from_wire(dns_wire)
        except (HttpError, DnsWireError) as exc:
            shot.fail(exc)
            return True
        if self.transport.random_msg_id and message.header.msg_id != shot.msg_id:
            clock.enter(self.transport.exchange_phase)
            return False
        truncated = message.header.tc
        if truncated and live.kind == "udp" and self.config.tcp_fallback:
            # The answer didn't fit the UDP payload budget.
            live.conn.close()
            self._retry_over_tcp(shot)
            return True
        success = message.rcode == RCODE_NOERROR
        if live.kind == "tcp":
            detail: Optional[str] = "via-tcp"
        elif truncated:
            detail = "truncated"  # partial answer, taken as it came
        else:
            detail = None if success else f"rcode={message.rcode}"
        outcome = ProbeOutcome(
            duration_ms=shot.elapsed_ms,
            success=success,
            error_class=None if success else ErrorClass.DNS_RCODE,
            error_detail=detail,
            rcode=message.rcode,
            response_size=len(dns_wire) if http is None else len(http.body),
            answers=message.answer_addresses(),
            response_wire=dns_wire,
        )
        self._label(outcome, shot, live, http)
        shot.finish(outcome)
        return True

    def _label(
        self,
        outcome: ProbeOutcome,
        shot: _OneShot,
        live: _Live,
        http: Optional[HttpResponse],
    ) -> None:
        """Stamp what the connection negotiated and how it was (re)used."""
        conn = live.conn
        outcome.connection_reused = shot.reused
        if live.kind == "quic":
            outcome.tls_version = "quic"
        elif live.kind == "tls":
            outcome.tls_version = conn.negotiated_version
        else:
            return  # UDP / plain TCP: no TLS, no HTTP, no session
        if http is not None:
            outcome.http_status = http.status
            if live.kind == "quic":
                outcome.http_version = "h3"
            else:
                outcome.http_version = (
                    "h2" if conn.negotiated_alpn == "h2" else "http/1.1"
                )
        if shot.reused:
            outcome.session_state = "warm"
        elif conn.used_early_data:
            outcome.session_state = "zero_rtt"
        elif conn.resumed:
            outcome.session_state = "resumed"
        else:
            outcome.session_state = "cold"


def make_probe(
    transport: str,
    host: Host,
    service_ip: str,
    server_name: str,
    config: Optional[ProbeConfig] = None,
    rng: Optional[random.Random] = None,
    recorder: Optional[SpanRecorder] = None,
) -> Probe:
    """The probe for ``transport`` (a name in the transport table)."""
    row = TRANSPORTS.get(transport)
    if row is None:
        raise CampaignConfigError(f"unknown transport {transport!r}")
    return Probe(row, host, service_ip, server_name, config, rng, recorder)


# The per-transport names older call sites construct positionally.  They
# hold no logic: each is make_probe with the transport filled in, and
# every config name is the one ProbeConfig.
DohProbe = partial(make_probe, "doh")
DotProbe = partial(make_probe, "dot")
DoqProbe = partial(make_probe, "doq")
Doh3Probe = partial(make_probe, "doh3")


def Do53Probe(
    host: Host,
    service_ip: str,
    config: Optional[ProbeConfig] = None,
    rng: Optional[random.Random] = None,
    recorder: Optional[SpanRecorder] = None,
) -> Probe:
    """Do53 has no server name to authenticate; spans carry the address."""
    return make_probe("do53", host, service_ip, service_ip, config, rng, recorder)


DohProbeConfig = DotProbeConfig = Do53ProbeConfig = ProbeConfig
DoqProbeConfig = Doh3ProbeConfig = ProbeConfig


# ---------------------------------------------------------------------------
# Ping
# ---------------------------------------------------------------------------


class PingProbe:
    """ICMP echo probe pairing each DNS measurement with a latency sample."""

    def __init__(self, host: Host, target_ip: str, timeout_ms: float = 3000.0) -> None:
        _validate_timeout_ms(timeout_ms)
        self.host = host
        self.target_ip = target_ip
        self.timeout_ms = timeout_ms

    def send(self, on_complete: OutcomeCallback) -> None:
        def on_result(result: PingResult) -> None:
            if result.responded:
                on_complete(
                    ProbeOutcome(duration_ms=result.rtt_ms, success=True)
                )
            else:
                on_complete(
                    ProbeOutcome(
                        duration_ms=None,
                        success=False,
                        error_class=ErrorClass.TIMEOUT,
                        error_detail="no ICMP echo reply",
                    )
                )

        ping(self.host, self.target_ip, on_result, timeout_ms=self.timeout_ms)
