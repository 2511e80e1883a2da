"""TLS handshake state machines (client and server) over simulated TCP.

Handshake messages use the real framing — ``msg_type(1) | length(3) | body``
inside handshake records — with bodies zero-padded to realistic sizes, so
flight sizes and segmentation match the protocols being modelled:

========================  =========================  =====================
Handshake                 Client flights             RTTs before app data
========================  =========================  =====================
TLS 1.3 full              CH | Fin (+app)            1
TLS 1.3 resumed (PSK)     CH | Fin (+app)            1 (no cert flight)
TLS 1.3 0-RTT             CH+app                     0
TLS 1.2 full              CH | CKE+CCS+Fin           2
TLS 1.2 resumed           CH | CCS+Fin               1
========================  =========================  =====================

Four messages carry fields: a fixed ``struct`` head (network order) whose
last member is the byte length of the NUL-joined utf-8 strings after it.

==================  ====================================================
ClientHello         flags(1) ticket_id(8) n_versions(1) n_alpn(1) len(2)
                    | sni, ticket_version, versions..., alpn...
                    (flags: 1 ticket, 2 early_data, 4 early_replay)
ServerHello         flags(1) len(2) | version, alpn
                    (flags: 1 resumed, 2 early_data_accepted, 4 alpn)
NewSessionTicket    flags(1) ticket_id(8) lifetime_ms(8, double) len(2)
                    | version   (flags: 1 early_data)
Finished            flags(1)    (flags: 1 final)
==================  ====================================================

The rest (EncryptedExtensions, Certificate, KeyExchange, CCS,
ServerHelloDone) are padding only.  The message *sizes* are the contract
with the rest of the simulator — they set record lengths, segmentation and
therefore timing; the body bytes are not.

Cryptographic verification is out of scope; timing, flight sizes, version
and ALPN negotiation, resumption, and failure alerts are in scope.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TlsHandshakeError
from repro.netsim.sockets import SimTcpConnection
from repro.obs import get_metrics
from repro.tlssim.record import (
    CONTENT_ALERT,
    CONTENT_APPLICATION_DATA,
    CONTENT_HANDSHAKE,
    RecordStream,
    wrap_record,
)
from repro.tlssim.session import SessionCache, SessionTicket, register_ticket

# Handshake message types (RFC 8446 / 5246 values).
CLIENT_HELLO = 1
SERVER_HELLO = 2
NEW_SESSION_TICKET = 4
ENCRYPTED_EXTENSIONS = 8
CERTIFICATE = 11
SERVER_HELLO_DONE = 14
CLIENT_KEY_EXCHANGE = 16
FINISHED = 20
CHANGE_CIPHER_SPEC = 254  # modelled as a handshake message for simplicity

# Typical message sizes (bytes) used for padding.
SIZE_CLIENT_HELLO = 280
SIZE_SERVER_HELLO = 120
SIZE_ENCRYPTED_EXT = 40
SIZE_FINISHED = 52
SIZE_KEY_EXCHANGE = 140
SIZE_TICKET = 208
SIZE_CCS = 6
SIZE_SERVER_HELLO_DONE = 8

_HS_HEADER = struct.Struct("!B3s")
_CLIENT_HELLO_HEAD = struct.Struct("!BQBBH")
_SERVER_HELLO_HEAD = struct.Struct("!BH")
_TICKET_HEAD = struct.Struct("!BQdH")


class ClientHello(NamedTuple):
    versions: Tuple[str, ...]
    sni: str
    alpn: Tuple[str, ...]
    #: Resumption ticket offered, with the version it was issued under.
    ticket_id: Optional[int] = None
    ticket_version: Optional[str] = None
    early_data: bool = False
    early_replay: bool = False


class ServerHello(NamedTuple):
    version: str
    alpn: Optional[str]
    resumed: bool
    early_data_accepted: bool


class NewSessionTicket(NamedTuple):
    ticket_id: int
    version: str
    early_data: bool
    lifetime_ms: float


@lru_cache(maxsize=16)
def _encode_handshake(msg_type: int, body: bytes, min_size: int) -> bytes:
    """Frame ``body``, zero-padded to ``min_size``, as one handshake message.

    Memoised: the padding-only messages are a handful of distinct byte
    strings (the Certificate is one per configured chain size).
    """
    body = body.ljust(min_size, b"\0")
    return _HS_HEADER.pack(msg_type, len(body).to_bytes(3, "big")) + body


def _decode_handshakes(body: bytes) -> List[Tuple[int, bytes]]:
    """Split one record body into its ``(msg_type, padded body)`` messages."""
    messages = []
    cursor = 0
    while cursor < len(body):
        if cursor + 4 > len(body):
            raise TlsHandshakeError("truncated handshake header")
        msg_type = body[cursor]
        length = int.from_bytes(body[cursor + 1 : cursor + 4], "big")
        cursor += 4
        if cursor + length > len(body):
            raise TlsHandshakeError("truncated handshake body")
        messages.append((msg_type, body[cursor : cursor + length]))
        cursor += length
    return messages


# The encoders frame and pad inline and the decoders share no helper: each
# is one Python call on the per-connection path.  Encoders raise
# ``struct.error`` for values the layout cannot hold (local configuration);
# decoders raise only ``TlsHandshakeError`` (bytes from the peer).


def _encode_client_hello(hello: ClientHello) -> bytes:
    has_ticket = hello.ticket_id is not None
    text = "\0".join(
        (hello.sni, hello.ticket_version if has_ticket else "", *hello.versions, *hello.alpn)
    ).encode("utf-8")
    head = _CLIENT_HELLO_HEAD.pack(
        has_ticket | hello.early_data << 1 | hello.early_replay << 2,
        hello.ticket_id if has_ticket else 0,
        len(hello.versions),
        len(hello.alpn),
        len(text),
    )
    body = (head + text).ljust(SIZE_CLIENT_HELLO, b"\0")
    return _HS_HEADER.pack(CLIENT_HELLO, len(body).to_bytes(3, "big")) + body


def _decode_client_hello(body: bytes) -> ClientHello:
    try:
        flags, ticket_id, n_versions, n_alpn, size = _CLIENT_HELLO_HEAD.unpack_from(body)
        text = body[_CLIENT_HELLO_HEAD.size : _CLIENT_HELLO_HEAD.size + size]
        fields = text.decode("utf-8").split("\0")
    except (struct.error, UnicodeDecodeError) as exc:
        raise TlsHandshakeError(f"malformed ClientHello: {exc}") from None
    if len(text) != size or len(fields) != 2 + n_versions + n_alpn:
        raise TlsHandshakeError("malformed ClientHello: truncated fields")
    has_ticket = bool(flags & 1)
    return ClientHello(
        versions=tuple(fields[2 : 2 + n_versions]),
        sni=fields[0],
        alpn=tuple(fields[2 + n_versions :]),
        ticket_id=ticket_id if has_ticket else None,
        ticket_version=fields[1] if has_ticket else None,
        early_data=bool(flags & 2),
        early_replay=bool(flags & 4),
    )


def _encode_server_hello(hello: ServerHello) -> bytes:
    has_alpn = hello.alpn is not None
    text = f"{hello.version}\0{hello.alpn if has_alpn else ''}".encode("utf-8")
    head = _SERVER_HELLO_HEAD.pack(
        hello.resumed | hello.early_data_accepted << 1 | has_alpn << 2, len(text)
    )
    body = (head + text).ljust(SIZE_SERVER_HELLO, b"\0")
    return _HS_HEADER.pack(SERVER_HELLO, len(body).to_bytes(3, "big")) + body


def _decode_server_hello(body: bytes) -> ServerHello:
    try:
        flags, size = _SERVER_HELLO_HEAD.unpack_from(body)
        text = body[_SERVER_HELLO_HEAD.size : _SERVER_HELLO_HEAD.size + size]
        fields = text.decode("utf-8").split("\0")
    except (struct.error, UnicodeDecodeError) as exc:
        raise TlsHandshakeError(f"malformed ServerHello: {exc}") from None
    if len(text) != size or len(fields) != 2:
        raise TlsHandshakeError("malformed ServerHello: truncated fields")
    return ServerHello(
        version=fields[0],
        alpn=fields[1] if flags & 4 else None,
        resumed=bool(flags & 1),
        early_data_accepted=bool(flags & 2),
    )


def _encode_new_session_ticket(ticket: NewSessionTicket) -> bytes:
    text = ticket.version.encode("utf-8")
    head = _TICKET_HEAD.pack(
        ticket.early_data, ticket.ticket_id, ticket.lifetime_ms, len(text)
    )
    body = (head + text).ljust(SIZE_TICKET, b"\0")
    return _HS_HEADER.pack(NEW_SESSION_TICKET, len(body).to_bytes(3, "big")) + body


def _decode_new_session_ticket(body: bytes) -> NewSessionTicket:
    try:
        flags, ticket_id, lifetime_ms, size = _TICKET_HEAD.unpack_from(body)
        text = body[_TICKET_HEAD.size : _TICKET_HEAD.size + size]
        version = text.decode("utf-8")
    except (struct.error, UnicodeDecodeError) as exc:
        raise TlsHandshakeError(f"malformed NewSessionTicket: {exc}") from None
    if len(text) != size:
        raise TlsHandshakeError("malformed NewSessionTicket: truncated fields")
    return NewSessionTicket(ticket_id, version, bool(flags & 1), lifetime_ms)


def _decode_finished(body: bytes) -> bool:
    """The ``final`` flag of a Finished message."""
    if not body:
        raise TlsHandshakeError("malformed Finished: empty body")
    return bool(body[0] & 1)


# Flights whose bytes never vary.
_ENCRYPTED_EXTENSIONS = _encode_handshake(ENCRYPTED_EXTENSIONS, b"", SIZE_ENCRYPTED_EXT)
_SERVER_HELLO_DONE = _encode_handshake(SERVER_HELLO_DONE, b"", SIZE_SERVER_HELLO_DONE)
_CCS = _encode_handshake(CHANGE_CIPHER_SPEC, b"", SIZE_CCS)
_FINISHED = _encode_handshake(FINISHED, b"\0", SIZE_FINISHED)
_CCS_FINISHED = _CCS + _FINISHED
_CCS_FINISHED_FINAL = _CCS + _encode_handshake(FINISHED, b"\1", SIZE_FINISHED)
_KEY_EXCHANGE_CCS_FINISHED = (
    _encode_handshake(CLIENT_KEY_EXCHANGE, b"", SIZE_KEY_EXCHANGE) + _CCS_FINISHED
)


@dataclass
class TlsClientConfig:
    """Client-side handshake preferences.

    ``early_data_reject_p`` models the server-side anti-replay filter for
    0-RTT: with this probability a 0-RTT attempt is marked as a replay in
    the ClientHello and the server rejects the early data, forcing the
    standard 1-RTT resumed fallback.  The draw comes from
    ``early_data_rng`` — callers pass the measurement's own derived RNG
    so rejection patterns are deterministic and independent of process
    or shard boundaries (server-side ticket ids are process-global and
    must never influence behaviour).
    """

    versions: Sequence[str] = ("1.3", "1.2")
    alpn: Sequence[str] = ("h2", "http/1.1")
    session_cache: Optional[SessionCache] = None
    enable_early_data: bool = True
    crypto_delay_ms: float = 0.3
    #: Client-side certificate-chain validation cost, paid once per *full*
    #: handshake; resumed (PSK) handshakes skip it — the establishment
    #: saving that session resumption buys on a 1-RTT handshake.
    cert_verify_ms: float = 0.0
    early_data_reject_p: float = 0.0
    early_data_rng: Optional[object] = None


@dataclass
class TlsServerConfig:
    """Server-side handshake policy."""

    versions: Sequence[str] = ("1.3", "1.2")
    alpn_preference: Sequence[str] = ("h2", "http/1.1")
    cert_chain_bytes: int = 2800
    crypto_delay_ms: float = 0.5
    issue_tickets: bool = True
    allow_early_data: bool = True
    ticket_lifetime_ms: float = 7 * 24 * 3600 * 1000.0


class _TlsEndpoint:
    """Shared plumbing: record stream parsing and application data callbacks.

    The endpoint ends once — ``close`` (which a failure of its own goes
    through), or the TCP connection's FIN or failure — and at most one of
    ``on_close`` / ``on_error`` fires for it.  Each of those three places
    reads the hook it is about to call, drops every hook the endpoint was
    given (inline: they are on every connection's path, and a helper would
    be a call more on each) and then calls the one it read, so a finished
    endpoint holds nothing of the session or probe above it.  It keeps
    ``tcp``, whose own teardown drops the bound methods that pointed back
    up here.
    """

    def __init__(self, tcp: SimTcpConnection) -> None:
        self.tcp = tcp
        self.stream = RecordStream()
        self.negotiated_version: Optional[str] = None
        self.negotiated_alpn: Optional[str] = None
        self.established = False
        self.on_application_data: Optional[Callable[[bytes], None]] = None
        self.on_error: Optional[Callable[[Exception], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self._on_established: Optional[Callable] = None
        self.handshake_bytes = 0
        tcp.on_data = self._on_tcp_data
        tcp.on_close = self._on_tcp_close
        tcp.on_error = self._on_tcp_error

    @property
    def loop(self):
        assert self.tcp.host.network is not None
        return self.tcp.host.network.loop

    @property
    def closed(self) -> bool:
        """The TCP connection underneath is gone: writes would be dropped."""
        return self.tcp.state != self.tcp.ESTABLISHED

    def send_application(self, data: bytes) -> None:
        raise NotImplementedError

    def _send_record(self, content_type: int, body: bytes) -> None:
        if self.tcp.state != self.tcp.ESTABLISHED:
            # The connection went away under a scheduled protocol action
            # (e.g. the client closed right after a 0-RTT response while a
            # Finished was still queued behind a crypto delay).  Dropping is
            # what a real stack's teardown does to pending writes.
            return
        if content_type == CONTENT_HANDSHAKE:
            self.handshake_bytes += len(body)
        self.tcp.send(wrap_record(content_type, body))

    def _on_tcp_data(self, data: bytes) -> None:
        try:
            records = self.stream.feed(data)
        except Exception as exc:  # malformed record layer
            self._fail(TlsHandshakeError(str(exc)))
            return
        for content_type, body in records:
            if content_type == CONTENT_ALERT:
                self._fail(TlsHandshakeError(f"fatal alert: {body.decode('ascii', 'replace')}"))
                return
            if content_type == CONTENT_APPLICATION_DATA:
                self._handle_application(body)
            elif content_type == CONTENT_HANDSHAKE:
                self.handshake_bytes += len(body)
                try:
                    for msg_type, payload in _decode_handshakes(body):
                        self._handle_handshake(msg_type, payload)
                except TlsHandshakeError as exc:
                    self._fail(exc)
                    return

    def _handle_application(self, body: bytes) -> None:
        if self.on_application_data is not None:
            self.on_application_data(body)

    def _handle_handshake(self, msg_type: int, payload: bytes) -> None:
        raise NotImplementedError

    def _refuse(self, reason: str) -> None:
        """Abort the handshake: a fatal alert to the peer, then close."""
        try:
            self._send_record(CONTENT_ALERT, reason.encode("ascii"))
        except Exception:
            pass
        self.close()

    def _fail(self, exc: Exception) -> None:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("tls.failures", reason=type(exc).__name__)
        callback = self.on_error
        self.close()
        if callback is not None:
            callback(exc)

    def _on_tcp_close(self) -> None:
        callback = self.on_close
        self.on_application_data = self.on_close = self.on_error = None
        self._on_established = None
        if callback is not None:
            callback()

    def _on_tcp_error(self, exc: Exception) -> None:
        callback = self.on_error
        self.on_application_data = self.on_close = self.on_error = None
        self._on_established = None
        if callback is not None:
            callback(exc)

    def close(self) -> None:
        self.on_application_data = self.on_close = self.on_error = None
        self._on_established = None
        self.tcp.close()


class TlsClientConnection(_TlsEndpoint):
    """Client side of a simulated TLS connection.

    Create over an **established** TCP connection; ``on_established(self)``
    fires when application data may flow (for 0-RTT that is immediate).
    """

    def __init__(
        self,
        tcp: SimTcpConnection,
        server_name: str,
        config: Optional[TlsClientConfig] = None,
        on_established: Optional[Callable[["TlsClientConnection"], None]] = None,
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        super().__init__(tcp)
        self.server_name = server_name
        self.config = config or TlsClientConfig()
        self.on_error = on_error
        self._on_established = on_established
        self._app_queue: List[bytes] = []
        self._early_sent: List[bytes] = []
        self._can_send_app = False
        self.used_early_data = False
        self.resumed = False
        self.handshake_started_at = self.loop.now
        self.handshake_completed_at: Optional[float] = None
        self._start()

    def _start(self) -> None:
        ticket: Optional[SessionTicket] = None
        cache = self.config.session_cache
        if cache is not None:
            ticket = cache.lookup(self.server_name, self.loop.now)
        early_replay = False
        if ticket is not None:
            if (
                self.config.enable_early_data
                and ticket.version == "1.3"
                and ticket.allows_early_data
            ):
                self.used_early_data = True
                # Anti-replay filter verdict, drawn client-side from the
                # measurement RNG (see TlsClientConfig docstring).
                early_replay = (
                    self.config.early_data_reject_p > 0.0
                    and self.config.early_data_rng is not None
                    and self.config.early_data_rng.random()
                    < self.config.early_data_reject_p
                )
        hello = _encode_client_hello(
            ClientHello(
                versions=tuple(self.config.versions),
                sni=self.server_name,
                alpn=tuple(self.config.alpn),
                ticket_id=ticket.ticket_id if ticket is not None else None,
                ticket_version=ticket.version if ticket is not None else None,
                early_data=self.used_early_data,
                early_replay=early_replay,
            )
        )

        def send_hello() -> None:
            self._send_record(CONTENT_HANDSHAKE, hello)
            if self.used_early_data:
                # 0-RTT: application data may ride immediately behind the CH.
                self._can_send_app = True
                self._flush_app_queue()
                self._mark_established()

        self.loop.call_later(self.config.crypto_delay_ms, send_hello)

    def send_application(self, data: bytes) -> None:
        """Send application bytes, queueing until the handshake permits."""
        if self._can_send_app:
            if self.used_early_data and self.negotiated_version is None:
                # Still in the 0-RTT window: remember for possible replay.
                self._early_sent.append(data)
            self._send_record(CONTENT_APPLICATION_DATA, data)
        else:
            self._app_queue.append(data)

    def _flush_app_queue(self) -> None:
        queue, self._app_queue = self._app_queue, []
        for data in queue:
            # Route through send_application so 0-RTT data is recorded for
            # replay in case the server rejects early data.
            self.send_application(data)

    def _mark_established(self) -> None:
        if self.established:
            return
        self.established = True
        self.handshake_completed_at = self.loop.now
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc(
                "tls.handshakes",
                version=self.negotiated_version or "0rtt-pending",
                resumed=self.resumed,
            )
            metrics.inc("tls.handshake_bytes", self.handshake_bytes)
            duration = self.handshake_duration_ms
            if duration is not None:
                metrics.observe("tls.handshake_ms", duration)
        callback = self._on_established
        self._on_established = None
        if callback is not None:
            callback(self)

    def _handle_handshake(self, msg_type: int, payload: bytes) -> None:
        if msg_type == SERVER_HELLO:
            hello = _decode_server_hello(payload)
            version = hello.version
            # The client's own offered string, not the fresh one decoded per
            # handshake: every record of a campaign shares one object.
            for offered in self.config.versions:
                if offered == version:
                    version = offered
                    break
            self.negotiated_version = version
            self.negotiated_alpn = hello.alpn
            self.resumed = hello.resumed
            if self.used_early_data and not hello.early_data_accepted:
                # Server rejected 0-RTT: everything sent early was discarded
                # by the server, so replay it once the handshake completes.
                self.used_early_data = False
                self._can_send_app = False
                self.established = False
                self._app_queue = self._early_sent + self._app_queue
            self._early_sent = []
        elif msg_type == FINISHED:
            def complete(flight: Optional[bytes]) -> None:
                if flight is not None:
                    self._send_record(CONTENT_HANDSHAKE, flight)
                self._can_send_app = True
                self._flush_app_queue()
                self._mark_established()

            if self.negotiated_version == "1.3":
                # Server Finished ends its first flight; answer with ours.
                # Full handshakes validate the certificate chain first.
                delay = self.config.crypto_delay_ms
                if not self.resumed:
                    delay += self.config.cert_verify_ms
                self.loop.call_later(delay, complete, _FINISHED)
            elif self.resumed:
                # TLS 1.2 abbreviated handshake: answer CCS + Finished.
                self.loop.call_later(self.config.crypto_delay_ms, complete, _CCS_FINISHED)
            elif _decode_finished(payload):
                # TLS 1.2 full handshake: our Finished already went out in the
                # second flight; the server's final Finished unlocks app data.
                complete(None)
        elif msg_type == SERVER_HELLO_DONE:
            # TLS 1.2 full handshake: send CKE + CCS + Finished, wait for
            # the server's Finished (which carries final=True).
            self.loop.call_later(
                self.config.crypto_delay_ms + self.config.cert_verify_ms,
                self._send_record,
                CONTENT_HANDSHAKE,
                _KEY_EXCHANGE_CCS_FINISHED,
            )
        elif msg_type == CHANGE_CIPHER_SPEC:
            pass  # timing carried by the Finished that follows
        elif msg_type == NEW_SESSION_TICKET:
            cache = self.config.session_cache
            if cache is not None:
                ticket = _decode_new_session_ticket(payload)
                cache.store(
                    SessionTicket(
                        ticket_id=ticket.ticket_id,
                        server_name=self.server_name,
                        version=ticket.version,
                        allows_early_data=ticket.early_data,
                        issued_at_ms=self.loop.now,
                        lifetime_ms=ticket.lifetime_ms,
                    )
                )
        elif msg_type == CERTIFICATE:
            pass  # size effect only

    @property
    def handshake_duration_ms(self) -> Optional[float]:
        if self.handshake_completed_at is None:
            return None
        return self.handshake_completed_at - self.handshake_started_at


class TlsServerConnection(_TlsEndpoint):
    """Server side of a simulated TLS connection (wraps an accepted TCP conn)."""

    def __init__(
        self,
        tcp: SimTcpConnection,
        config: Optional[TlsServerConfig] = None,
        on_established: Optional[Callable[["TlsServerConnection"], None]] = None,
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        super().__init__(tcp)
        self.config = config or TlsServerConfig()
        self.on_error = on_error
        self._on_established = on_established
        self.client_sni: Optional[str] = None
        self.resumed = False
        self.early_data_accepted = False
        self._tickets_issued: Dict[int, bool] = {}
        self._early_buffer: List[bytes] = []

    def send_application(self, data: bytes) -> None:
        self._send_record(CONTENT_APPLICATION_DATA, data)

    def _handle_application(self, body: bytes) -> None:
        if not self.established and not self.early_data_accepted:
            if self.negotiated_version is None:
                # Data raced ahead of the ClientHello decision: buffer it and
                # deliver (or discard) once the hello is processed.
                self._early_buffer.append(body)
            # else: rejected early data — discard, the client will replay.
            return
        super()._handle_application(body)

    def _handle_handshake(self, msg_type: int, payload: bytes) -> None:
        if msg_type == CLIENT_HELLO:
            self._handle_client_hello(_decode_client_hello(payload))
        elif msg_type == FINISHED:
            self._client_finished()
        elif msg_type in (CLIENT_KEY_EXCHANGE, CHANGE_CIPHER_SPEC):
            pass

    def _handle_client_hello(self, hello: ClientHello) -> None:
        if self.tcp.host.impairments.tls_failure:
            # Fault window: the server cannot complete handshakes (expired
            # certificate, broken key material); abort with a fatal alert.
            self._refuse("internal_error")
            return
        self.client_sni = hello.sni
        version = next((v for v in self.config.versions if v in hello.versions), None)
        if version is None:
            self._refuse("protocol_version")
            return
        alpn = next((a for a in self.config.alpn_preference if a in hello.alpn), None)
        if hello.alpn and alpn is None:
            self._refuse("no_application_protocol")
            return
        self.negotiated_version = version
        self.negotiated_alpn = alpn
        self.resumed = (
            self.tcp.host.tls_tickets.get(hello.ticket_id, 0.0) > self.loop.now
            and hello.ticket_version == version
        )
        wants_early = hello.early_data and not hello.early_replay
        self.early_data_accepted = (
            wants_early and self.resumed and version == "1.3" and self.config.allow_early_data
        )
        buffered, self._early_buffer = self._early_buffer, []
        if self.early_data_accepted:
            for body in buffered:
                super()._handle_application(body)
        # else: buffered 0-RTT data is discarded; the client replays it.

        def send_flight() -> None:
            flight = _encode_server_hello(
                ServerHello(version, alpn, self.resumed, self.early_data_accepted)
            )
            if version == "1.3":
                flight += _ENCRYPTED_EXTENSIONS
                if not self.resumed:
                    flight += _encode_handshake(
                        CERTIFICATE, b"", self.config.cert_chain_bytes
                    )
                flight += _FINISHED
                self._send_record(CONTENT_HANDSHAKE, flight)
                if self.early_data_accepted:
                    # Early data is usable now; the server may answer without
                    # waiting for the client Finished.
                    self._mark_established()
            else:  # TLS 1.2
                if self.resumed:
                    flight += _CCS_FINISHED_FINAL
                else:
                    flight += _encode_handshake(
                        CERTIFICATE, b"", self.config.cert_chain_bytes
                    )
                    flight += _SERVER_HELLO_DONE
                self._send_record(CONTENT_HANDSHAKE, flight)

        self.loop.call_later(self.config.crypto_delay_ms, send_flight)

    def _client_finished(self) -> None:
        if self.negotiated_version == "1.2" and not self.resumed:
            # Answer with CCS + Finished(final), completing the 2-RTT handshake.
            def final_flight() -> None:
                self._send_record(CONTENT_HANDSHAKE, _CCS_FINISHED_FINAL)
                self._mark_established()
                self._maybe_issue_ticket()

            self.loop.call_later(self.config.crypto_delay_ms, final_flight)
            return
        self._mark_established()
        self._maybe_issue_ticket()

    def _mark_established(self) -> None:
        if self.established:
            return
        self.established = True
        callback = self._on_established
        self._on_established = None
        if callback is not None:
            callback(self)

    def _maybe_issue_ticket(self) -> None:
        if not self.config.issue_tickets or self.negotiated_version is None:
            return
        ticket = SessionTicket.issue(
            server_name=self.client_sni or "",
            version=self.negotiated_version,
            allows_early_data=self.config.allow_early_data
            and self.negotiated_version == "1.3",
            now_ms=self.loop.now,
            lifetime_ms=self.config.ticket_lifetime_ms,
        )
        register_ticket(self.tcp.host.tls_tickets, ticket)
        self._send_record(
            CONTENT_HANDSHAKE,
            _encode_new_session_ticket(
                NewSessionTicket(
                    ticket.ticket_id,
                    ticket.version,
                    ticket.allows_early_data,
                    ticket.lifetime_ms,
                )
            ),
        )
