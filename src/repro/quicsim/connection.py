"""QUIC client/server connections over simulated UDP.

Handshake timing (the part that matters for DoQ measurements):

=====================  ==========================================  ======
Mode                   Flights                                     RTTs
=====================  ==========================================  ======
Fresh                  Initial → (ServerHello+cert flight) → Fin   1
Resumed + 0-RTT        Initial+app → flight+response               0
=====================  ==========================================  ======

After the handshake, each request/response rides its own bidirectional
stream (DoQ's model), so a fresh DoQ query completes in ~2 × RTT and a
0-RTT resumed query in ~1 × RTT.

Loss recovery is PTO-style: any datagram the network drops is
retransmitted after a timeout with exponential backoff (the simulator
reports loss to the sender, standing in for ack-elicited detection).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConnectTimeout, SocketError
from repro.netsim.host import Host
from repro.netsim.packet import Datagram
from repro.netsim.sockets import SimUdpSocket
from repro.obs import get_metrics
from repro.quicsim.packets import (
    INITIAL_MIN_BYTES,
    KIND_HANDSHAKE,
    KIND_INITIAL,
    KIND_ONE_RTT,
    QuicPacketError,
    crypto_frame,
    decode_packet,
    encode_packet,
    stream_frame,
    stream_frame_data,
)
from repro.tlssim.session import SessionCache, SessionTicket, register_ticket

_conn_ids = itertools.count(1)

#: Initial probe timeout for lost datagrams (ms) and retry budget.
PTO_INITIAL_MS = 300.0
MAX_SEND_ATTEMPTS = 5

#: Stream payload bytes per frame.  Frame data is hex-encoded inside the
#: JSON body (2 chars/byte), so 550 payload bytes keep the whole packet
#: under the datagram ceiling with framing overhead to spare.
STREAM_CHUNK = 550

#: Simulated certificate flight: characters of padding in the cert frame
#: (spans two datagrams, like a real ~2.8 kB chain).
CERT_PAD_CHARS = 2200


@dataclass
class QuicConfig:
    """Shared client/server knobs.

    ``early_data_reject_p`` models the server's 0-RTT anti-replay filter:
    with this probability an early-data attempt is flagged as a replay in
    the client hello and the server falls back to the 1-RTT resumed path.
    The draw comes from ``early_data_rng`` (the measurement's derived
    RNG) so verdicts are deterministic and shard/process independent —
    server-side ticket/connection ids are process-global counters and
    must never influence behaviour.
    """

    crypto_delay_ms: float = 0.4
    session_cache: Optional[SessionCache] = None  # client side
    enable_early_data: bool = True
    allow_early_data: bool = True  # server side
    issue_tickets: bool = True
    connect_timeout_ms: float = 10_000.0
    #: Client-side certificate-chain validation cost, paid once per *full*
    #: handshake; resumed handshakes (PSK) skip it.
    cert_verify_ms: float = 0.0
    early_data_reject_p: float = 0.0
    early_data_rng: Optional[Any] = None


class _StreamAssembler:
    """Per-stream reassembly: contiguous delivery through FIN."""

    def __init__(self) -> None:
        self.chunks: Dict[int, bytes] = {}
        self.fin_end: Optional[int] = None

    def add(self, offset: int, data: bytes, fin: bool) -> None:
        self.chunks[offset] = data
        if fin:
            self.fin_end = offset + len(data)

    def complete(self) -> Optional[bytes]:
        if self.fin_end is None:
            return None
        out = bytearray()
        cursor = 0
        while cursor < self.fin_end:
            chunk = self.chunks.get(cursor)
            if chunk is None:
                return None
            out += chunk
            cursor += len(chunk)
        return bytes(out)


class _QuicEndpoint:
    """Shared plumbing: packet sending with PTO retransmission."""

    def __init__(self, host: Host) -> None:
        self.host = host
        self._packet_numbers = itertools.count(0)
        self.closed = False

    @property
    def _network(self):
        assert self.host.network is not None, f"{self.host.name} not attached"
        return self.host.network

    @property
    def _loop(self):
        return self._network.loop

    def _addressing(self) -> Tuple[str, int, str, int]:
        raise NotImplementedError

    def _send_packet(
        self, kind: int, conn_id: int, frames: List[Dict[str, Any]], pad_to: int = 0
    ) -> None:
        if self.closed:
            return
        wire = encode_packet(kind, conn_id, next(self._packet_numbers), frames, pad_to)
        self._send_datagram(wire, attempts_left=MAX_SEND_ATTEMPTS, pto_ms=PTO_INITIAL_MS)

    def _send_datagram(self, wire: bytes, attempts_left: int, pto_ms: float) -> None:
        if self.closed:
            return
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("quic.datagrams_sent")
        if self._network.transmit(self.host, Datagram(*self._addressing(), wire)):
            return
        if self.closed or attempts_left <= 1:
            return
        if metrics.enabled:
            metrics.inc("quic.retransmits")
        self._loop.call_later(
            pto_ms, self._send_datagram, wire, attempts_left - 1, pto_ms * 2.0
        )


class QuicClientConnection(_QuicEndpoint):
    """Client end of a QUIC connection (one per resolver, reusable)."""

    def __init__(
        self,
        host: Host,
        dst_ip: str,
        dst_port: int,
        server_name: str,
        config: Optional[QuicConfig] = None,
        on_established: Optional[Callable[["QuicClientConnection"], None]] = None,
        on_error: Optional[Callable[[Exception], None]] = None,
    ) -> None:
        super().__init__(host)
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.server_name = server_name
        self.config = config or QuicConfig()
        self.conn_id = next(_conn_ids)
        self.established = False
        self.used_early_data = False
        self.resumed = False
        self.on_error = on_error
        self._on_established = on_established
        self._socket = SimUdpSocket(host)
        self._socket.on_datagram = self._on_datagram
        self._next_stream_id = 0
        self._responses: Dict[int, Callable[[bytes], None]] = {}
        self._assemblers: Dict[int, _StreamAssembler] = {}
        self._queued_streams: List[Tuple[bytes, Callable[[bytes], None]]] = []
        self._early_streams: List[Tuple[bytes, Callable[[bytes], None]]] = []
        self._can_send = False
        self._timer = self._loop.call_later(
            self.config.connect_timeout_ms, self._connect_timeout
        )
        self._start()

    def _addressing(self) -> Tuple[str, int, str, int]:
        return self.host.ip, self._socket.port, self.dst_ip, self.dst_port

    # -- establishment -----------------------------------------------------------

    def _start(self) -> None:
        ticket: Optional[SessionTicket] = None
        cache = self.config.session_cache
        if cache is not None:
            ticket = cache.lookup(self.server_name, self._loop.now)
        hello: Dict[str, Any] = {"sni": self.server_name}
        if ticket is not None:
            hello["ticket"] = ticket.ticket_id
            if self.config.enable_early_data and ticket.allows_early_data:
                hello["early"] = True
                self.used_early_data = True
                if (
                    self.config.early_data_reject_p > 0.0
                    and self.config.early_data_rng is not None
                    and self.config.early_data_rng.random()
                    < self.config.early_data_reject_p
                ):
                    # Anti-replay verdict drawn client-side (see QuicConfig).
                    hello["early_replay"] = True

        def send_initial() -> None:
            self._send_packet(
                KIND_INITIAL, self.conn_id,
                [crypto_frame("client_hello", hello, pad_chars=120)],
                pad_to=INITIAL_MIN_BYTES,
            )
            if self.used_early_data:
                self._can_send = True
                for data, on_response in self._queued_streams:
                    self._early_streams.append((data, on_response))
                    self._send_stream(data, on_response)
                self._queued_streams = []
                self._mark_established()

        self._loop.call_later(self.config.crypto_delay_ms, send_initial)

    def _connect_timeout(self) -> None:
        if not self.established:
            self._fail(ConnectTimeout(f"QUIC connect to {self.dst_ip}:{self.dst_port} timed out"))
        elif self.used_early_data and self._responses:
            # 0-RTT marked us established optimistically; a silent peer
            # still has to surface as a timeout for outstanding streams.
            self._fail(ConnectTimeout(f"QUIC peer {self.dst_ip} never answered"))

    def _mark_established(self) -> None:
        if self.established:
            return
        self.established = True
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc(
                "quic.handshakes",
                resumed=self.resumed,
                early_data=self.used_early_data,
            )
        callback = self._on_established
        self._on_established = None
        if callback is not None:
            callback(self)

    # -- streams -----------------------------------------------------------------

    def open_stream(self, data: bytes, on_response: Callable[[bytes], None]) -> None:
        """Send one request; ``on_response`` gets the peer's full stream."""
        if self.closed:
            raise SocketError("stream on closed QUIC connection")
        if not self._can_send:
            self._queued_streams.append((data, on_response))
            return
        self._send_stream(data, on_response)

    def _send_stream(self, data: bytes, on_response: Callable[[bytes], None]) -> None:
        stream_id = self._next_stream_id
        self._next_stream_id += 4
        self._responses[stream_id] = on_response
        for offset in range(0, len(data), STREAM_CHUNK):
            chunk = data[offset : offset + STREAM_CHUNK]
            fin = offset + len(chunk) >= len(data)
            self._send_packet(
                KIND_ONE_RTT, self.conn_id,
                [stream_frame(stream_id, offset, chunk, fin)],
            )

    # -- inbound ----------------------------------------------------------------

    def _on_datagram(self, dgram: Datagram) -> None:
        if self.closed:
            return
        try:
            packet = decode_packet(dgram.payload)
        except QuicPacketError:
            return
        if packet.conn_id != self.conn_id:
            return
        for frame in packet.frames:
            kind = frame.get("type")
            if kind == "crypto":
                self._handle_crypto(frame)
            elif kind == "stream":
                self._handle_stream(frame)
            elif kind == "ticket":
                self._handle_ticket(frame)

    def _handle_crypto(self, frame: Dict[str, Any]) -> None:
        if frame.get("stage") != "server_hello":
            return
        self.resumed = bool(frame.get("resumed"))
        early_accepted = bool(frame.get("early_accepted"))
        if self.used_early_data and not early_accepted:
            # Replay everything we optimistically sent as 0-RTT.
            self.used_early_data = False
            replay = self._early_streams
            self._early_streams = []
            for data, on_response in replay:
                self._send_stream(data, on_response)
        else:
            self._early_streams = []

        def finish() -> None:
            self._send_packet(
                KIND_HANDSHAKE, self.conn_id, [crypto_frame("finished", {})]
            )
            self._can_send = True
            queued, self._queued_streams = self._queued_streams, []
            for data, on_response in queued:
                self._send_stream(data, on_response)
            self._timer.cancel()
            self._mark_established()

        # Full handshakes validate the certificate chain before finishing;
        # resumed ones authenticated via the PSK and skip the cost.
        delay = self.config.crypto_delay_ms
        if not self.resumed:
            delay += self.config.cert_verify_ms
        self._loop.call_later(delay, finish)

    def _handle_stream(self, frame: Dict[str, Any]) -> None:
        stream_id = int(frame.get("id", -1))
        assembler = self._assemblers.setdefault(stream_id, _StreamAssembler())
        assembler.add(int(frame.get("off", 0)), stream_frame_data(frame), bool(frame.get("fin")))
        complete = assembler.complete()
        if complete is None:
            return
        del self._assemblers[stream_id]
        callback = self._responses.pop(stream_id, None)
        if callback is not None:
            callback(complete)

    def _handle_ticket(self, frame: Dict[str, Any]) -> None:
        cache = self.config.session_cache
        if cache is None:
            return
        cache.store(
            SessionTicket(
                ticket_id=int(frame["ticket"]),
                server_name=self.server_name,
                version="quic",
                allows_early_data=bool(frame.get("early")),
                issued_at_ms=self._loop.now,
            )
        )

    # -- teardown -----------------------------------------------------------------

    def _fail(self, exc: Exception) -> None:
        callback = self.on_error
        self.close()
        if callback is not None:
            callback(exc)

    def close(self) -> None:
        """Tell the peer, stop the timer, and let go of every callback given.

        The stream callbacks belong to whoever holds this connection, so a
        closed connection that kept the unanswered ones would keep its owner
        in a reference cycle (DESIGN.md, "Object lifetime").
        """
        if self.closed:
            return
        self._send_packet(KIND_ONE_RTT, self.conn_id, [{"type": "close"}])
        self.closed = True
        self._timer.cancel()
        self._socket.close()
        self.on_error = self._on_established = None
        self._responses = {}
        self._queued_streams = []
        self._early_streams = []


class _QuicServerConnection(_QuicEndpoint):
    """Server-side state for one client connection."""

    def __init__(self, listener: "QuicServerListener", conn_id: int,
                 local_ip: str, peer_ip: str, peer_port: int) -> None:
        super().__init__(listener.host)
        self.listener = listener
        self.conn_id = conn_id
        self.local_ip = local_ip
        self.peer_ip = peer_ip
        self.peer_port = peer_port
        self.established = False
        self.early_accepted = False
        self._hello_seen = False
        self._assemblers: Dict[int, _StreamAssembler] = {}
        self._early_buffer: List[Tuple[int, bytes]] = []

    def _addressing(self) -> Tuple[str, int, str, int]:
        return self.local_ip, self.listener.port, self.peer_ip, self.peer_port

    def handle_packet(self, packet) -> None:
        if self.closed:
            return
        for frame in packet.frames:
            kind = frame.get("type")
            if kind == "crypto":
                self._handle_crypto(frame)
            elif kind == "stream":
                self._handle_stream(frame)
            elif kind == "close":
                self.closed = True
                self.listener._drop(self.conn_id)

    def _handle_crypto(self, frame: Dict[str, Any]) -> None:
        if frame.get("stage") == "client_hello" and not self._hello_seen:
            self._hello_seen = True
            config = self.listener.config
            resumed = self.host.quic_tickets.get(frame.get("ticket"), 0.0) > self._loop.now
            wants_early = bool(frame.get("early")) and not bool(
                frame.get("early_replay")
            )
            self.early_accepted = wants_early and resumed and config.allow_early_data
            if self.early_accepted:
                self.established = True
                buffered, self._early_buffer = self._early_buffer, []
                for stream_id, data in buffered:
                    self.listener._dispatch(self, stream_id, data)
            elif not self.early_accepted:
                self._early_buffer = []  # rejected 0-RTT data is discarded

            def send_flight() -> None:
                frames = [
                    crypto_frame(
                        "server_hello",
                        {"resumed": resumed, "early_accepted": self.early_accepted},
                        pad_chars=80,
                    )
                ]
                self._send_packet(KIND_HANDSHAKE, self.conn_id, frames)
                if not resumed:
                    # Certificate flight spans two datagrams, like a real chain.
                    half = CERT_PAD_CHARS // 2
                    for _ in range(2):
                        self._send_packet(
                            KIND_HANDSHAKE, self.conn_id,
                            [crypto_frame("certificate", {}, pad_chars=half)],
                        )
                if config.issue_tickets:
                    ticket = SessionTicket.issue(
                        server_name="", version="quic",
                        allows_early_data=config.allow_early_data,
                        now_ms=self._loop.now,
                    )
                    register_ticket(self.host.quic_tickets, ticket)
                    self._send_packet(
                        KIND_ONE_RTT, self.conn_id,
                        [{"type": "ticket", "ticket": ticket.ticket_id,
                          "early": config.allow_early_data}],
                    )
                self.established = True

            self._loop.call_later(config.crypto_delay_ms, send_flight)
        elif frame.get("stage") == "finished":
            self.established = True

    def _handle_stream(self, frame: Dict[str, Any]) -> None:
        stream_id = int(frame.get("id", -1))
        assembler = self._assemblers.setdefault(stream_id, _StreamAssembler())
        assembler.add(int(frame.get("off", 0)), stream_frame_data(frame), bool(frame.get("fin")))
        complete = assembler.complete()
        if complete is None:
            return
        del self._assemblers[stream_id]
        if not self.established and not self._hello_seen:
            # 0-RTT data racing ahead of the hello: buffer until decided.
            self._early_buffer.append((stream_id, complete))
            return
        if not self.established and not self.early_accepted:
            return  # rejected early data: drop, client replays
        self.listener._dispatch(self, stream_id, complete)

    def respond_stream(self, stream_id: int, data: bytes) -> None:
        """Send the response on the client's stream and close it."""
        for offset in range(0, len(data), STREAM_CHUNK):
            chunk = data[offset : offset + STREAM_CHUNK]
            fin = offset + len(chunk) >= len(data)
            self._send_packet(
                KIND_ONE_RTT, self.conn_id,
                [stream_frame(stream_id, offset, chunk, fin)],
            )
        if not data:
            self._send_packet(
                KIND_ONE_RTT, self.conn_id, [stream_frame(stream_id, 0, b"", True)]
            )


class QuicServerListener:
    """Accepts QUIC connections on one UDP port.

    ``on_stream(conn, stream_id, data)`` fires per completed request
    stream; answer with ``conn.respond_stream(stream_id, response)``.
    """

    def __init__(
        self,
        host: Host,
        port: int,
        on_stream: Callable[[_QuicServerConnection, int, bytes], None],
        config: Optional[QuicConfig] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.config = config or QuicConfig()
        self._on_stream = on_stream
        self._connections: Dict[int, _QuicServerConnection] = {}
        self._early_packets: Dict[int, List[Any]] = {}
        self._max_conn_id_seen = 0
        self.streams_served = 0
        host.bind_udp(port, self._on_datagram)

    def _on_datagram(self, dgram: Datagram, _host: Host) -> None:
        try:
            packet = decode_packet(dgram.payload)
        except QuicPacketError:
            return
        conn = self._connections.get(packet.conn_id)
        if conn is None:
            if packet.kind != KIND_INITIAL:
                # Per-packet jitter can reorder a 0-RTT stream packet ahead
                # of its Initial.  Buffer packets for connections we have
                # not met yet (ids are monotonic, so anything above the
                # high-water mark is a future connection, not a dead one)
                # and replay them once the Initial arrives.
                if (
                    packet.kind == KIND_ONE_RTT
                    and packet.conn_id > self._max_conn_id_seen
                ):
                    self._early_packets.setdefault(packet.conn_id, []).append(packet)
                return
            conn = _QuicServerConnection(
                self, packet.conn_id,
                local_ip=dgram.dst_ip, peer_ip=dgram.src_ip, peer_port=dgram.src_port,
            )
            self._connections[packet.conn_id] = conn
            self._max_conn_id_seen = max(self._max_conn_id_seen, packet.conn_id)
            conn.handle_packet(packet)
            for early in self._early_packets.pop(packet.conn_id, ()):
                conn.handle_packet(early)
            return
        conn.handle_packet(packet)

    def _dispatch(self, conn: _QuicServerConnection, stream_id: int, data: bytes) -> None:
        self.streams_served += 1
        self._on_stream(conn, stream_id, data)

    def _drop(self, conn_id: int) -> None:
        self._connections.pop(conn_id, None)

    @property
    def connection_count(self) -> int:
        return len(self._connections)
