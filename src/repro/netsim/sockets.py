"""Simulated sockets: UDP datagrams and TCP byte-stream connections.

The TCP model captures everything that matters for request/response timing:

* a three-way handshake (SYN / SYN-ACK / ACK) costing one RTT before data,
  with exponential-backoff SYN retransmission and a connect timeout;
* MSS segmentation of application writes;
* in-order delivery to the application via sequence-number reassembly
  (per-packet jitter can reorder segments in flight);
* loss recovery by retransmission timeout, using a smoothed RTT estimate
  taken from the handshake;
* FIN/RST teardown, including RST-on-refused for closed ports.

It intentionally omits congestion control and flow control: encrypted DNS
exchanges are a handful of small messages, far below the bandwidth-delay
product of any path in the study.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.errors import (
    ConnectionRefused,
    ConnectionReset,
    ConnectTimeout,
    SocketError,
)
from repro.netsim.clock import Timer
from repro.netsim.host import Host
from repro.netsim.packet import Datagram, Segment

#: Maximum segment size for simulated TCP, bytes of payload per segment.
MSS = 1400

#: Initial SYN retransmission timeout (ms) and maximum attempt count,
#: mirroring common stack defaults (1 s initial RTO, exponential backoff).
SYN_RTO_MS = 1000.0
SYN_MAX_ATTEMPTS = 4

#: Floor for the data retransmission timeout (ms); Linux uses ~200 ms.
MIN_DATA_RTO_MS = 250.0
DATA_MAX_ATTEMPTS = 6

_conn_ids = itertools.count(1)


class SimUdpSocket:
    """A bound UDP socket on a simulated host.

    Assign :attr:`on_datagram` to receive inbound datagrams.  The socket
    stays bound until :meth:`close`, which also drops the hook: a closed
    socket delivers nothing and holds nothing of its owner.
    """

    def __init__(self, host: Host, port: Optional[int] = None) -> None:
        if host.network is None:
            raise SocketError(f"{host.name} is not attached to a network")
        self.host = host
        self.port = port if port is not None else host.allocate_port()
        self.on_datagram: Optional[Callable[[Datagram], None]] = None
        self._closed = False
        host.bind_udp(self.port, self._handle)

    def _handle(self, dgram: Datagram, _host: Host) -> None:
        if self.on_datagram is not None:
            self.on_datagram(dgram)

    def sendto(self, payload: bytes, dst_ip: str, dst_port: int) -> None:
        """Send one datagram; silently subject to path loss."""
        if self._closed:
            raise SocketError("sendto on closed UDP socket")
        host = self.host
        assert host.network is not None
        host.network.transmit(host, Datagram(host.ip, self.port, dst_ip, dst_port, payload))

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.on_datagram = None
            self.host.unbind_udp(self.port)

    @property
    def closed(self) -> bool:
        return self._closed


class SimTcpConnection:
    """One end of a simulated TCP connection.

    Client ends are created with :meth:`connect`; server ends are created by
    the host's segment dispatcher via :meth:`accept_from_syn`.

    Callback surface (assign after creation / in the acceptor):

    * ``on_data(bytes)`` — in-order application bytes;
    * ``on_close()`` — peer sent FIN;
    * ``on_error(exc)`` — connection failed (refused, reset, timed out).

    A connection ends once, by one of ``close``, ``abort``, the peer's FIN
    or a failure, and at most one of ``on_close`` / ``on_error`` fires for
    it.  Whichever way it ends it reads the hook it is about to call, drops
    every hook it was given, and then calls the one it read: the hooks are
    bound methods and closures of whatever sits on top of the connection
    and holds it, so a closed connection that kept them would keep that
    whole stack alive in a reference cycle (DESIGN.md, "Object lifetime").
    """

    # Connection states.
    SYN_SENT = "SYN_SENT"
    SYN_RECEIVED = "SYN_RECEIVED"
    ESTABLISHED = "ESTABLISHED"
    CLOSED = "CLOSED"

    def __init__(
        self,
        host: Host,
        local_ip: str,
        local_port: int,
        remote_ip: str,
        remote_port: int,
        conn_id: int,
        is_client: bool,
    ) -> None:
        if host.network is None:
            raise SocketError(f"{host.name} is not attached to a network")
        self.host = host
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.conn_id = conn_id
        self.is_client = is_client
        self.state = self.CLOSED

        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_error: Optional[Callable[[Exception], None]] = None

        self.srtt_ms: Optional[float] = None
        self.established_at: Optional[float] = None
        self.bytes_sent = 0
        self.bytes_received = 0

        self._send_seq = 0
        self._recv_next = 0
        self._reassembly: dict = {}
        # Timers only a handshake in progress needs; both are cancelled the
        # moment the connection is established or torn down.
        self._connect_timer: Optional[Timer] = None
        self._handshake_timer: Optional[Timer] = None
        self._on_established: Optional[Callable[["SimTcpConnection"], None]] = None
        self._handshake_sent_at: Optional[float] = None
        host.register_connection(self)

    # -- establishment -----------------------------------------------------

    @classmethod
    def connect(
        cls,
        host: Host,
        dst_ip: str,
        dst_port: int,
        on_established: Callable[["SimTcpConnection"], None],
        on_error: Optional[Callable[[Exception], None]] = None,
        timeout_ms: float = 10_000.0,
    ) -> "SimTcpConnection":
        """Open a client connection; ``on_established(conn)`` fires after the
        handshake completes (one RTT later, absent loss)."""
        conn = cls(
            host=host,
            local_ip=host.ip,
            local_port=host.allocate_port(),
            remote_ip=dst_ip,
            remote_port=dst_port,
            conn_id=next(_conn_ids),
            is_client=True,
        )
        conn.state = cls.SYN_SENT
        conn._on_established = on_established
        conn.on_error = on_error
        loop = host.network.loop  # type: ignore[union-attr]
        conn._connect_timer = loop.call_later(timeout_ms, conn._connect_timed_out)
        conn._handshake_sent_at = loop.now
        conn._send_control("SYN", attempts_left=SYN_MAX_ATTEMPTS, rto_ms=SYN_RTO_MS)
        return conn

    @classmethod
    def accept_from_syn(
        cls,
        host: Host,
        syn: Segment,
        acceptor: Callable[["SimTcpConnection"], None],
    ) -> "SimTcpConnection":
        """Create the server end of a connection from an inbound SYN.

        ``local_ip`` is taken from the SYN's destination address, so servers
        behind an anycast address reply from that address.
        """
        conn = cls(
            host=host,
            local_ip=syn.dst_ip,
            local_port=syn.dst_port,
            remote_ip=syn.src_ip,
            remote_port=syn.src_port,
            conn_id=syn.conn_id,
            is_client=False,
        )
        conn.state = cls.SYN_RECEIVED
        conn._on_established = acceptor
        conn._handshake_sent_at = host.network.loop.now  # type: ignore[union-attr]
        conn._send_control("SYN-ACK", attempts_left=SYN_MAX_ATTEMPTS, rto_ms=SYN_RTO_MS)
        return conn

    def _connect_timed_out(self) -> None:
        if self.state in (self.SYN_SENT, self.SYN_RECEIVED):
            self._fail(ConnectTimeout(f"connect to {self.remote_ip}:{self.remote_port} timed out"))

    # -- sending ----------------------------------------------------------------

    def send(self, data: bytes) -> None:
        """Write application bytes; segmented at :data:`MSS` boundaries."""
        if self.state != self.ESTABLISHED:
            raise SocketError(f"send on {self.state} connection")
        if not data:
            return
        rto_ms = self._data_rto_ms()
        for offset in range(0, len(data), MSS):
            chunk = data[offset : offset + MSS]
            segment = Segment(
                self.local_ip,
                self.local_port,
                self.remote_ip,
                self.remote_port,
                "DATA",
                self.conn_id,
                chunk,
                self._send_seq,
            )
            self._send_seq += len(chunk)
            self._transmit_with_retry(segment, DATA_MAX_ATTEMPTS, rto_ms)
        self.bytes_sent += len(data)

    def close(self) -> None:
        """Send FIN (if established) and release local state."""
        if self.state == self.ESTABLISHED:
            fin = self._control_segment("FIN", seq=self._send_seq)
            assert self.host.network is not None
            self.host.network.transmit(self.host, fin)
        self._teardown()

    def abort(self) -> None:
        """Send RST and release local state."""
        if self.state != self.CLOSED:
            rst = self._control_segment("RST")
            assert self.host.network is not None
            self.host.network.transmit(self.host, rst)
        self._teardown()

    # -- segment handling --------------------------------------------------------

    def handle_segment(self, segment: Segment) -> None:
        """Dispatch one arriving segment (called by the host demux)."""
        flag = segment.flag
        if flag == "DATA":
            self._handle_data(segment)
        elif flag == "RST":
            self._handle_rst()
        elif flag == "SYN":
            # Duplicate SYN (retransmitted by the client): re-answer.
            if not self.is_client and self.state in (self.SYN_RECEIVED, self.ESTABLISHED):
                self._send_control_once("SYN-ACK")
        elif flag == "SYN-ACK":
            self._handle_syn_ack()
        elif flag == "ACK":
            self._handle_ack()
        elif flag == "FIN":
            self._handle_fin()

    def _handle_syn_ack(self) -> None:
        if not self.is_client or self.state != self.SYN_SENT:
            return
        now = self.host.network.loop.now  # type: ignore[union-attr]
        if self._handshake_sent_at is not None:
            self._rtt_sample(now - self._handshake_sent_at)
        self._send_control_once("ACK")
        self._become_established()

    def _handle_ack(self) -> None:
        if self.is_client or self.state != self.SYN_RECEIVED:
            return
        now = self.host.network.loop.now  # type: ignore[union-attr]
        if self._handshake_sent_at is not None:
            self._rtt_sample(now - self._handshake_sent_at)
        self._become_established()

    def _handle_data(self, segment: Segment) -> None:
        if self.state == self.SYN_RECEIVED:
            # The handshake ACK was reordered behind the first data segment;
            # data implies the peer is established.
            self._become_established()
        if self.state != self.ESTABLISHED:
            return
        payload = segment.payload
        if self._reassembly or segment.seq != self._recv_next:
            # Jitter reordered the flight: park the segment, then hand over
            # whatever has become contiguous.
            self._reassembly[segment.seq] = payload
            while self._recv_next in self._reassembly:
                payload = self._reassembly.pop(self._recv_next)
                self._recv_next += len(payload)
                self.bytes_received += len(payload)
                if self.on_data is not None:
                    self.on_data(payload)
                if self.state != self.ESTABLISHED:
                    break
            return
        # In order with nothing parked: straight to the application.
        self._recv_next += len(payload)
        self.bytes_received += len(payload)
        if self.on_data is not None:
            self.on_data(payload)

    def _handle_fin(self) -> None:
        if self.state == self.CLOSED:
            return
        callback = self.on_close
        self._teardown()
        if callback is not None:
            callback()

    def _handle_rst(self) -> None:
        if self.state == self.CLOSED:
            return
        if self.state == self.SYN_SENT:
            exc: Exception = ConnectionRefused(
                f"{self.remote_ip}:{self.remote_port} refused the connection"
            )
        else:
            exc = ConnectionReset(f"{self.remote_ip}:{self.remote_port} reset the connection")
        self._fail(exc)

    def _become_established(self) -> None:
        if self.state == self.ESTABLISHED:
            return
        self.state = self.ESTABLISHED
        self.established_at = self.host.network.loop.now  # type: ignore[union-attr]
        self._disarm()
        callback = self._on_established
        self._on_established = None
        if callback is not None:
            callback(self)

    # -- internals ------------------------------------------------------------

    def _rtt_sample(self, sample_ms: float) -> None:
        if self.srtt_ms is None:
            self.srtt_ms = sample_ms
        else:
            self.srtt_ms = 0.875 * self.srtt_ms + 0.125 * sample_ms

    def _data_rto_ms(self) -> float:
        if self.srtt_ms is None:
            return MIN_DATA_RTO_MS
        return max(MIN_DATA_RTO_MS, 2.0 * self.srtt_ms)

    def _control_segment(self, flag: str, seq: int = 0) -> Segment:
        """A control segment (no payload); ``send`` builds its own DATA segments."""
        return Segment(
            self.local_ip,
            self.local_port,
            self.remote_ip,
            self.remote_port,
            flag,
            self.conn_id,
            b"",
            seq,
        )

    def _send_control(self, flag: str, attempts_left: int, rto_ms: float) -> None:
        """Send a handshake segment with exponential-backoff retransmission."""
        segment = self._control_segment(flag)
        self._transmit_handshake(segment, attempts_left, rto_ms)

    def _send_control_once(self, flag: str) -> None:
        segment = self._control_segment(flag)
        assert self.host.network is not None
        self.host.network.transmit(self.host, segment)

    def _transmit_handshake(self, segment: Segment, attempts_left: int, rto_ms: float) -> None:
        if self.state not in (self.SYN_SENT, self.SYN_RECEIVED):
            return
        assert self.host.network is not None
        network = self.host.network
        network.transmit(self.host, segment)
        # Whether or not this copy survived, arm the retransmission timer;
        # establishment or teardown disarms it.
        self._handshake_timer = network.loop.call_later(
            rto_ms, self._retransmit_handshake, segment, attempts_left, rto_ms
        )

    def _retransmit_handshake(self, segment: Segment, attempts_left: int, rto_ms: float) -> None:
        if self.state not in (self.SYN_SENT, self.SYN_RECEIVED):
            return
        if attempts_left <= 1:
            self._fail(
                ConnectTimeout(
                    f"handshake with {self.remote_ip}:{self.remote_port} "
                    f"failed after {SYN_MAX_ATTEMPTS} attempts"
                )
            )
            return
        self._handshake_sent_at = self.host.network.loop.now  # type: ignore[union-attr]
        self._transmit_handshake(segment, attempts_left - 1, rto_ms * 2.0)

    def _transmit_with_retry(self, segment: Segment, attempts_left: int, rto_ms: float) -> None:
        """Transmit a data segment, retransmitting after RTO on loss."""
        network = self.host.network
        if network.transmit(self.host, segment):  # type: ignore[union-attr]
            return
        if self.state != self.ESTABLISHED:
            return
        if attempts_left <= 1:
            self._fail(
                ConnectionReset(
                    f"data to {self.remote_ip}:{self.remote_port} lost "
                    f"{DATA_MAX_ATTEMPTS} times"
                )
            )
            return
        network.loop.call_later(  # type: ignore[union-attr]
            rto_ms,
            self._transmit_with_retry,
            segment,
            attempts_left - 1,
            rto_ms * 2.0,
        )

    def _fail(self, exc: Exception) -> None:
        callback = self.on_error
        self._teardown()
        if callback is not None:
            callback(exc)

    def _teardown(self) -> None:
        self.state = self.CLOSED
        self._disarm()
        self.host.unregister_connection(self.conn_id)
        self._reassembly.clear()
        self.on_data = self.on_close = self.on_error = self._on_established = None

    def _disarm(self) -> None:
        """Cancel the handshake's timers; none may fire into what comes after."""
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        if self._handshake_timer is not None:
            self._handshake_timer.cancel()
            self._handshake_timer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "client" if self.is_client else "server"
        return (
            f"SimTcpConnection({role} {self.local_ip}:{self.local_port} <-> "
            f"{self.remote_ip}:{self.remote_port} state={self.state})"
        )
