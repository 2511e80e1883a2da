"""Packet classes carried by the simulated network.

The simulator is message-granular rather than byte-granular: a
:class:`Datagram` models one UDP datagram or ICMP message, while a
:class:`Segment` models one TCP segment (including the control segments of
the three-way handshake).  Payloads are real ``bytes`` — DNS messages on the
wire are genuine RFC 1035 encodings produced by :mod:`repro.dnswire`.
"""

from __future__ import annotations

import itertools
from typing import Optional

_next_packet_id = itertools.count(1).__next__


class Datagram:
    """A UDP datagram (or ICMP message when ``protocol == "icmp"``)."""

    __slots__ = ("src_ip", "src_port", "dst_ip", "dst_port", "payload", "protocol", "packet_id")

    def __init__(
        self,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        payload: bytes,
        protocol: str = "udp",
        packet_id: Optional[int] = None,
    ) -> None:
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.payload = payload
        self.protocol = protocol
        self.packet_id = _next_packet_id() if packet_id is None else packet_id

    @property
    def size(self) -> int:
        """Payload size in bytes (headers are not modelled)."""
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Datagram({self.protocol} {self.src_ip}:{self.src_port}->"
            f"{self.dst_ip}:{self.dst_port} len={len(self.payload)})"
        )


# TCP segment flags are modelled as simple strings for readability.
SYN = "SYN"
ACK = "ACK"
FIN = "FIN"
RST = "RST"
DATA = "DATA"


class Segment:
    """A TCP segment.

    ``conn_id`` ties the segment to a :class:`~repro.netsim.sockets.SimTcpConnection`
    pair; the simulator does not model sequence-number arithmetic, but it does
    model handshake round trips, MSS segmentation, and retransmission on loss,
    which are the components that matter for DNS-over-TCP/TLS/HTTPS timing.
    """

    __slots__ = (
        "src_ip", "src_port", "dst_ip", "dst_port", "flag", "conn_id", "payload", "seq", "packet_id",
    )

    def __init__(
        self,
        src_ip: str,
        src_port: int,
        dst_ip: str,
        dst_port: int,
        flag: str,
        conn_id: int,
        payload: bytes = b"",
        seq: int = 0,
        packet_id: Optional[int] = None,
    ) -> None:
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.flag = flag
        self.conn_id = conn_id
        self.payload = payload
        self.seq = seq
        self.packet_id = _next_packet_id() if packet_id is None else packet_id

    @property
    def size(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment({self.flag} {self.src_ip}:{self.src_port}->"
            f"{self.dst_ip}:{self.dst_port} conn={self.conn_id} "
            f"seq={self.seq} len={len(self.payload)})"
        )
