"""Event trace recorder — a pcap-lite for the simulator.

Attach an :class:`EventTrace` to a :class:`~repro.netsim.network.Network`
and every packet send/loss/delivery is recorded with its virtual timestamp.
Used by tests to assert on protocol behaviour (e.g. "a fresh DoH query
crosses the wire exactly N times") and handy when debugging new protocols.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from repro.files import write_text
from repro.netsim.packet import Datagram, Segment

Packet = Union[Datagram, Segment]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulator event."""

    time_ms: float
    kind: str  # "sent" | "delivered" | "lost" | "unroutable"
    protocol: str  # "udp" | "tcp" | "icmp"
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    size: int
    flag: Optional[str] = None  # TCP flag, if a segment
    delay_ms: Optional[float] = None
    packet_id: int = 0

    def describe(self) -> str:
        """One-line human-readable rendering."""
        flag = f" {self.flag}" if self.flag else ""
        return (
            f"{self.time_ms:10.3f}ms {self.kind:<11} {self.protocol}{flag} "
            f"{self.src_ip}:{self.src_port} -> {self.dst_ip}:{self.dst_port} "
            f"({self.size}B)"
        )

    def to_json(self) -> str:
        """Compact JSON line (same convention as obs span export)."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


@dataclass
class EventTrace:
    """A bounded in-memory list of :class:`TraceEvent`."""

    max_events: int = 1_000_000
    events: List[TraceEvent] = field(default_factory=list)

    def record(self, time_ms: float, kind: str, packet: Packet, delay_ms: Optional[float] = None) -> None:
        if len(self.events) >= self.max_events:
            return
        if isinstance(packet, Segment):
            protocol: str = "tcp"
            flag: Optional[str] = packet.flag
        else:
            protocol = packet.protocol
            flag = None
        self.events.append(
            TraceEvent(
                time_ms=time_ms,
                kind=kind,
                protocol=protocol,
                src_ip=packet.src_ip,
                src_port=packet.src_port,
                dst_ip=packet.dst_ip,
                dst_port=packet.dst_port,
                size=packet.size,
                flag=flag,
                delay_ms=delay_ms,
                packet_id=packet.packet_id,
            )
        )

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def filter(self, kind: Optional[str] = None, protocol: Optional[str] = None) -> List[TraceEvent]:
        """Events matching the given kind and/or protocol."""
        out = self.events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if protocol is not None:
            out = [e for e in out if e.protocol == protocol]
        return list(out)

    def sent_count(self, protocol: Optional[str] = None) -> int:
        return len(self.filter(kind="sent", protocol=protocol))

    def by_protocol(self, kind: Optional[str] = None) -> Dict[str, int]:
        """Event counts keyed by protocol, optionally for one kind only."""
        counts: Dict[str, int] = {}
        for event in self.filter(kind=kind):
            counts[event.protocol] = counts.get(event.protocol, 0) + 1
        return dict(sorted(counts.items()))

    def between_ms(self, start_ms: float, end_ms: float) -> List[TraceEvent]:
        """Events with ``start_ms <= time_ms < end_ms`` (half-open window).

        The half-open convention lets adjacent windows partition a trace
        without double-counting events on the boundary — the same contract
        as span ``[start_ms, end_ms)`` intervals in :mod:`repro.obs`.
        """
        return [e for e in self.events if start_ms <= e.time_ms < end_ms]

    def describe(self) -> str:
        """Multi-line rendering of the whole trace."""
        return "\n".join(event.describe() for event in self.events)

    def to_jsonl(self) -> str:
        """The whole trace as JSON lines — one event per line."""
        return "\n".join(event.to_json() for event in self.events) + ("\n" if self.events else "")

    def save_jsonl(self, path: str) -> None:
        """Write the trace to ``path`` in the shared JSONL event format."""
        write_text(path, self.to_jsonl())
