"""QUIC packet and frame codec (simulation-grade).

A simulated QUIC packet is one UDP datagram::

    kind(1) | conn_id(8, BE) | packet_number(4, BE) | frames (JSON)

``kind`` distinguishes Initial / Handshake / 1-RTT packets (they matter
for timing and padding rules: client Initials are padded to 1200 bytes,
RFC 9000 §14.1).  Frames are a JSON list — the simulator's standard
readable stand-in for binary framing — padded to realistic sizes.

Frame types:

* ``crypto`` — handshake bytes (ClientHello / ServerHello+cert / Finished);
* ``stream`` — application data: stream id, offset, data (latin-1-safe
  hex), fin flag;
* ``ticket`` — session ticket for resumption (server → client);
* ``close`` — connection close.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.errors import ReproError

KIND_INITIAL = 1
KIND_HANDSHAKE = 2
KIND_ONE_RTT = 3

#: Client Initial packets are padded to at least this size (anti-amplification).
INITIAL_MIN_BYTES = 1200

#: Maximum datagram the simulator emits (typical QUIC max_udp_payload_size).
MAX_DATAGRAM_BYTES = 1350

_HEADER = struct.Struct("!BQI")


class QuicPacketError(ReproError):
    """Raised for malformed simulated QUIC packets."""


@dataclass(frozen=True)
class QuicPacket:
    """One decoded packet."""

    kind: int
    conn_id: int
    packet_number: int
    frames: Tuple[Dict[str, Any], ...]


def encode_packet(
    kind: int,
    conn_id: int,
    packet_number: int,
    frames: List[Dict[str, Any]],
    pad_to: int = 0,
) -> bytes:
    body = json.dumps(frames, separators=(",", ":")).encode("utf-8")
    wire = _HEADER.pack(kind, conn_id, packet_number) + body
    if len(wire) < pad_to:
        wire += b" " * (pad_to - len(wire))
    if len(wire) > MAX_DATAGRAM_BYTES and pad_to == 0:
        raise QuicPacketError(
            f"packet of {len(wire)} bytes exceeds max datagram; split frames"
        )
    return wire


def decode_packet(wire: bytes) -> QuicPacket:
    if len(wire) < _HEADER.size:
        raise QuicPacketError("datagram shorter than a QUIC header")
    kind, conn_id, packet_number = _HEADER.unpack_from(wire, 0)
    if kind not in (KIND_INITIAL, KIND_HANDSHAKE, KIND_ONE_RTT):
        raise QuicPacketError(f"unknown packet kind {kind}")
    body = wire[_HEADER.size:].rstrip(b" ")
    try:
        frames = json.loads(body.decode("utf-8")) if body else []
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise QuicPacketError(f"bad frame payload: {exc}")
    if not isinstance(frames, list):
        raise QuicPacketError("frame payload is not a list")
    if not all(isinstance(frame, dict) for frame in frames):
        raise QuicPacketError("a frame is not an object")
    return QuicPacket(
        kind=kind, conn_id=conn_id, packet_number=packet_number,
        frames=tuple(frames),
    )


def stream_frame(stream_id: int, offset: int, data: bytes, fin: bool) -> Dict[str, Any]:
    return {
        "type": "stream",
        "id": stream_id,
        "off": offset,
        "data": data.hex(),
        "fin": fin,
    }


def stream_frame_data(frame: Dict[str, Any]) -> bytes:
    try:
        return bytes.fromhex(frame["data"])
    except (KeyError, ValueError, TypeError) as exc:
        raise QuicPacketError(f"bad stream frame: {exc}")


def stream_frame_fields(frame: Dict[str, Any]) -> Tuple[int, int, bytes, bool]:
    """A stream frame's ``(stream id, offset, data, fin)``, checked: the id
    and offset are integers, the offset is not negative, the data is hex."""
    stream_id = frame.get("id", -1)
    offset = frame.get("off", 0)
    if type(stream_id) is not int or type(offset) is not int or offset < 0:
        raise QuicPacketError(f"bad stream frame id {stream_id!r} or offset {offset!r}")
    return stream_id, offset, stream_frame_data(frame), bool(frame.get("fin"))


def crypto_frame(stage: str, fields: Dict[str, Any], pad_chars: int = 0) -> Dict[str, Any]:
    frame = {"type": "crypto", "stage": stage}
    frame.update(fields)
    if pad_chars:
        frame["pad"] = "x" * pad_chars
    return frame
