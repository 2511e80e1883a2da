"""The transport table, and the one framing codec both ends share.

A DNS transport is a *connection kind* with a *framing* stacked on it.
The five the platform measures differ only in these columns, so the
probe (:mod:`repro.core.probes`) and the frontend
(:mod:`repro.resolver.frontends`) are each one class that reads a row of
:data:`TRANSPORTS` — and every list of transport names in the package
(CLI choices, campaign validation, session broker, analysis tables,
observers) is derived from it here.

===== ==== ========== ======= ====== ============= ========== ==========
name  port connection framing msg id exchange      early data TLS ALPN
===== ==== ========== ======= ====== ============= ========== ==========
doh   443  tls        http    0      http_exchange off        (h2, h1.1)
dot   853  tls        length  random dns_exchange  off        dot
do53  53   udp        raw     random dns_exchange  --         --
doq   853  quic       length  0      dns_exchange  on         --
doh3  443  quic       h3      0      http_exchange on         --
===== ==== ========== ======= ====== ============= ========== ==========

What a fresh (cold) query costs follows from the stack: ``doh`` and
``dot`` ~3 x RTT (TCP connect, TLS 1.3 handshake, exchange; 4 with TLS
1.2, 2 with a 0-RTT ticket), ``doq`` and ``doh3`` ~2 x RTT (QUIC's
combined handshake is one round trip; 1 with 0-RTT), ``do53`` 1 x RTT;
on a kept-alive connection every one of them is ~1 x RTT per query.
``doh3`` is DoH's HTTP framing and status codes on DoQ's latency profile:
one HTTP/3 exchange per QUIC stream.

This module sits below both the client and the server packages and
imports neither.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import FramingError


@dataclass(frozen=True)
class Transport:
    """One row of the transport table."""

    name: str
    port: int
    #: What carries the bytes: ``udp`` datagrams, a ``tls`` session over
    #: TCP, or a ``quic`` connection (UDP, one stream per query).
    connection: str
    #: How a DNS message rides on it: ``raw`` (the datagram is the
    #: message), ``length`` (RFC 1035 §4.2.2 two-byte prefix), ``http``
    #: (RFC 8484 over HTTP/1.1 or HTTP/2 by ALPN) or ``h3`` (RFC 8484
    #: over HTTP/3).
    framing: str
    #: Draw the query id from the probe RNG and match it on the answer.
    #: RFC 8484 / RFC 9250 transports send id 0 and draw nothing — the
    #: stream already pairs the answer with its question.
    random_msg_id: bool
    #: Phase-clock name of the request/response exchange.
    exchange_phase: str
    #: Whether a probe attempts 0-RTT when its config does not say.
    early_data: bool = False
    #: Fixed TLS ALPN list; empty means "the configured HTTP versions".
    alpn: Tuple[str, ...] = ()

    @property
    def has_session(self) -> bool:
        """TLS and QUIC keep connections and tickets between queries
        (and encrypt); plain UDP has no session to keep."""
        return self.connection != "udp"


TRANSPORTS: Dict[str, Transport] = {
    row.name: row
    for row in (
        Transport("doh", 443, "tls", "http", False, "http_exchange"),
        Transport("dot", 853, "tls", "length", True, "dns_exchange", alpn=("dot",)),
        Transport("do53", 53, "udp", "raw", True, "dns_exchange"),
        Transport("doq", 853, "quic", "length", False, "dns_exchange", early_data=True),
        Transport("doh3", 443, "quic", "h3", False, "http_exchange", early_data=True),
    )
}

#: Every transport a campaign can measure, in table order.
TRANSPORT_NAMES: Tuple[str, ...] = tuple(TRANSPORTS)
#: Transports that carry session state (and encryption), in table order.
SESSION_TRANSPORTS: Tuple[str, ...] = tuple(
    name for name, row in TRANSPORTS.items() if row.has_session
)
#: Transports carried over QUIC.
QUIC_TRANSPORTS: Tuple[str, ...] = tuple(
    name for name, row in TRANSPORTS.items() if row.connection == "quic"
)


class LengthPrefixedStream:
    """Parser for the 2-byte length-prefixed DNS framing of TCP/DoT/DoQ."""

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
