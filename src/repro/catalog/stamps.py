"""DNS Stamps (``sdns://``) — the DNSCrypt project's server encoding.

The paper's resolver list was "scraped from a list of public DoH resolvers
provided by the DNSCrypt protocol developers"; that list identifies every
server by a DNS Stamp.  This module implements the stamp format
(https://dnscrypt.info/stamps-specifications) for the protocols the study
touches:

* ``0x00`` — plain DNS (address only);
* ``0x02`` — DNS-over-HTTPS (address, hashes, hostname, path);
* ``0x03`` — DNS-over-TLS (address, hashes, hostname).

Stamps are ``sdns://`` + base64url(no padding) over a binary payload of
length-prefixed fields; the informal properties word carries the
DNSSEC / no-logs / no-filter flags the public list displays.
"""

from __future__ import annotations

import base64
import struct
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import CatalogError

PROTOCOL_PLAIN = 0x00
PROTOCOL_DNSCRYPT = 0x01
PROTOCOL_DOH = 0x02
PROTOCOL_DOT = 0x03

#: Informal properties bit flags.
PROP_DNSSEC = 0x01
PROP_NO_LOGS = 0x02
PROP_NO_FILTER = 0x04


class StampError(CatalogError):
    """Raised for malformed DNS stamps."""


@dataclass(frozen=True)
class Stamp:
    """A decoded DNS stamp."""

    protocol: int
    props: int
    address: str
    hostname: str = ""
    path: str = ""
    hashes: Tuple[bytes, ...] = ()

    @property
    def dnssec(self) -> bool:
        return bool(self.props & PROP_DNSSEC)

    @property
    def no_logs(self) -> bool:
        return bool(self.props & PROP_NO_LOGS)

    @property
    def no_filter(self) -> bool:
        return bool(self.props & PROP_NO_FILTER)

    @property
    def protocol_name(self) -> str:
        return {
            PROTOCOL_PLAIN: "plain",
            PROTOCOL_DNSCRYPT: "dnscrypt",
            PROTOCOL_DOH: "doh",
            PROTOCOL_DOT: "dot",
        }.get(self.protocol, f"proto-{self.protocol}")


def _lp(data: bytes) -> bytes:
    if len(data) > 0x7F:
        raise StampError(f"length-prefixed field too long ({len(data)} bytes)")
    return bytes([len(data)]) + data


def _vlp(items: Tuple[bytes, ...]) -> bytes:
    """Variable-length set: high bit of the length marks 'more follow'."""
    if not items:
        return b"\x00"
    out = bytearray()
    for index, item in enumerate(items):
        if len(item) > 0x7F:
            raise StampError("vlp item too long")
        length = len(item)
        if index < len(items) - 1:
            length |= 0x80
        out.append(length)
        out += item
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise StampError("truncated stamp payload")
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def lp(self) -> bytes:
        (length,) = self.take(1)
        return self.take(length)

    def text(self) -> str:
        """A length-prefixed field that must be UTF-8 text."""
        field = self.lp()
        try:
            return field.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StampError(f"stamp field is not UTF-8 text: {field[:16]!r}") from exc

    def vlp(self) -> Tuple[bytes, ...]:
        items: List[bytes] = []
        while True:
            (length,) = self.take(1)
            more = bool(length & 0x80)
            size = length & 0x7F
            item = self.take(size)
            if item:
                items.append(item)
            if not more:
                break
        return tuple(items)

    @property
    def exhausted(self) -> bool:
        return self.offset == len(self.data)


def encode_stamp(stamp: Stamp) -> str:
    """Serialize to an ``sdns://`` URI."""
    payload = bytearray()
    payload.append(stamp.protocol)
    payload += struct.pack("<Q", stamp.props)
    payload += _lp(stamp.address.encode("utf-8"))
    if stamp.protocol == PROTOCOL_PLAIN:
        pass
    elif stamp.protocol == PROTOCOL_DOH:
        payload += _vlp(stamp.hashes)
        payload += _lp(stamp.hostname.encode("utf-8"))
        payload += _lp(stamp.path.encode("utf-8"))
    elif stamp.protocol == PROTOCOL_DOT:
        payload += _vlp(stamp.hashes)
        payload += _lp(stamp.hostname.encode("utf-8"))
    else:
        raise StampError(f"unsupported stamp protocol {stamp.protocol:#x}")
    encoded = base64.urlsafe_b64encode(bytes(payload)).rstrip(b"=").decode("ascii")
    return f"sdns://{encoded}"


def decode_stamp(uri: str) -> Stamp:
    """Parse an ``sdns://`` URI."""
    if not uri.startswith("sdns://"):
        raise StampError(f"not a DNS stamp: {uri[:16]!r}")
    body = uri[len("sdns://"):]
    padding = -len(body) % 4
    try:
        payload = base64.urlsafe_b64decode(body + "=" * padding)
    except (ValueError, TypeError) as exc:
        raise StampError(f"bad stamp base64: {exc}")
    if not payload:
        raise StampError("empty stamp payload")
    reader = _Reader(payload)
    (protocol,) = reader.take(1)
    (props,) = struct.unpack("<Q", reader.take(8))
    address = reader.text()
    hostname = ""
    path = ""
    hashes: Tuple[bytes, ...] = ()
    if protocol == PROTOCOL_PLAIN:
        pass
    elif protocol == PROTOCOL_DOH:
        hashes = reader.vlp()
        hostname = reader.text()
        path = reader.text()
    elif protocol == PROTOCOL_DOT:
        hashes = reader.vlp()
        hostname = reader.text()
    else:
        raise StampError(f"unsupported stamp protocol {protocol:#x}")
    if not reader.exhausted:
        raise StampError("trailing bytes in stamp payload")
    return Stamp(
        protocol=protocol,
        props=props,
        address=address,
        hostname=hostname,
        path=path,
        hashes=hashes,
    )


def doh_stamp(hostname: str) -> Stamp:
    """The DoH stamp of ``hostname``: DNSSEC, no logs, no filter, the
    standard path, the address left to resolution."""
    return Stamp(
        protocol=PROTOCOL_DOH,
        props=PROP_DNSSEC | PROP_NO_LOGS | PROP_NO_FILTER,
        address="",
        hostname=hostname,
        path="/dns-query",
    )
