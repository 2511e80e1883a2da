"""Typed RDATA codecs.

Each RDATA class knows how to encode itself into a message buffer (names in
well-known types participate in compression, per RFC 1035 §4.1.4) and how to
decode itself from wire bytes.  Types without a specific class round-trip as
:class:`GenericRdata` (RFC 3597 style).
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Optional, Tuple, Type

from repro.dnswire.name import Name
from repro.dnswire.types import (
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    TYPE_MX,
    TYPE_NS,
    TYPE_PTR,
    TYPE_SOA,
    TYPE_TXT,
    type_name,
)
from repro.errors import MessageMalformed, MessageTruncated

CompressMap = Dict[Tuple[bytes, ...], int]


def _check_rdlength(rdtype: int, consumed: int, rdlength: int) -> None:
    """Names are self-delimiting, so RDLENGTH must agree with what they used."""
    if consumed != rdlength:
        raise MessageMalformed(
            f"{type_name(rdtype)} rdata is {consumed} bytes but RDLENGTH says {rdlength}"
        )


class Rdata:
    """Base class for typed RDATA."""

    rdtype: int = 0

    def encode(self, buffer: bytearray, compress: Optional[CompressMap]) -> None:
        raise NotImplementedError

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "Rdata":
        raise NotImplementedError

    def to_text(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class _AddressRdata(Rdata):
    """Common base of A/AAAA: one address, parsed once.

    ``address`` is kept in the canonical text form (``2001:db8::0`` is
    stored as ``2001:db8::``), so two spellings of one address compare,
    hash and canonicalise alike; ``packed`` is the wire form.
    """

    address: str
    packed: bytes = field(init=False, repr=False, compare=False)

    _parse: ClassVar[Callable]  # ipaddress.IPv4Address or IPv6Address
    _size: ClassVar[int]

    def __post_init__(self) -> None:
        parsed = self._parse(self.address)  # validates
        object.__setattr__(self, "address", str(parsed))
        object.__setattr__(self, "packed", parsed.packed)

    def encode(self, buffer: bytearray, compress: Optional[CompressMap]) -> None:
        buffer += self.packed

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int):
        if rdlength != cls._size:
            raise MessageMalformed(
                f"{type_name(cls.rdtype)} rdata must be {cls._size} bytes, got {rdlength}"
            )
        return cls(wire[offset : offset + rdlength])

    def to_text(self) -> str:
        return self.address


@dataclass(frozen=True)
class ARdata(_AddressRdata):
    """IPv4 address record."""

    rdtype = TYPE_A
    _parse = ipaddress.IPv4Address
    _size = 4


@dataclass(frozen=True)
class AaaaRdata(_AddressRdata):
    """IPv6 address record."""

    rdtype = TYPE_AAAA
    _parse = ipaddress.IPv6Address
    _size = 16


@dataclass(frozen=True)
class _SingleNameRdata(Rdata):
    """Common base for RDATA consisting of exactly one domain name."""

    target: Name

    def encode(self, buffer: bytearray, compress: Optional[CompressMap]) -> None:
        self.target.encode(buffer, compress)

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int):
        name, end = Name.decode(wire, offset)
        _check_rdlength(cls.rdtype, end - offset, rdlength)
        return cls(name)

    def to_text(self) -> str:
        return self.target.to_text()


class CnameRdata(_SingleNameRdata):
    rdtype = TYPE_CNAME


class NsRdata(_SingleNameRdata):
    rdtype = TYPE_NS


class PtrRdata(_SingleNameRdata):
    rdtype = TYPE_PTR


@dataclass(frozen=True)
class SoaRdata(Rdata):
    """Start-of-authority record."""

    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int
    rdtype = TYPE_SOA

    def encode(self, buffer: bytearray, compress: Optional[CompressMap]) -> None:
        self.mname.encode(buffer, compress)
        self.rname.encode(buffer, compress)
        buffer += struct.pack(
            "!IIIII", self.serial, self.refresh, self.retry, self.expire, self.minimum
        )

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "SoaRdata":
        mname, cursor = Name.decode(wire, offset)
        rname, cursor = Name.decode(wire, cursor)
        if cursor + 20 > len(wire):
            raise MessageTruncated("truncated SOA rdata")
        _check_rdlength(cls.rdtype, cursor + 20 - offset, rdlength)
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", wire, cursor)
        return cls(mname, rname, serial, refresh, retry, expire, minimum)

    def to_text(self) -> str:
        return (
            f"{self.mname.to_text()} {self.rname.to_text()} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )


@dataclass(frozen=True)
class MxRdata(Rdata):
    """Mail-exchanger record."""

    preference: int
    exchange: Name
    rdtype = TYPE_MX

    def encode(self, buffer: bytearray, compress: Optional[CompressMap]) -> None:
        buffer += struct.pack("!H", self.preference)
        self.exchange.encode(buffer, compress)

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "MxRdata":
        if offset + 2 > len(wire):
            raise MessageTruncated("truncated MX rdata")
        (preference,) = struct.unpack_from("!H", wire, offset)
        exchange, end = Name.decode(wire, offset + 2)
        _check_rdlength(cls.rdtype, end - offset, rdlength)
        return cls(preference, exchange)

    def to_text(self) -> str:
        return f"{self.preference} {self.exchange.to_text()}"


@dataclass(frozen=True)
class TxtRdata(Rdata):
    """TXT record: one or more character-strings."""

    strings: Tuple[bytes, ...]
    rdtype = TYPE_TXT

    def __post_init__(self) -> None:
        strings = tuple(self.strings)
        if not strings:
            raise MessageMalformed("TXT rdata needs at least one string")
        for s in strings:
            if len(s) > 255:
                raise MessageMalformed("TXT character-string exceeds 255 bytes")
        object.__setattr__(self, "strings", strings)

    def encode(self, buffer: bytearray, compress: Optional[CompressMap]) -> None:
        for s in self.strings:
            buffer.append(len(s))
            buffer += s

    @classmethod
    def decode(cls, wire: bytes, offset: int, rdlength: int) -> "TxtRdata":
        end = offset + rdlength
        strings = []
        cursor = offset
        while cursor < end:
            length = wire[cursor]
            cursor += 1
            if cursor + length > end:
                raise MessageTruncated("truncated TXT character-string")
            strings.append(wire[cursor : cursor + length])
            cursor += length
        return cls(strings)

    def to_text(self) -> str:
        return " ".join('"' + s.decode("ascii", "replace") + '"' for s in self.strings)


@dataclass(frozen=True)
class GenericRdata(Rdata):
    """Opaque RDATA for types without a dedicated codec (RFC 3597)."""

    rdtype: int = field()  # required: the base class's 0 is not its default
    data: bytes

    def encode(self, buffer: bytearray, compress: Optional[CompressMap]) -> None:
        buffer += self.data

    @classmethod
    def decode_generic(cls, rdtype: int, wire: bytes, offset: int, rdlength: int) -> "GenericRdata":
        return cls(rdtype, wire[offset : offset + rdlength])

    def to_text(self) -> str:
        return f"\\# {len(self.data)} {self.data.hex()}"

    def __repr__(self) -> str:
        return f"GenericRdata(type={self.rdtype}, {len(self.data)}B)"


_REGISTRY: Dict[int, Type[Rdata]] = {
    TYPE_A: ARdata,
    TYPE_AAAA: AaaaRdata,
    TYPE_CNAME: CnameRdata,
    TYPE_NS: NsRdata,
    TYPE_PTR: PtrRdata,
    TYPE_SOA: SoaRdata,
    TYPE_MX: MxRdata,
    TYPE_TXT: TxtRdata,
}


def decode_rdata(rdtype: int, wire: bytes, offset: int, rdlength: int) -> Rdata:
    """Decode RDATA of the given type; unknown types yield GenericRdata."""
    if offset + rdlength > len(wire):
        raise MessageTruncated(f"rdata of type {rdtype} runs past end of message")
    codec = _REGISTRY.get(rdtype)
    if codec is None:
        return GenericRdata.decode_generic(rdtype, wire, offset, rdlength)
    return codec.decode(wire, offset, rdlength)
