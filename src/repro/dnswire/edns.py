"""EDNS(0) support (RFC 6891).

The OPT pseudo-RR overloads the record fields: the owner name is root, the
class carries the advertised UDP payload size, and the TTL packs the
extended RCODE, EDNS version, and flags (DO bit).  This module converts
between that packed form and a friendly :class:`EdnsOptions` view.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import GenericRdata
from repro.dnswire.types import EDNS_DEFAULT_PAYLOAD, TYPE_OPT
from repro.errors import MessageMalformed

#: DO ("DNSSEC OK") flag bit within the EDNS flags word.
EDNS_FLAG_DO = 0x8000

#: Option code for EDNS padding (RFC 7830), used by encrypted transports.
OPTION_PADDING = 12

#: Option code for Extended DNS Errors (RFC 8914).
OPTION_EDE = 15

# RFC 8914 info codes used by the resolver substrate.
EDE_NOT_READY = 14
EDE_NO_REACHABLE_AUTHORITY = 22


@dataclass(frozen=True)
class EdnsOption:
    """One EDNS option (code, value)."""

    code: int
    value: bytes


@dataclass
class EdnsOptions:
    """Decoded view of an OPT pseudo-record."""

    payload_size: int = EDNS_DEFAULT_PAYLOAD
    extended_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False
    options: List[EdnsOption] = field(default_factory=list)

    def to_record(self) -> ResourceRecord:
        """Pack into an OPT resource record."""
        if self.version != 0:
            raise MessageMalformed(f"unsupported EDNS version {self.version}")
        ttl = (self.extended_rcode & 0xFF) << 24 | (self.version & 0xFF) << 16
        if self.dnssec_ok:
            ttl |= EDNS_FLAG_DO
        rdata = bytearray()
        for option in self.options:
            rdata += struct.pack("!HH", option.code, len(option.value))
            rdata += option.value
        return ResourceRecord(
            name=Name.root(),
            rdtype=TYPE_OPT,
            rdclass=self.payload_size,
            ttl=ttl,
            rdata=GenericRdata(TYPE_OPT, bytes(rdata)),
        )

    @classmethod
    def from_record(cls, record: ResourceRecord) -> "EdnsOptions":
        """Unpack an OPT resource record."""
        if record.rdtype != TYPE_OPT:
            raise MessageMalformed(f"record type {record.rdtype} is not OPT")
        ttl = record.ttl
        data = getattr(record.rdata, "data", b"")
        options = []
        cursor = 0
        while cursor + 4 <= len(data):
            code, length = struct.unpack_from("!HH", data, cursor)
            cursor += 4
            if cursor + length > len(data):
                raise MessageMalformed("truncated EDNS option")
            options.append(EdnsOption(code, data[cursor : cursor + length]))
            cursor += length
        if cursor != len(data):
            raise MessageMalformed("trailing bytes in OPT rdata")
        return cls(
            payload_size=record.rdclass,
            extended_rcode=(ttl >> 24) & 0xFF,
            version=(ttl >> 16) & 0xFF,
            dnssec_ok=bool(ttl & EDNS_FLAG_DO),
            options=options,
        )


#: The OPT record of default options: what nearly every query and response
#: carries, built once (the record, its root name and its rdata are frozen).
_DEFAULT_OPT = EdnsOptions().to_record()


def add_edns(message: Message, options: Optional[EdnsOptions] = None) -> Message:
    """Attach an OPT record to the message (replacing any existing one)."""
    message.additionals = [r for r in message.additionals if r.rdtype != TYPE_OPT]
    message.additionals.append(_DEFAULT_OPT if options is None else options.to_record())
    return message


def get_edns(message: Message) -> Optional[EdnsOptions]:
    """The message's EDNS options, or None if no OPT record is present."""
    record = message.opt_record()
    if record is None:
        return None
    return EdnsOptions.from_record(record)


def make_ede_option(info_code: int, text: str = "") -> EdnsOption:
    """Build an Extended DNS Error option (RFC 8914)."""
    return EdnsOption(OPTION_EDE, struct.pack("!H", info_code) + text.encode("utf-8"))


def get_ede(message: Message) -> Optional[Tuple[int, str]]:
    """The first Extended DNS Error in the message, as (info_code, text)."""
    edns = get_edns(message)
    if edns is None:
        return None
    for option in edns.options:
        if option.code == OPTION_EDE and len(option.value) >= 2:
            (info_code,) = struct.unpack_from("!H", option.value, 0)
            return info_code, option.value[2:].decode("utf-8", "replace")
    return None


def attach_ede(message: Message, info_code: int, text: str = "") -> Message:
    """Attach an EDE option, preserving any existing EDNS state."""
    edns = get_edns(message) or EdnsOptions()
    edns.options = [o for o in edns.options if o.code != OPTION_EDE]
    edns.options.append(make_ede_option(info_code, text))
    return add_edns(message, edns)


def pad_query(message: Message, block_size: int = 128) -> Message:
    """Apply RFC 8467 recommended padding to a query (multiple of 128B).

    Encrypted transports pad queries so that message sizes do not leak the
    queried name.  The padding lives in an EDNS padding option; callers must
    have added EDNS first (or this adds a default OPT record).
    """
    edns = get_edns(message) or EdnsOptions()
    edns.options = [o for o in edns.options if o.code != OPTION_PADDING]
    add_edns(message, edns)
    unpadded_len = len(message.to_wire())
    # Option header is 4 bytes; find the smallest padding reaching a multiple.
    target = ((unpadded_len + 4 + block_size - 1) // block_size) * block_size
    pad_len = target - unpadded_len - 4
    edns.options.append(EdnsOption(OPTION_PADDING, b"\x00" * pad_len))
    return add_edns(message, edns)


def unpadded_equal(a: Message, b: Message) -> bool:
    """Compare two messages ignoring EDNS padding (test helper)."""

    def strip(m: Message) -> Tuple[bytes, ...]:
        edns = get_edns(m)
        clone = Message.from_wire(m.to_wire())
        if edns is not None:
            edns.options = [o for o in edns.options if o.code != OPTION_PADDING]
            add_edns(clone, edns)
        return (clone.to_wire(),)

    return strip(a) == strip(b)
