"""EDNS(0) support (RFC 6891).

The OPT pseudo-RR overloads the record fields: the owner name is root, the
class carries the advertised UDP payload size, and the TTL packs the
extended RCODE, EDNS version, and flags (DO bit).  This module converts
between that packed form and a friendly :class:`EdnsOptions` view.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional

from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import GenericRdata
from repro.dnswire.types import EDNS_DEFAULT_PAYLOAD, TYPE_OPT
from repro.errors import MessageMalformed

#: DO ("DNSSEC OK") flag bit within the EDNS flags word.
EDNS_FLAG_DO = 0x8000

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


def attach_ede(message: Message, info_code: int, text: str = "") -> Message:
    """Attach an EDE option, preserving any existing EDNS state."""
    edns = get_edns(message) or EdnsOptions()
    edns.options = [o for o in edns.options if o.code != OPTION_EDE]
    edns.options.append(make_ede_option(info_code, text))
    return add_edns(message, edns)

