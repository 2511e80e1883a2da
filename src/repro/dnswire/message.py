"""DNS message codec: header, question, resource records, full messages.

Encoding builds one shared compression map across the whole message (names
in owner fields and well-known RDATA all participate).  Decoding is strict:
counts must match the body, trailing bytes are rejected, and all the
name-decompression safety rules from :mod:`repro.dnswire.name` apply.  A
message whose bytes after the id were decoded before is rebuilt from the
questions and records parsed then.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dnswire.name import Name
from repro.dnswire.rdata import Rdata, decode_rdata
from repro.dnswire.types import (
    CLASS_IN,
    FLAG_AA,
    FLAG_AD,
    FLAG_CD,
    FLAG_QR,
    FLAG_RA,
    FLAG_RD,
    FLAG_TC,
    OPCODE_MASK,
    OPCODE_SHIFT,
    RCODE_MASK,
    TYPE_OPT,
    class_name,
    opcode_name,
    rcode_name,
    type_name,
)
from repro.errors import MessageMalformed, MessageTruncated

_HEADER = struct.Struct("!HHHHHH")

#: Bound of :data:`_PARSED`; a full table is emptied.  One ``session_matrix``
#: pass decodes 14,384 messages with 871 distinct bodies (the 7,197
#: server-side parses see 3), which fit; one ``ec2_doh_cold`` pass 9,422
#: with 3,822, most of them responses whose cache-aged TTLs never recur.
#: What does recur there recurs soon: 59.3% of its lookups hit at this
#: bound against 59.4% with no bound, while holding all 3,822 (~1 KiB each)
#: cost 3 MiB of RSS and a third more objects for the collector to walk.
_PARSED_MAX = 1024
#: wire bytes after the message id -> the four sections, as tuples of
#: frozen questions / records.  Only a parse that succeeded is stored.
_PARSED: Dict[bytes, Tuple[tuple, tuple, tuple, tuple]] = {}


@dataclass
class Header:
    """The 12-byte DNS header."""

    msg_id: int = 0
    qr: bool = False
    opcode: int = 0
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    ad: bool = False
    cd: bool = False
    rcode: int = 0
    qdcount: int = 0
    ancount: int = 0
    nscount: int = 0
    arcount: int = 0

    def flags_word(self) -> int:
        word = (self.opcode << OPCODE_SHIFT) & OPCODE_MASK
        word |= self.rcode & RCODE_MASK
        if self.qr:
            word |= FLAG_QR
        if self.aa:
            word |= FLAG_AA
        if self.tc:
            word |= FLAG_TC
        if self.rd:
            word |= FLAG_RD
        if self.ra:
            word |= FLAG_RA
        if self.ad:
            word |= FLAG_AD
        if self.cd:
            word |= FLAG_CD
        return word

    @classmethod
    def from_words(cls, msg_id: int, flags: int, qd: int, an: int, ns: int, ar: int) -> "Header":
        return cls(
            msg_id=msg_id,
            qr=bool(flags & FLAG_QR),
            opcode=(flags & OPCODE_MASK) >> OPCODE_SHIFT,
            aa=bool(flags & FLAG_AA),
            tc=bool(flags & FLAG_TC),
            rd=bool(flags & FLAG_RD),
            ra=bool(flags & FLAG_RA),
            ad=bool(flags & FLAG_AD),
            cd=bool(flags & FLAG_CD),
            rcode=flags & RCODE_MASK,
            qdcount=qd,
            ancount=an,
            nscount=ns,
            arcount=ar,
        )

    def encode(self, buffer: bytearray) -> None:
        if not 0 <= self.msg_id <= 0xFFFF:
            raise MessageMalformed(f"message id {self.msg_id} out of range")
        buffer += _HEADER.pack(
            self.msg_id,
            self.flags_word(),
            self.qdcount,
            self.ancount,
            self.nscount,
            self.arcount,
        )

    def describe(self) -> str:
        flags = " ".join(
            name
            for name, on in (
                ("qr", self.qr),
                ("aa", self.aa),
                ("tc", self.tc),
                ("rd", self.rd),
                ("ra", self.ra),
                ("ad", self.ad),
                ("cd", self.cd),
            )
            if on
        )
        return (
            f"id={self.msg_id} {opcode_name(self.opcode)} {rcode_name(self.rcode)} "
            f"[{flags}] qd={self.qdcount} an={self.ancount} ns={self.nscount} ar={self.arcount}"
        )


@dataclass(frozen=True)
class Question:
    """One entry of the question section."""

    qname: Name
    qtype: int
    qclass: int = CLASS_IN

    def encode(self, buffer: bytearray, compress) -> None:
        self.qname.encode(buffer, compress)
        buffer += struct.pack("!HH", self.qtype, self.qclass)

    @classmethod
    def decode(cls, wire: bytes, offset: int) -> Tuple["Question", int]:
        qname, offset = Name.decode(wire, offset)
        if offset + 4 > len(wire):
            raise MessageTruncated("truncated question")
        qtype, qclass = struct.unpack_from("!HH", wire, offset)
        return cls(qname, qtype, qclass), offset + 4

    def to_text(self) -> str:
        return f"{self.qname.to_text()} {class_name(self.qclass)} {type_name(self.qtype)}"


@dataclass(frozen=True)
class ResourceRecord:
    """One resource record (answer/authority/additional sections)."""

    name: Name
    rdtype: int
    rdclass: int
    ttl: int
    rdata: Rdata

    def encode(self, buffer: bytearray, compress) -> None:
        self.name.encode(buffer, compress)
        buffer += struct.pack("!HHI", self.rdtype, self.rdclass, self.ttl)
        rdlength_at = len(buffer)
        buffer += b"\x00\x00"  # placeholder, patched below
        start = len(buffer)
        self.rdata.encode(buffer, compress)
        rdlength = len(buffer) - start
        if rdlength > 0xFFFF:
            raise MessageMalformed(f"rdata of {self.name} exceeds 65535 bytes")
        struct.pack_into("!H", buffer, rdlength_at, rdlength)

    @classmethod
    def decode(cls, wire: bytes, offset: int) -> Tuple["ResourceRecord", int]:
        name, offset = Name.decode(wire, offset)
        if offset + 10 > len(wire):
            raise MessageTruncated("truncated resource record header")
        rdtype, rdclass, ttl, rdlength = struct.unpack_from("!HHIH", wire, offset)
        offset += 10
        rdata = decode_rdata(rdtype, wire, offset, rdlength)
        return cls(name, rdtype, rdclass, ttl, rdata), offset + rdlength

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        if ttl == self.ttl:
            return self
        return ResourceRecord(self.name, self.rdtype, self.rdclass, ttl, self.rdata)

    def to_text(self) -> str:
        return (
            f"{self.name.to_text()} {self.ttl} {class_name(self.rdclass)} "
            f"{type_name(self.rdtype)} {self.rdata.to_text()}"
        )


@dataclass
class Message:
    """A complete DNS message."""

    header: Header = field(default_factory=Header)
    questions: List[Question] = field(default_factory=list)
    answers: List[ResourceRecord] = field(default_factory=list)
    authorities: List[ResourceRecord] = field(default_factory=list)
    additionals: List[ResourceRecord] = field(default_factory=list)

    # -- derived views ------------------------------------------------------

    @property
    def question(self) -> Optional[Question]:
        """The first question, or None."""
        return self.questions[0] if self.questions else None

    @property
    def rcode(self) -> int:
        return self.header.rcode

    @property
    def is_response(self) -> bool:
        return self.header.qr

    def opt_record(self) -> Optional[ResourceRecord]:
        """The EDNS OPT pseudo-record, if present in additionals."""
        for record in self.additionals:
            if record.rdtype == TYPE_OPT:
                return record
        return None

    def answer_addresses(self) -> List[str]:
        """All A/AAAA addresses in the answer section, in order."""
        addresses = []
        for record in self.answers:
            text = getattr(record.rdata, "address", None)
            if text is not None:
                addresses.append(text)
        return addresses

    # -- codec ----------------------------------------------------------------

    def to_wire(self, compress: bool = True) -> bytes:
        """Encode to wire bytes, updating the header section counts."""
        self.header.qdcount = len(self.questions)
        self.header.ancount = len(self.answers)
        self.header.nscount = len(self.authorities)
        self.header.arcount = len(self.additionals)
        buffer = bytearray()
        self.header.encode(buffer)
        compress_map = {} if compress else None
        for question in self.questions:
            question.encode(buffer, compress_map)
        for section in (self.answers, self.authorities, self.additionals):
            for record in section:
                record.encode(buffer, compress_map)
        return bytes(buffer)

    @classmethod
    def from_wire(cls, wire: bytes) -> "Message":
        """Decode wire bytes; strict about counts and trailing data."""
        if len(wire) < _HEADER.size:
            raise MessageTruncated(f"message is {len(wire)} bytes; header needs 12")
        msg_id, flags, qd, an, ns, ar = _HEADER.unpack_from(wire, 0)
        body = wire[2:]
        parsed = _PARSED.get(body)
        if parsed is None:
            offset = _HEADER.size
            questions = []
            for _ in range(qd):
                question, offset = Question.decode(wire, offset)
                questions.append(question)
            sections: List[List[ResourceRecord]] = [[], [], []]
            for section, count in zip(sections, (an, ns, ar)):
                for _ in range(count):
                    record, offset = ResourceRecord.decode(wire, offset)
                    section.append(record)
            if offset != len(wire):
                raise MessageMalformed(
                    f"{len(wire) - offset} trailing bytes after message body"
                )
            parsed = (tuple(questions), *map(tuple, sections))
            if len(_PARSED) >= _PARSED_MAX:
                _PARSED.clear()
            _PARSED[body] = parsed
        # The header and the section lists are the caller's to mutate; the
        # questions and records in them are frozen and shared.
        return cls(Header.from_words(msg_id, flags, qd, an, ns, ar), *map(list, parsed))

    def describe(self) -> str:
        """dig-style multi-line rendering."""
        lines = [";; " + self.header.describe()]
        if self.questions:
            lines.append(";; QUESTION")
            lines.extend("; " + q.to_text() for q in self.questions)
        for title, section in (
            ("ANSWER", self.answers),
            ("AUTHORITY", self.authorities),
            ("ADDITIONAL", self.additionals),
        ):
            if section:
                lines.append(f";; {title}")
                lines.extend(record.to_text() for record in section)
        return "\n".join(lines)
