"""DNS message codec: header, question, resource records, full messages.

Encoding builds one shared compression map across the whole message (names
in owner fields and well-known RDATA all participate).  Decoding is strict:
counts must match the body, trailing bytes are rejected, and all the
name-decompression safety rules from :mod:`repro.dnswire.name` apply.  A
message whose bytes after the id were decoded before is rebuilt from the
questions and records parsed then, and the encoder fills that table: the
peer of a compressing ``to_wire`` decodes those very bytes, so its
``from_wire`` is a hit unless they changed in flight.  An encoding is
remembered too, per flags, counts and *which* names and rdata it carries:
the next message made of the same ones differs in the id and the TTL words
only, and those are packed into a copy.
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
from repro.errors import DnsWireError, MessageMalformed, MessageTruncated

_HEADER = struct.Struct("!HHHHHH")

_MSG_ID = struct.Struct("!H")
_TTL = struct.Struct("!I")

#: Bound of :data:`_PARSED`; a full table is emptied.  One ``ec2_doh_cold``
#: pass looks up 9,462 messages; 4,674 of them are responses whose
#: cache-aged TTLs never recur, each stored by the encoder just before its
#: one reader asks.  An entry is wanted soon or never, so the bound costs
#: little: 99.73% of lookups hit at 1,024 against 99.90% with no bound
#: (99.2% at 256, 97.6% at 64; ``session_matrix``: 99.94% of 14,419), while
#: holding all 3,838 bodies is 0.7 MiB of RSS for nothing.
_PARSED_MAX = 1024
#: wire bytes after the message id -> the four sections, as tuples of
#: frozen questions / records.  Stored by a parse that succeeded, and by
#: ``to_wire`` for the bytes it is about to return.
_PARSED: Dict[bytes, Tuple[tuple, tuple, tuple, tuple]] = {}

#: Bound of :data:`_ENCODED`; a full table is emptied.  A campaign sends
#: the same few answers (56 entries after one ``ec2_doh_cold`` pass, 4,674
#: of its 4,714 encodes patched; 87 and 7,165 of 7,200 on
#: ``session_matrix``); the bound is for a caller that sweeps names.
_ENCODED_MAX = 1024
#: (flags, counts, qtype / qclass and rdtype / rdclass in wire order, then
#: the ``id()`` of every question name, owner name and rdata in wire order)
#: -> (those objects, the wire, the offset of each record's TTL).  An entry
#: holds the objects it is keyed by, so while it is in the table an id in
#: its key is theirs alone; they are immutable, so the bytes they encode to
#: are fixed.  Only a message that decodes to its own sections is stored.
_ENCODED: Dict[tuple, Tuple[list, bytes, List[int]]] = {}

# Lookups answered from / not from each table: plain ints, bumped inline.
_parse_hits = _parse_misses = _encode_hits = _encode_misses = 0


def memo_stats() -> Dict[str, Dict[str, int]]:
    """What this module's two tables have answered since import.  Every
    ``to_wire`` hit is also one entry the encoder stored for ``from_wire``."""
    return {
        "from_wire": {"hits": _parse_hits, "misses": _parse_misses, "entries": len(_PARSED)},
        "to_wire": {"hits": _encode_hits, "misses": _encode_misses, "entries": len(_ENCODED)},
    }


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
        return cls(  # positionally, in field order
            msg_id,
            flags & FLAG_QR != 0,
            (flags & OPCODE_MASK) >> OPCODE_SHIFT,
            flags & FLAG_AA != 0,
            flags & FLAG_TC != 0,
            flags & FLAG_RD != 0,
            flags & FLAG_RA != 0,
            flags & FLAG_AD != 0,
            flags & FLAG_CD != 0,
            flags & RCODE_MASK,
            qd,
            an,
            ns,
            ar,
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

    def encode(self, buffer: bytearray, compress) -> int:
        """Append the wire form; returns the offset of the TTL word."""
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
        return rdlength_at - 4

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

    def _sections(self) -> Tuple[tuple, tuple, tuple, tuple]:
        """The four sections as :data:`_PARSED` holds them."""
        return (
            tuple(self.questions),
            tuple(self.answers),
            tuple(self.authorities),
            tuple(self.additionals),
        )

    def to_wire(self, compress: bool = True) -> bytes:
        """Encode to wire bytes, updating the header section counts."""
        global _encode_hits, _encode_misses
        header = self.header
        header.qdcount = len(self.questions)
        header.ancount = len(self.answers)
        header.nscount = len(self.authorities)
        header.arcount = len(self.additionals)
        records = [*self.answers, *self.authorities, *self.additionals]
        if compress:
            shape = [header.flags_word(), header.qdcount, header.ancount, header.nscount]
            held = []
            for question in self.questions:
                shape += (question.qtype, question.qclass)
                held += (question.qname,)
            for record in records:
                shape += (record.rdtype, record.rdclass)
                held += (record.name, record.rdata)
            key = (*shape, *map(id, held))
            known = _ENCODED.get(key)
            # An id out of range is the encoder's to refuse, below.
            if known is not None and 0 <= header.msg_id <= 0xFFFF:
                _encode_hits += 1
                _held, template, ttl_at = known
                buffer = bytearray(template)
                _MSG_ID.pack_into(buffer, 0, header.msg_id)
                for at, record in zip(ttl_at, records):
                    _TTL.pack_into(buffer, at, record.ttl)
                wire = bytes(buffer)
                if len(_PARSED) >= _PARSED_MAX:
                    _PARSED.clear()
                _PARSED[wire[2:]] = self._sections()
                return wire
            _encode_misses += 1
        buffer = bytearray()
        header.encode(buffer)
        compress_map = {} if compress else None
        for question in self.questions:
            question.encode(buffer, compress_map)
        ttl_at = [record.encode(buffer, compress_map) for record in records]
        wire = bytes(buffer)
        if compress:
            # The decoder says what these bytes are, and keeps it for the
            # peer.  Only if that is what this message holds, value for
            # value and type for type (``==`` alone takes ``ExAmPlE.com``
            # for the ``example.com`` its pointer decodes to, and ``True``
            # for 1), may a later message of the same names and rdata be
            # patched from this wire and store its own sections.
            try:
                decoded = Message.from_wire(wire)._sections()
            except DnsWireError:
                return wire
            ours = self._sections()
            if ours == decoded and repr(ours) == repr(decoded):
                if len(_ENCODED) >= _ENCODED_MAX:
                    _ENCODED.clear()
                _ENCODED[key] = (held, wire, ttl_at)
        return wire

    @classmethod
    def from_wire(cls, wire: bytes) -> "Message":
        """Decode wire bytes; strict about counts and trailing data."""
        global _parse_hits, _parse_misses
        if len(wire) < _HEADER.size:
            raise MessageTruncated(f"message is {len(wire)} bytes; header needs 12")
        msg_id, flags, qd, an, ns, ar = _HEADER.unpack_from(wire, 0)
        body = wire[2:]
        parsed = _PARSED.get(body)
        if parsed is not None:
            _parse_hits += 1
        else:
            _parse_misses += 1
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
