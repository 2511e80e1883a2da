"""DNS constants: RR types, classes, opcodes, rcodes, and header flags.

Values follow the IANA DNS parameters registry.  Only the subset the
library actually speaks is given a symbolic name; unknown values round-trip
through the codec untouched (RFC 3597 unknown-type handling).
"""

from __future__ import annotations

from typing import Dict

# -- RR types ---------------------------------------------------------------

TYPE_A = 1
TYPE_NS = 2
TYPE_CNAME = 5
TYPE_SOA = 6
TYPE_PTR = 12
TYPE_MX = 15
TYPE_TXT = 16
TYPE_AAAA = 28
TYPE_OPT = 41
TYPE_HTTPS = 65
TYPE_ANY = 255

_TYPE_NAMES: Dict[int, str] = {
    TYPE_A: "A",
    TYPE_NS: "NS",
    TYPE_CNAME: "CNAME",
    TYPE_SOA: "SOA",
    TYPE_PTR: "PTR",
    TYPE_MX: "MX",
    TYPE_TXT: "TXT",
    TYPE_AAAA: "AAAA",
    TYPE_OPT: "OPT",
    TYPE_HTTPS: "HTTPS",
    TYPE_ANY: "ANY",
}


def type_name(value: int) -> str:
    """Symbolic name for an RR type (``"TYPE123"`` for unknown types)."""
    return _TYPE_NAMES.get(value, f"TYPE{value}")


# -- classes -------------------------------------------------------------------

CLASS_IN = 1
CLASS_CH = 3
CLASS_ANY = 255

_CLASS_NAMES: Dict[int, str] = {CLASS_IN: "IN", CLASS_CH: "CH", CLASS_ANY: "ANY"}


def class_name(value: int) -> str:
    """Symbolic name for a class (``"CLASS123"`` for unknown classes)."""
    return _CLASS_NAMES.get(value, f"CLASS{value}")


# -- opcodes ----------------------------------------------------------------------

OPCODE_QUERY = 0
OPCODE_IQUERY = 1
OPCODE_STATUS = 2
OPCODE_NOTIFY = 4
OPCODE_UPDATE = 5

_OPCODE_NAMES: Dict[int, str] = {
    OPCODE_QUERY: "QUERY",
    OPCODE_IQUERY: "IQUERY",
    OPCODE_STATUS: "STATUS",
    OPCODE_NOTIFY: "NOTIFY",
    OPCODE_UPDATE: "UPDATE",
}


def opcode_name(value: int) -> str:
    return _OPCODE_NAMES.get(value, f"OPCODE{value}")


# -- rcodes ---------------------------------------------------------------------

RCODE_NOERROR = 0
RCODE_FORMERR = 1
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3
RCODE_NOTIMP = 4
RCODE_REFUSED = 5

_RCODE_NAMES: Dict[int, str] = {
    RCODE_NOERROR: "NOERROR",
    RCODE_FORMERR: "FORMERR",
    RCODE_SERVFAIL: "SERVFAIL",
    RCODE_NXDOMAIN: "NXDOMAIN",
    RCODE_NOTIMP: "NOTIMP",
    RCODE_REFUSED: "REFUSED",
}


def rcode_name(value: int) -> str:
    return _RCODE_NAMES.get(value, f"RCODE{value}")


# -- header flag bit positions (within the 16-bit flags field) -------------------

FLAG_QR = 0x8000  # response
FLAG_AA = 0x0400  # authoritative answer
FLAG_TC = 0x0200  # truncated
FLAG_RD = 0x0100  # recursion desired
FLAG_RA = 0x0080  # recursion available
FLAG_AD = 0x0020  # authenticated data (DNSSEC)
FLAG_CD = 0x0010  # checking disabled (DNSSEC)

OPCODE_SHIFT = 11
OPCODE_MASK = 0x7800
RCODE_MASK = 0x000F

#: Maximum size of a DNS message over UDP without EDNS (RFC 1035 §4.2.1).
MAX_UDP_SIZE = 512

#: Common EDNS0 advertised buffer size.
EDNS_DEFAULT_PAYLOAD = 1232
