"""DNS wire format, implemented from scratch per RFC 1035 / 3596 / 6891.

The measurement platform carries genuine DNS messages over every transport:
queries built with :mod:`repro.dnswire.builder` are encoded to wire bytes,
shipped through the simulated network, parsed by the resolver substrate,
answered, and decoded again by the probe.

Public surface:

* :class:`~repro.dnswire.name.Name` — domain names with compression-aware
  wire codec;
* :class:`~repro.dnswire.message.Message` /
  :class:`~repro.dnswire.message.Header` /
  :class:`~repro.dnswire.message.Question` /
  :class:`~repro.dnswire.message.ResourceRecord` — full message codec;
* :mod:`~repro.dnswire.rdata` — typed RDATA for A, AAAA, CNAME, NS, SOA,
  PTR, MX, TXT and OPT;
* :mod:`~repro.dnswire.builder` — convenience query/response builders;
* :func:`~repro.dnswire.message.memo_stats` — hits and misses of the
  message codec's two tables.
"""

from repro.dnswire.types import (
    CLASS_ANY,
    CLASS_IN,
    OPCODE_QUERY,
    RCODE_FORMERR,
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    RCODE_SERVFAIL,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    TYPE_MX,
    TYPE_NS,
    TYPE_OPT,
    TYPE_PTR,
    TYPE_SOA,
    TYPE_TXT,
    class_name,
    rcode_name,
    type_name,
)
from repro.dnswire.name import Name
from repro.dnswire.message import Header, Message, Question, ResourceRecord, memo_stats
from repro.dnswire.builder import make_query, make_response
from repro.errors import (
    CompressionError,
    DnsWireError,
    MessageMalformed,
    MessageTruncated,
)
from repro.errors import NameError_ as DnsNameError

__all__ = [
    "CLASS_ANY",
    "CLASS_IN",
    "CompressionError",
    "DnsNameError",
    "DnsWireError",
    "Header",
    "Message",
    "MessageMalformed",
    "MessageTruncated",
    "Name",
    "OPCODE_QUERY",
    "Question",
    "RCODE_FORMERR",
    "RCODE_NOERROR",
    "RCODE_NXDOMAIN",
    "RCODE_REFUSED",
    "RCODE_SERVFAIL",
    "ResourceRecord",
    "TYPE_A",
    "TYPE_AAAA",
    "TYPE_CNAME",
    "TYPE_MX",
    "TYPE_NS",
    "TYPE_OPT",
    "TYPE_PTR",
    "TYPE_SOA",
    "TYPE_TXT",
    "class_name",
    "make_query",
    "make_response",
    "memo_stats",
    "rcode_name",
    "type_name",
]
