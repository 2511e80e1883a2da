"""Convenience builders for queries and responses.

These mirror what ``dig`` and a recursive resolver would produce: queries
with RD set and EDNS attached; responses echoing the question with RA set.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Tuple, Union

from repro.dnswire.edns import add_edns
from repro.dnswire.message import Header, Message, Question, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.types import CLASS_IN, RCODE_NOERROR, TYPE_A
from repro.errors import MessageMalformed

NameLike = Union[str, Name]

#: Bound of :data:`_QUERY_TEMPLATES`; a full table is emptied.  A campaign
#: asks for a handful of (domain, type) pairs (3 on both campaign workloads
#: of the benchmark); the bound is for a caller that sweeps names.
_QUERY_TEMPLATES_MAX = 1024
#: (domain as given, qtype) -> the wire of ``make_query(domain, qtype)``
#: after its two id bytes.
_QUERY_TEMPLATES: Dict[Tuple[str, int], bytes] = {}


def _as_name(value: NameLike) -> Name:
    return value if isinstance(value, Name) else Name.from_text(value)


def make_query(
    qname: NameLike,
    qtype: int = TYPE_A,
    msg_id: Optional[int] = None,
    recursion_desired: bool = True,
    edns: bool = True,
    rng: Optional[random.Random] = None,
) -> Message:
    """Build a standard query message.

    RFC 8484 recommends ``msg_id = 0`` for DoH (cache friendliness); pass
    ``msg_id=0`` explicitly for that. By default a random ID is chosen from
    ``rng`` (or the module RNG).
    """
    if msg_id is None:
        msg_id = (rng or random).randint(0, 0xFFFF)
    message = Message(
        header=Header(msg_id=msg_id, qr=False, rd=recursion_desired),
        questions=[Question(_as_name(qname), qtype, CLASS_IN)],
    )
    if edns:
        add_edns(message)
    return message


def make_query_wire(domain: str, qtype: int, msg_id: int) -> bytes:
    """``make_query(domain, qtype, msg_id=msg_id).to_wire()``, with the
    message built and encoded once per (domain, qtype): only the two id
    bytes differ from one query to the next."""
    key = (domain, qtype)
    tail = _QUERY_TEMPLATES.get(key)
    if tail is None:
        tail = make_query(domain, qtype, msg_id=0).to_wire()[2:]
        if len(_QUERY_TEMPLATES) >= _QUERY_TEMPLATES_MAX:
            _QUERY_TEMPLATES.clear()
        _QUERY_TEMPLATES[key] = tail
    if not 0 <= msg_id <= 0xFFFF:
        raise MessageMalformed(f"message id {msg_id} out of range")
    return msg_id.to_bytes(2, "big") + tail


def make_response(
    query: Message,
    answers: Iterable[ResourceRecord] = (),
    authorities: Iterable[ResourceRecord] = (),
    additionals: Iterable[ResourceRecord] = (),
    rcode: int = RCODE_NOERROR,
    authoritative: bool = False,
    recursion_available: bool = True,
) -> Message:
    """Build a response echoing the query's ID and question section."""
    header = Header(
        msg_id=query.header.msg_id,
        qr=True,
        opcode=query.header.opcode,
        aa=authoritative,
        rd=query.header.rd,
        ra=recursion_available,
        rcode=rcode,
    )
    return Message(
        header=header,
        questions=list(query.questions),
        answers=list(answers),
        authorities=list(authorities),
        additionals=list(additionals),
    )
