"""Authoritative DNS server logic and its UDP frontend.

Implements the RFC 1035 authoritative answering algorithm over a
:class:`~repro.resolver.zones.ZoneSet`: exact answers (AA bit set), CNAME
chasing within the server's own zones, downward referrals with glue, NODATA
with SOA, and NXDOMAIN with SOA.  Unknown zones are answered with REFUSED.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dnswire.builder import make_response
from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.types import (
    RCODE_FORMERR,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
)
from repro.errors import DnsWireError
from repro.netsim.host import Host
from repro.netsim.packet import Datagram
from repro.resolver.zones import Zone, ZoneSet

#: Per-query processing time of an authoritative server (ms).
AUTH_PROCESSING_MS = 0.2

#: Maximum CNAME chain length chased within one response.
MAX_CNAME_CHAIN = 8


class AuthoritativeServer:
    """Answers queries for the zones it serves."""

    def __init__(self, zones: ZoneSet) -> None:
        self.zones = zones
        self.queries_served = 0

    # -- core answering algorithm -------------------------------------------

    def answer(self, query: Message) -> Message:
        """Build the authoritative response for ``query``."""
        self.queries_served += 1
        question = query.question
        if question is None:
            return make_response(query, rcode=RCODE_FORMERR, recursion_available=False)
        zone = self.zones.zone_for(question.qname)
        if zone is None:
            return make_response(query, rcode=RCODE_REFUSED, recursion_available=False)

        delegation = zone.covering_delegation(question.qname)
        if delegation is not None:
            child, ns_records = delegation
            glue = self._glue_for(zone, ns_records)
            return make_response(
                query,
                authorities=ns_records,
                additionals=glue,
                authoritative=False,
                recursion_available=False,
            )

        answers: List[ResourceRecord] = []
        qname = question.qname
        for _hop in range(MAX_CNAME_CHAIN):
            exact = zone.lookup(qname, question.qtype)
            if exact:
                answers.extend(exact)
                break
            cnames = zone.lookup(qname, TYPE_CNAME)
            if cnames and question.qtype != TYPE_CNAME:
                answers.extend(cnames)
                target = cnames[0].rdata.target  # type: ignore[attr-defined]
                next_zone = self.zones.zone_for(target)
                if next_zone is None:
                    break  # target is external; the resolver chases it
                zone = next_zone
                qname = target
                continue
            break

        if answers:
            return make_response(
                query, answers=answers, authoritative=True, recursion_available=False
            )

        soa = zone.soa()
        authorities = [soa] if soa is not None else []
        if zone.has_name(qname):
            return make_response(  # NODATA
                query,
                authorities=authorities,
                authoritative=True,
                recursion_available=False,
            )
        return make_response(  # NXDOMAIN
            query,
            authorities=authorities,
            rcode=RCODE_NXDOMAIN,
            authoritative=True,
            recursion_available=False,
        )

    def _glue_for(self, zone: Zone, ns_records: List[ResourceRecord]) -> List[ResourceRecord]:
        glue = []
        for ns_record in ns_records:
            target: Optional[Name] = getattr(ns_record.rdata, "target", None)
            if target is None:
                continue
            for rdtype in (TYPE_A, TYPE_AAAA):
                glue.extend(zone.lookup(target, rdtype))
        return glue

    # -- network frontend -----------------------------------------------------

    def serve_udp(self, host: Host) -> None:
        """Bind the server to UDP port 53 on ``host``."""

        def handle(dgram: Datagram, server_host: Host) -> None:
            try:
                query = Message.from_wire(dgram.payload)
            except DnsWireError:
                return  # drop garbage, as real servers do
            response = self.answer(query)
            wire = response.to_wire()
            assert server_host.network is not None
            # Reply from the queried address/port so the client correlates.
            reply = Datagram(
                src_ip=dgram.dst_ip,
                src_port=dgram.dst_port,
                dst_ip=dgram.src_ip,
                dst_port=dgram.src_port,
                payload=wire,
            )
            server_host.network.loop.call_later(
                AUTH_PROCESSING_MS, server_host.network.transmit, server_host, reply
            )

        host.bind_udp(53, handle)
