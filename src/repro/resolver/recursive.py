"""The recursive (iterative) resolution engine.

On a cache miss the engine walks the delegation tree — root, TLD,
authoritative — with genuine wire-format queries over simulated UDP,
following referrals and CNAME chains, caching every RRset and negative
answer it learns.  Identical concurrent questions are coalesced into one
in-flight resolution, as production resolvers do.

The engine is callback-driven (the simulator is event-driven, not
threaded): ``resolve_question(name, rdtype, callback)`` fires the callback
exactly once with a :class:`ResolutionResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dnswire.builder import make_query
from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.types import (
    CLASS_IN,
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    RCODE_SERVFAIL,
    TYPE_A,
    TYPE_CNAME,
    TYPE_NS,
    TYPE_SOA,
)
from repro.errors import DnsWireError
from repro.netsim.host import Host
from repro.netsim.packet import Datagram
from repro.netsim.sockets import SimUdpSocket
from repro.resolver.cache import DnsCache

#: Per-server query timeout and per-question retry budget.
SERVER_TIMEOUT_MS = 1500.0
MAX_SERVER_ATTEMPTS = 6

#: Safety limits (mirroring unbound/bind defaults in spirit).
MAX_REFERRALS = 16
MAX_CNAME_DEPTH = 8
MAX_GLUE_FETCH_DEPTH = 4

#: Negative-cache TTL fallback when no SOA is present (seconds).
DEFAULT_NEGATIVE_TTL = 60


@dataclass
class RootHints:
    """Bootstrap addresses of the root servers."""

    addresses: List[str]

    def __post_init__(self) -> None:
        if not self.addresses:
            raise ValueError("root hints cannot be empty")


@dataclass
class ResolutionResult:
    """Outcome of one resolution."""

    rcode: int = RCODE_NOERROR
    records: List[ResourceRecord] = field(default_factory=list)
    from_cache: bool = False
    upstream_queries: int = 0

    @property
    def ok(self) -> bool:
        return self.rcode == RCODE_NOERROR


QuestionKey = Tuple[Name, int]
Callback = Callable[[ResolutionResult], None]


class RecursiveResolver:
    """Iterative resolution engine bound to one simulated host."""

    def __init__(
        self,
        host: Host,
        cache: DnsCache,
        root_hints: RootHints,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.cache = cache
        self.root_hints = root_hints
        self.rng = rng if rng is not None else random.Random(0)
        self._pending: Dict[QuestionKey, List[Callback]] = {}
        self.total_questions = 0
        self.total_upstream_queries = 0

    @property
    def _loop(self):
        assert self.host.network is not None
        return self.host.network.loop

    # -- public API -----------------------------------------------------------

    def resolve_question(self, qname: Name, rdtype: int, callback: Callback) -> None:
        """Resolve ``qname``/``rdtype``; fires ``callback`` exactly once."""
        self.total_questions += 1
        key = (qname, rdtype)
        cached = self._answer_from_cache(qname, rdtype)
        if cached is not None:
            callback(cached)
            return
        waiters = self._pending.get(key)
        if waiters is not None:
            waiters.append(callback)  # coalesce with the in-flight resolution
            return
        self._pending[key] = [callback]
        state = _ResolutionState(engine=self, qname=qname, rdtype=rdtype)
        state.start()

    # -- cache plumbing -----------------------------------------------------------

    def _answer_from_cache(self, qname: Name, rdtype: int) -> Optional[ResolutionResult]:
        """Full cache answer (following cached CNAMEs), or None."""
        now = self._loop.now
        chain: List[ResourceRecord] = []
        name = qname
        for _hop in range(MAX_CNAME_DEPTH):
            hit = self.cache.get((name, rdtype, CLASS_IN), now)
            if hit is not None:
                if hit.is_negative:
                    return ResolutionResult(
                        rcode=hit.negative_rcode or RCODE_NXDOMAIN,
                        records=chain,
                        from_cache=True,
                    )
                return ResolutionResult(records=chain + hit.records, from_cache=True)
            if rdtype != TYPE_CNAME:
                cname_hit = self.cache.get((name, TYPE_CNAME, CLASS_IN), now)
                if cname_hit is not None and not cname_hit.is_negative:
                    chain.extend(cname_hit.records)
                    name = cname_hit.records[0].rdata.target  # type: ignore[attr-defined]
                    continue
            return None
        return None

    def _cache_rrsets(self, records: List[ResourceRecord]) -> None:
        """Cache records grouped into RRsets by (name, type)."""
        now = self._loop.now
        rrsets: Dict[QuestionKey, List[ResourceRecord]] = {}
        for record in records:
            rrsets.setdefault((record.name, record.rdtype), []).append(record)
        for (name, rdtype), rrset in rrsets.items():
            self.cache.put((name, rdtype, CLASS_IN), rrset, now)

    def _complete(self, key: QuestionKey, result: ResolutionResult) -> None:
        waiters = self._pending.pop(key, [])
        for callback in waiters:
            callback(result)

    # -- nameserver selection ------------------------------------------------------

    def _closest_known_servers(self, qname: Name) -> List[str]:
        """Addresses of the closest enclosing zone's nameservers we know.

        Walks from ``qname`` toward the root looking for cached NS RRsets
        with resolvable (cached) addresses; falls back to the root hints.
        """
        now = self._loop.now
        zone = qname
        while True:
            hit = self.cache.get((zone, TYPE_NS, CLASS_IN), now)
            if hit is not None and not hit.is_negative:
                addresses = []
                for ns_record in hit.records:
                    target = getattr(ns_record.rdata, "target", None)
                    if target is None:
                        continue
                    glue = self.cache.get((target, TYPE_A, CLASS_IN), now)
                    if glue is not None and not glue.is_negative:
                        addresses.extend(
                            getattr(r.rdata, "address")
                            for r in glue.records
                            if hasattr(r.rdata, "address")
                        )
                if addresses:
                    return addresses
            if zone.is_root:
                return list(self.root_hints.addresses)
            zone = zone.parent()

    # -- one upstream query ----------------------------------------------------------

    def query_server(
        self,
        server_ip: str,
        qname: Name,
        rdtype: int,
        on_response: Callable[[Optional[Message]], None],
    ) -> None:
        """Send one non-recursive query; ``on_response(None)`` on timeout."""
        self.total_upstream_queries += 1
        query = make_query(qname, rdtype, recursion_desired=False, rng=self.rng)
        socket = SimUdpSocket(self.host)
        finished = [False]

        def finish(message: Optional[Message]) -> None:
            if finished[0]:
                return
            finished[0] = True
            timer.cancel()
            socket.close()
            on_response(message)

        timer = self._loop.call_later(SERVER_TIMEOUT_MS, finish, None)
        socket.on_datagram = lambda dgram: self._validate_and_finish(dgram, query, finish)
        socket.sendto(query.to_wire(), server_ip, 53)

    @staticmethod
    def _validate_and_finish(
        dgram: Datagram, query: Message, finish: Callable[[Optional[Message]], None]
    ) -> None:
        try:
            message = Message.from_wire(dgram.payload)
        except DnsWireError:
            return
        if message.header.msg_id != query.header.msg_id:
            return
        finish(message)


@dataclass
class _ResolutionState:
    """State of one in-flight resolution (one question key)."""

    engine: RecursiveResolver
    qname: Name
    rdtype: int
    chain: List[ResourceRecord] = field(default_factory=list)
    referrals: int = 0
    cname_hops: int = 0
    attempts: int = 0
    glue_depth: int = 0

    @property
    def key(self) -> QuestionKey:
        return (self.qname, self.rdtype)

    def start(self) -> None:
        self._ask(self._current_name())

    def _current_name(self) -> Name:
        if self.chain:
            target = getattr(self.chain[-1].rdata, "target", None)
            if target is not None:
                return target
        return self.qname

    def _fail(self, rcode: int = RCODE_SERVFAIL) -> None:
        self.engine._complete(self.key, ResolutionResult(rcode=rcode, records=list(self.chain)))

    def _succeed(self, records: List[ResourceRecord], rcode: int = RCODE_NOERROR) -> None:
        self.engine._complete(
            self.key,
            ResolutionResult(rcode=rcode, records=self.chain + records, from_cache=False),
        )

    def _ask(self, name: Name) -> None:
        servers = self.engine._closest_known_servers(name)
        self._try_servers(name, servers, 0)

    def _try_servers(self, name: Name, servers: List[str], index: int) -> None:
        if index >= len(servers) or self.attempts >= MAX_SERVER_ATTEMPTS:
            self._fail()
            return
        self.attempts += 1
        server_ip = servers[index]

        def on_response(message: Optional[Message]) -> None:
            if message is None or message.rcode not in (RCODE_NOERROR, RCODE_NXDOMAIN):
                self._try_servers(name, servers, index + 1)  # next server
                return
            self._process_response(name, message)

        self.engine.query_server(server_ip, name, self.rdtype, on_response)

    def _process_response(self, name: Name, message: Message) -> None:
        engine = self.engine
        now = engine._loop.now

        if message.rcode == RCODE_NXDOMAIN:
            ttl = self._soa_minimum(message)
            engine.cache.put_negative((name, self.rdtype, CLASS_IN), RCODE_NXDOMAIN, ttl, now)
            self._succeed([], rcode=RCODE_NXDOMAIN)
            return

        answers = [r for r in message.answers if r.rdclass == CLASS_IN]
        if answers:
            engine._cache_rrsets(answers)
            wanted = [r for r in answers if r.name == name and r.rdtype == self.rdtype]
            if wanted:
                self._succeed(answers)
                return
            cnames = [r for r in answers if r.name == name and r.rdtype == TYPE_CNAME]
            if cnames and self.rdtype != TYPE_CNAME:
                self.cname_hops += 1
                if self.cname_hops > MAX_CNAME_DEPTH:
                    self._fail()
                    return
                self.chain.extend(answers)
                target = cnames[-1].rdata.target  # type: ignore[attr-defined]
                # The rest of the answer may already resolve the target.
                resolved_here = [
                    r for r in answers if r.name == target and r.rdtype == self.rdtype
                ]
                if resolved_here:
                    self._succeed([])
                    return
                cached = engine._answer_from_cache(target, self.rdtype)
                if cached is not None and cached.ok and cached.records:
                    self._succeed(cached.records)
                    return
                self._ask(target)
                return
            # Answer section didn't contain what we asked for: give up.
            self._fail()
            return

        referral_ns = [r for r in message.authorities if r.rdtype == TYPE_NS]
        if referral_ns:
            self.referrals += 1
            if self.referrals > MAX_REFERRALS:
                self._fail()
                return
            glue = [r for r in message.additionals if r.rdtype == TYPE_A]
            engine._cache_rrsets(referral_ns + glue)
            addresses = [getattr(r.rdata, "address") for r in glue if hasattr(r.rdata, "address")]
            if addresses:
                self._try_servers(name, addresses, 0)
                return
            # Glueless delegation: resolve a nameserver address first.
            self._fetch_glue(name, referral_ns)
            return

        # NODATA: cache negatively under the SOA minimum.
        ttl = self._soa_minimum(message)
        engine.cache.put_negative((name, self.rdtype, CLASS_IN), RCODE_NOERROR, ttl, now)
        self._succeed([])

    def _fetch_glue(self, name: Name, referral_ns: List[ResourceRecord]) -> None:
        if self.glue_depth >= MAX_GLUE_FETCH_DEPTH:
            self._fail()
            return
        self.glue_depth += 1
        targets = [
            getattr(r.rdata, "target")
            for r in referral_ns
            if hasattr(r.rdata, "target")
        ]
        if not targets:
            self._fail()
            return
        target = targets[0]

        def on_glue(result: ResolutionResult) -> None:
            addresses = [
                getattr(r.rdata, "address")
                for r in result.records
                if hasattr(r.rdata, "address")
            ]
            if not result.ok or not addresses:
                self._fail()
                return
            self._try_servers(name, addresses, 0)

        self.engine.resolve_question(target, TYPE_A, on_glue)

    @staticmethod
    def _soa_minimum(message: Message) -> int:
        for record in message.authorities:
            if record.rdtype == TYPE_SOA:
                minimum = getattr(record.rdata, "minimum", None)
                if minimum is not None:
                    return min(int(minimum), 3600)
        return DEFAULT_NEGATIVE_TTL
