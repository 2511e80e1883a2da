"""Resolver deployments: sites, anycast, service models, reliability.

A :class:`ResolverDeployment` describes one hostname from the study —
where it runs (one unicast site or an anycast site set), which TLS versions
and HTTP versions it speaks, how fast it serves cache hits, whether it
answers ICMP, and how often connections to it fail.  ``activate`` wires
all of that onto simulated hosts: recursive engines, frontends, ICMP
policies, SYN-admission policies, and (for anycast) the shared service IP.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.seeding import derive_rng
from repro.errors import CampaignConfigError
from repro.netsim.host import Host
from repro.netsim.icmp import IcmpPolicy
from repro.netsim.network import Network
from repro.netsim.packet import Segment
from repro.resolver.cache import DnsCache
from repro.resolver.frontends import Frontend
from repro.resolver.recursive import RecursiveResolver, RootHints
from repro.tlssim.handshake import TlsServerConfig
from repro.transports import TRANSPORTS


@dataclass
class ProcessingModel:
    """Service-time distribution of a resolver frontend.

    Cache hits cost ``base_ms`` plus exponential jitter of scale
    ``jitter_ms``; with probability ``slow_tail_p`` an extra heavy-tail
    component of scale ``slow_tail_ms`` is added (GC pauses, overload).
    Cache misses additionally pay the real recursive walk, which the
    engine performs over the network — no modelled constant is added here.
    """

    base_ms: float = 2.0
    jitter_ms: float = 1.0
    slow_tail_p: float = 0.02
    slow_tail_ms: float = 30.0

    def sample_ms(self, rng: random.Random) -> float:
        delay = self.base_ms
        if self.jitter_ms > 0:
            delay += rng.expovariate(1.0 / self.jitter_ms)
        if self.slow_tail_p > 0 and rng.random() < self.slow_tail_p:
            delay += rng.expovariate(1.0 / self.slow_tail_ms)
        return delay


@dataclass
class ReliabilityModel:
    """Failure behaviour of a deployment.

    The paper's dominant error class is connection-establishment failure;
    the model splits that into refusals (fast RST) and blackholes (client
    times out), plus a server-side failure rate (HTTP 5xx / SERVFAIL).
    """

    connect_refuse_p: float = 0.0
    connect_drop_p: float = 0.0
    server_failure_p: float = 0.0

    def __post_init__(self) -> None:
        total = self.connect_refuse_p + self.connect_drop_p
        if total >= 1.0:
            raise CampaignConfigError("connection failure probabilities sum to >= 1")

    def syn_verdict(self, rng: random.Random) -> str:
        roll = rng.random()
        if roll < self.connect_refuse_p:
            return "refuse"
        if roll < self.connect_refuse_p + self.connect_drop_p:
            return "drop"
        return "accept"

    def server_fails(self, rng: random.Random) -> bool:
        return self.server_failure_p > 0 and rng.random() < self.server_failure_p


@dataclass
class ResolverSite:
    """One point of presence: an attached host plus its activated services."""

    host: Host
    cache: Optional[DnsCache] = None
    engine: Optional[RecursiveResolver] = None
    frontends: List[object] = field(default_factory=list)


@dataclass
class ResolverDeployment:
    """One resolver hostname and everything it runs."""

    hostname: str
    sites: List[ResolverSite]
    service_ip: str
    anycast: bool = False
    mainstream: bool = False
    transports: Sequence[str] = ("doh", "dot", "do53")
    tls_versions: Sequence[str] = ("1.3", "1.2")
    http_versions: Sequence[str] = ("h2", "http/1.1")
    doh_path: str = "/dns-query"
    answers_icmp: bool = True
    processing: ProcessingModel = field(default_factory=ProcessingModel)
    reliability: ReliabilityModel = field(default_factory=ReliabilityModel)
    #: Extra fixed one-way relay delay (ms) applied at the frontend; models
    #: Oblivious DoH targets that sit behind a relay hop.
    odoh_relay_extra_ms: float = 0.0
    #: Whether the DoH frontend accepts application/oblivious-dns-message
    #: (true for the odoh-target-* deployments).
    supports_odoh: bool = False
    #: Optional hook rewriting every response message before it leaves a
    #: frontend: ``mutator(query, response) -> response``.  Installed by
    #: answer-fault plans (``repro.diff.faults``) to make a deployment
    #: disagree with the fleet in a controlled, seeded way; ``None`` for
    #: faithful deployments.
    response_mutator: Optional[object] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.sites:
            raise CampaignConfigError(f"{self.hostname}: deployment has no sites")
        if self.anycast and len(self.sites) < 2:
            raise CampaignConfigError(f"{self.hostname}: anycast needs >= 2 sites")

    # -- wiring ---------------------------------------------------------------

    def activate(self, network: Network, root_hints: RootHints) -> None:
        """Install caches, engines, frontends and policies on every site."""
        for index, site in enumerate(self.sites):
            # Stable derivation (not Python's salted ``hash``): two
            # processes building the same world must wire identical RNG
            # streams, or sharded campaign runs could not reproduce the
            # serial run's world.
            rng = derive_rng(self.seed, "deployment", self.hostname, index)
            site.cache = DnsCache()
            site.engine = RecursiveResolver(
                host=site.host,
                cache=site.cache,
                root_hints=root_hints,
                rng=random.Random(rng.getrandbits(32)),
            )
            site.host.icmp_policy = IcmpPolicy(responds=self.answers_icmp)
            site.host.syn_policy = self._make_syn_policy(rng)
            tls_config = TlsServerConfig(
                versions=tuple(self.tls_versions),
                alpn_preference=tuple(self.http_versions),
            )
            # One draw from the site stream per frontend, in this order:
            # it is part of every existing world's identity.
            frontends: List[object] = [
                Frontend(
                    TRANSPORTS[name], self, site,
                    random.Random(rng.getrandbits(32)), tls_config,
                )
                for name in ("do53", "dot", "doh", "doq")
                if name in self.transports
            ]
            if "doh3" in self.transports:
                # Deliberately NOT another draw from the sequential site
                # rng: the syn policy above closes over that stream and
                # draws lazily at sim time, so inserting a setup draw here
                # would shift every later connection verdict and change
                # existing worlds byte-for-byte.  A separately derived
                # stream keeps legacy behaviour untouched.
                frontends.append(
                    Frontend(
                        TRANSPORTS["doh3"], self, site,
                        derive_rng(self.seed, "deployment", self.hostname, index, "doh3"),
                    )
                )
            site.frontends = frontends
        if self.anycast:
            network.add_anycast(self.service_ip, [site.host for site in self.sites])

    def _make_syn_policy(self, rng: random.Random):
        reliability = self.reliability

        def policy(_segment: Segment) -> str:
            return reliability.syn_verdict(rng)

        return policy

    # -- convenience -------------------------------------------------------------

    def site_hosts(self) -> List[Host]:
        return [site.host for site in self.sites]

    def warm_caches(self, qnames_and_types: List[Tuple["object", int]]) -> None:
        """Pre-resolve names on every site (used to model popular domains
        that are effectively always cached, per the paper's method)."""
        for site in self.sites:
            engine = site.engine
            if engine is None:
                raise CampaignConfigError(f"{self.hostname}: activate() before warming")
            for qname, rdtype in qnames_and_types:
                engine.resolve_question(qname, rdtype, lambda _result: None)  # type: ignore[arg-type]

    def describe(self) -> str:
        kind = "anycast" if self.anycast else "unicast"
        tier = "mainstream" if self.mainstream else "non-mainstream"
        return (
            f"{self.hostname} [{tier}, {kind}, {len(self.sites)} site(s)] "
            f"ip={self.service_ip} transports={','.join(self.transports)}"
        )
