"""Recursive resolver substrate.

A resolver *deployment* (one hostname from the study, e.g. ``dns.google``)
consists of one or more *sites*; each site is a simulated host running a
:class:`~repro.resolver.recursive.RecursiveResolver` behind one
:class:`~repro.resolver.frontends.Frontend` per transport it serves.
Mainstream resolvers announce a shared anycast address from many sites;
most non-mainstream resolvers run a single unicast site, which is
precisely the property the paper measures.

Resolution is genuine: on a cache miss the recursive engine walks the
simulated root → TLD → authoritative hierarchy with real RFC 1035 wire
messages over simulated UDP, follows referrals and CNAMEs, and caches by
TTL.  Cache hits — the paper's measurement regime — answer after a
processing delay drawn from the deployment's service-time distribution.
"""

from repro.resolver.cache import CacheStats, DnsCache
from repro.resolver.zones import Zone, ZoneSet, build_world_zones
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.recursive import RecursiveResolver, RootHints
from repro.resolver.frontends import Frontend
from repro.resolver.deployment import (
    ProcessingModel,
    ReliabilityModel,
    ResolverDeployment,
    ResolverSite,
)

__all__ = [
    "AuthoritativeServer",
    "CacheStats",
    "DnsCache",
    "Frontend",
    "ProcessingModel",
    "RecursiveResolver",
    "ReliabilityModel",
    "ResolverDeployment",
    "ResolverSite",
    "RootHints",
    "Zone",
    "ZoneSet",
    "build_world_zones",
]
