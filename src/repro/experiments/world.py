"""Builds the simulated Internet the study runs on.

One call — :func:`build_world` — assembles:

* the event loop, latency model and network fabric;
* the DNS infrastructure (root, TLD and authoritative servers, each
  serving only its own zones, placed at realistic locations);
* all 91 resolver deployments from the catalog (sites, anycast groups,
  frontends, recursive engines, reliability policies, dead hosts);
* the geolocation database covering every locatable service address;
* the study's vantage points (four Chicago home devices, EC2 Ohio /
  Frankfurt / Seoul).

Everything is seeded, so two worlds built with the same seed behave
identically packet for packet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.catalog.resolvers import CATALOG, CatalogEntry
from repro.core.runner import ResolverTarget
from repro.core.vantage import VantagePoint, make_ec2_vantage, make_home_vantage
from repro.dnswire.name import Name
from repro.dnswire.types import TYPE_A
from repro.errors import CampaignConfigError
from repro.geo.db import GeoDatabase, GeoRecord
from repro.geo.ipalloc import IpAllocator
from repro.geo.regions import CITIES, City
from repro.netsim.host import Host
from repro.netsim.latency import SERVER
from repro.netsim.network import Network
from repro.netsim.trace import EventTrace
from repro.resolver.authoritative import AuthoritativeServer
from repro.resolver.deployment import (
    ProcessingModel,
    ReliabilityModel,
    ResolverDeployment,
    ResolverSite,
)
from repro.resolver.recursive import RootHints
from repro.resolver.zones import ZoneSet, build_world_zones

#: Where each piece of DNS infrastructure lives.
_INFRA_PLACEMENT = {
    "a.root-servers.net.": ("199.7.0.1", "ashburn"),
    "b.root-servers.net.": ("199.7.0.2", "frankfurt"),
    "a.gtld-servers.net.": ("199.7.0.11", "ashburn"),
    "b.gtld-servers.net.": ("199.7.0.12", "amsterdam"),
    "a0.org.afilias-nst.org.": ("199.7.0.21", "london"),
    "ns1.google.com.": ("100.64.0.1", "mountain_view"),
    "ns1.amazon.com.": ("100.64.0.2", "ashburn"),
    "ns1.wikipedia.org.": ("100.64.0.3", "ashburn"),
    "ns1.example-sites.net.": ("100.64.0.4", "new_york"),
}

#: Which zone origins each infrastructure server is authoritative for.
_INFRA_ZONES = {
    "a.root-servers.net.": (".",),
    "b.root-servers.net.": (".",),
    "a.gtld-servers.net.": ("com.", "net."),
    "b.gtld-servers.net.": ("com.", "net."),
    "a0.org.afilias-nst.org.": ("org.",),
    "ns1.google.com.": ("google.com.",),
    "ns1.amazon.com.": ("amazon.com.",),
    "ns1.wikipedia.org.": ("wikipedia.org.", "wikipedia.com."),
    "ns1.example-sites.net.": ("example-sites.net.",),
}

ROOT_HINT_ADDRESSES = ("199.7.0.1", "199.7.0.2")

#: The study's vantage points: (name, kind, city key).
DEFAULT_VANTAGES = (
    ("home-chicago-1", "home", "chicago"),
    ("home-chicago-2", "home", "chicago"),
    ("home-chicago-3", "home", "chicago"),
    ("home-chicago-4", "home", "chicago"),
    ("ec2-ohio", "ec2", "columbus"),
    ("ec2-frankfurt", "ec2", "frankfurt"),
    ("ec2-seoul", "ec2", "seoul"),
)

STUDY_DOMAIN_NAMES = ("google.com", "amazon.com", "wikipedia.com")


@dataclass
class World:
    """The fully wired simulated Internet."""

    network: Network
    zones: ZoneSet
    geo_db: GeoDatabase
    root_hints: RootHints
    deployments: Dict[str, ResolverDeployment]
    vantages: Dict[str, VantagePoint]
    catalog: List[CatalogEntry] = field(default_factory=list)
    #: The oblivious relay (present when the catalog has ODoH targets).
    odoh_proxy: Optional[object] = None
    odoh_proxy_name: str = "odoh-proxy.example.net"
    odoh_proxy_ip: Optional[str] = None

    def deployment(self, hostname: str) -> ResolverDeployment:
        try:
            return self.deployments[hostname]
        except KeyError:
            raise CampaignConfigError(f"no deployment for {hostname!r}")

    def vantage(self, name: str) -> VantagePoint:
        try:
            return self.vantages[name]
        except KeyError:
            raise CampaignConfigError(f"no vantage point {name!r}")

    def targets(self, hostnames: Optional[Sequence[str]] = None) -> List[ResolverTarget]:
        """Campaign targets for the given hostnames (default: whole catalog).

        A hostname this world has no catalog entry for raises
        :class:`CampaignConfigError`: a typo must not quietly measure a
        smaller set.
        """
        entries = self.catalog
        if hostnames is not None:
            wanted = set(hostnames)
            entries = [entry for entry in self.catalog if entry.hostname in wanted]
            if len(entries) != len(wanted):
                missing = wanted.difference(entry.hostname for entry in entries)
                raise CampaignConfigError(
                    f"unknown resolvers: {', '.join(sorted(missing))}"
                )
        return [
            ResolverTarget(
                hostname=entry.hostname,
                service_ip=self.deployments[entry.hostname].service_ip,
                region=entry.region,
                mainstream=entry.mainstream,
            )
            for entry in entries
        ]

    def warm_resolver_caches(self, domains: Sequence[str] = STUDY_DOMAIN_NAMES) -> None:
        """Pre-resolve the study domains on every live resolver site.

        The paper's domains are popular enough to be effectively always
        cached at real resolvers; warming reproduces that steady state so
        measurements see cache-hit behaviour from round one.
        """
        names = [Name.from_text(domain) for domain in domains]
        for deployment in self.deployments.values():
            for site in deployment.sites:
                if site.host.blackholed or site.engine is None:
                    continue
                for qname in names:
                    site.engine.resolve_question(qname, TYPE_A, lambda _r: None)
        self.network.run()

    def schedule_cache_refresh(
        self, at_ms: float, domains: Sequence[str] = STUDY_DOMAIN_NAMES
    ) -> None:
        """Re-warm every resolver's study-domain cache at a virtual instant.

        The build-time warm models the steady state kept alive by other
        clients' background demand, but its effect decays at the record
        TTL horizon (``STUDY_TTL``, 30 virtual days).  A campaign whose
        schedule starts deeper into virtual time than that would measure
        cold caches a real popular domain never shows; scheduling a
        refresh shortly before the first round restores the steady state.
        The refresh is a no-op on still-valid caches (pure cache hits,
        no network traffic), so arming it is always safe.
        """
        names = [Name.from_text(domain) for domain in domains]

        def _refresh() -> None:
            for deployment in self.deployments.values():
                for site in deployment.sites:
                    if site.host.blackholed or site.engine is None:
                        continue
                    for qname in names:
                        site.engine.resolve_question(qname, TYPE_A, lambda _r: None)

        self.network.loop.call_at(at_ms, _refresh)


def build_world(
    seed: int = 0,
    catalog: Optional[Sequence[CatalogEntry]] = None,
    vantage_spec: Sequence = DEFAULT_VANTAGES,
    trace: Optional[EventTrace] = None,
    warm_caches: bool = True,
) -> World:
    """Assemble the whole simulated Internet."""
    network = Network(seed=seed, trace=trace)
    zones = build_world_zones()
    geo_db = GeoDatabase()
    allocator = IpAllocator()
    entries = list(catalog) if catalog is not None else list(CATALOG)

    _build_infrastructure(network, zones, geo_db)
    root_hints = RootHints(list(ROOT_HINT_ADDRESSES))
    deployments = _build_deployments(network, geo_db, allocator, entries, root_hints, seed)
    vantages = _build_vantages(network, geo_db, allocator, vantage_spec)

    world = World(
        network=network,
        zones=zones,
        geo_db=geo_db,
        root_hints=root_hints,
        deployments=deployments,
        vantages=vantages,
        catalog=entries,
    )
    _maybe_build_odoh_proxy(world, allocator)
    if warm_caches:
        world.warm_resolver_caches()
    return world


def _maybe_build_odoh_proxy(world: World, allocator: IpAllocator) -> None:
    """Attach an oblivious relay when the catalog contains ODoH targets.

    The study's ``odoh-target-*`` rows are targets in the RFC 9230 sense;
    clients reach them via an independent proxy operator.  We place the
    proxy in Amsterdam (where the public alekberg-compatible relays ran).
    """
    targets = {
        hostname: deployment.service_ip
        for hostname, deployment in world.deployments.items()
        if deployment.supports_odoh
    }
    if not targets:
        return
    from repro.resolver.odoh_proxy import OdohProxy

    city = CITIES["amsterdam"]
    # A fixed address outside the hand-assigned 199.7.0.x infra range.
    ip = "199.7.1.1"
    host = world.network.attach(
        Host(
            name="odoh-proxy",
            ip=ip,
            coords=city.coords,
            continent=city.continent,
            access=SERVER,
        )
    )
    world.geo_db.register_city(ip, city)
    world.odoh_proxy = OdohProxy(host, targets)
    world.odoh_proxy_ip = ip


def _build_infrastructure(network: Network, zones: ZoneSet, geo_db: GeoDatabase) -> None:
    for server_name, (ip, city_key) in _INFRA_PLACEMENT.items():
        city = CITIES[city_key]
        host = network.attach(
            Host(
                name=f"infra-{server_name.rstrip('.')}",
                ip=ip,
                coords=city.coords,
                continent=city.continent,
                access=SERVER,
            )
        )
        server_zones = ZoneSet()
        for origin_text in _INFRA_ZONES[server_name]:
            origin = Name.from_text(origin_text)
            zone = zones.zone_at(origin)
            if zone is None:
                raise CampaignConfigError(f"zone {origin_text} missing from world zones")
            server_zones.add_zone(zone)
        AuthoritativeServer(server_zones).serve_udp(host)
        geo_db.register_city(ip, city)


def _build_deployments(
    network: Network,
    geo_db: GeoDatabase,
    allocator: IpAllocator,
    entries: Sequence[CatalogEntry],
    root_hints: RootHints,
    seed: int,
) -> Dict[str, ResolverDeployment]:
    deployments: Dict[str, ResolverDeployment] = {}
    for entry in entries:
        sites = []
        for city_key in entry.cities:
            city = CITIES[city_key]
            ip = allocator.allocate("resolver", f"{entry.hostname}/{city_key}")
            host = network.attach(
                Host(
                    name=f"site-{entry.hostname}-{city_key}",
                    ip=ip,
                    coords=city.coords,
                    continent=city.continent,
                    access=SERVER,
                )
            )
            sites.append(ResolverSite(host=host))
        if entry.anycast:
            service_ip = allocator.allocate("anycast", entry.hostname)
        else:
            service_ip = sites[0].host.ip
        base, jitter, tail_p, tail_ms = entry.perf_params
        refuse_p, drop_p, fail_p = entry.reliability_params
        deployment = ResolverDeployment(
            hostname=entry.hostname,
            sites=sites,
            service_ip=service_ip,
            anycast=entry.anycast,
            mainstream=entry.mainstream,
            transports=entry.transports,
            tls_versions=entry.tls_versions,
            http_versions=entry.http_versions,
            answers_icmp=entry.answers_icmp,
            processing=ProcessingModel(
                base_ms=base, jitter_ms=jitter, slow_tail_p=tail_p, slow_tail_ms=tail_ms
            ),
            reliability=ReliabilityModel(
                connect_refuse_p=refuse_p,
                connect_drop_p=drop_p,
                server_failure_p=fail_p,
            ),
            odoh_relay_extra_ms=12.0 if entry.odoh else 0.0,
            supports_odoh=entry.odoh,
            seed=seed,
        )
        deployment.activate(network, root_hints)
        if entry.dead:
            for site in sites:
                site.host.blackholed = True
        if entry.geolocatable:
            # GeoLite2-style record: anycast services geolocate to the
            # operator's primary city (which is exactly why the paper's
            # region labels for anycast resolvers are approximate).
            geo_db.register_city(service_ip, CITIES[entry.cities[0]])
        deployments[entry.hostname] = deployment
    return deployments


def _build_vantages(
    network: Network,
    geo_db: GeoDatabase,
    allocator: IpAllocator,
    vantage_spec: Sequence,
) -> Dict[str, VantagePoint]:
    vantages: Dict[str, VantagePoint] = {}
    for name, kind, city_key in vantage_spec:
        city = CITIES[city_key]
        ip = allocator.allocate("vantage", name)
        if kind == "ec2":
            vantage = make_ec2_vantage(network, name, ip, city)
        elif kind == "home":
            vantage = make_home_vantage(network, name, ip, city)
        else:
            raise CampaignConfigError(f"unknown vantage kind {kind!r}")
        geo_db.register_city(ip, city)
        vantages[name] = vantage
    return vantages
