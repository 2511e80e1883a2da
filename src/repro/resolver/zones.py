"""Zone data for the simulated DNS hierarchy.

The world has a real (if small) delegation tree::

    .  (root zone: NS for com/org/net + glue)
    ├── com.   (NS for google.com, amazon.com, …)
    ├── org.   (NS for wikipedia.org, …)
    └── net.

Leaf zones hold the A/AAAA/CNAME records the study queries.  The recursive
engine walks this tree with genuine referral responses, so cold-cache
resolution costs real round trips to root, TLD, and authoritative servers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dnswire.message import ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import ARdata, CnameRdata, NsRdata, SoaRdata, TxtRdata
from repro.dnswire.types import CLASS_IN, TYPE_A, TYPE_CNAME, TYPE_NS, TYPE_SOA, TYPE_TXT
from repro.errors import ZoneError

RRKey = Tuple[Name, int]


@dataclass
class Zone:
    """One authoritative zone: an origin plus its record sets."""

    origin: Name
    records: Dict[RRKey, List[ResourceRecord]] = field(default_factory=dict)
    #: Names of child zones delegated away from this zone.
    delegations: Dict[Name, List[ResourceRecord]] = field(default_factory=dict)

    def add(self, record: ResourceRecord) -> None:
        """Add one record; it must live at or under the origin."""
        if not record.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{record.name} is outside zone {self.origin}")
        self.records.setdefault((record.name, record.rdtype), []).append(record)

    def add_delegation(self, child: Name, ns_records: List[ResourceRecord]) -> None:
        """Delegate ``child`` to the given NS records."""
        if not child.is_subdomain_of(self.origin) or child == self.origin:
            raise ZoneError(f"cannot delegate {child} from {self.origin}")
        self.delegations[child] = list(ns_records)

    def lookup(self, name: Name, rdtype: int) -> List[ResourceRecord]:
        """Records of the exact name/type (empty list if none)."""
        return list(self.records.get((name, rdtype), []))

    def names(self) -> Iterable[Name]:
        return {name for name, _rdtype in self.records}

    def covering_delegation(self, name: Name) -> Optional[Tuple[Name, List[ResourceRecord]]]:
        """The delegation covering ``name``, if any (longest match)."""
        best: Optional[Tuple[Name, List[ResourceRecord]]] = None
        for child, ns_records in self.delegations.items():
            if name.is_subdomain_of(child):
                if best is None or len(child.labels) > len(best[0].labels):
                    best = (child, ns_records)
        return best

    def soa(self) -> Optional[ResourceRecord]:
        soas = self.records.get((self.origin, TYPE_SOA), [])
        return soas[0] if soas else None

    def has_name(self, name: Name) -> bool:
        """True if any record (of any type) exists at ``name``."""
        return any(key[0] == name for key in self.records)


class ZoneSet:
    """All zones served by one authoritative server operator."""

    def __init__(self) -> None:
        self._zones: Dict[Name, Zone] = {}

    def add_zone(self, zone: Zone) -> Zone:
        if zone.origin in self._zones:
            raise ZoneError(f"duplicate zone {zone.origin}")
        self._zones[zone.origin] = zone
        return zone

    def zone_for(self, name: Name) -> Optional[Zone]:
        """The most specific zone containing ``name``."""
        best: Optional[Zone] = None
        for origin, zone in self._zones.items():
            if name.is_subdomain_of(origin):
                if best is None or len(origin.labels) > len(best.origin.labels):
                    best = zone
        return best

    def zone_at(self, origin: Name) -> Optional[Zone]:
        return self._zones.get(origin)

    @property
    def zones(self) -> List[Zone]:
        return list(self._zones.values())

    def __len__(self) -> int:
        return len(self._zones)


def _soa(origin: str) -> ResourceRecord:
    name = Name.from_text(origin)
    return ResourceRecord(
        name=name,
        rdtype=TYPE_SOA,
        rdclass=CLASS_IN,
        ttl=3600,
        rdata=SoaRdata(
            mname=Name.from_text(f"ns1.{origin}" if origin != "." else "a.root-servers.net"),
            rname=Name.from_text(f"hostmaster.{origin}" if origin != "." else "nstld.verisign-grs.com"),
            serial=2024051200,
            refresh=7200,
            retry=900,
            expire=1209600,
            minimum=300,
        ),
    )


def _ns(owner: str, target: str, ttl: int = 172800) -> ResourceRecord:
    return ResourceRecord(
        name=Name.from_text(owner),
        rdtype=TYPE_NS,
        rdclass=CLASS_IN,
        ttl=ttl,
        rdata=NsRdata(Name.from_text(target)),
    )


def _a(owner: str, address: str, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(
        name=Name.from_text(owner),
        rdtype=TYPE_A,
        rdclass=CLASS_IN,
        ttl=ttl,
        rdata=ARdata(address),
    )


def _cname(owner: str, target: str, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(
        name=Name.from_text(owner),
        rdtype=TYPE_CNAME,
        rdclass=CLASS_IN,
        ttl=ttl,
        rdata=CnameRdata(Name.from_text(target)),
    )


def _txt(owner: str, text: str, ttl: int = 300) -> ResourceRecord:
    return ResourceRecord(
        name=Name.from_text(owner),
        rdtype=TYPE_TXT,
        rdclass=CLASS_IN,
        ttl=ttl,
        rdata=TxtRdata([text.encode("ascii")]),
    )


#: (nameserver hostname, glue address) pairs for the infrastructure servers.
#: Addresses live in the ``infra`` block; see :mod:`repro.geo.ipalloc`.
ROOT_SERVER_ADDRESSES = {
    "a.root-servers.net.": "199.7.0.1",
    "b.root-servers.net.": "199.7.0.2",
}
TLD_SERVER_ADDRESSES = {
    "a.gtld-servers.net.": "199.7.0.11",  # com/net
    "b.gtld-servers.net.": "199.7.0.12",
    "a0.org.afilias-nst.org.": "199.7.0.21",  # org
}
AUTH_SERVER_ADDRESSES = {
    "ns1.google.com.": "100.64.0.1",
    "ns1.amazon.com.": "100.64.0.2",
    "ns1.wikipedia.org.": "100.64.0.3",
    "ns1.example-sites.net.": "100.64.0.4",
}

#: Study target domains and their answer addresses.
STUDY_DOMAINS = {
    "google.com.": "142.250.64.78",
    "amazon.com.": "176.32.103.205",
    "wikipedia.com.": "208.80.154.232",  # CNAME chain to wikipedia.org
    "wikipedia.org.": "208.80.154.224",
    "example-sites.net.": "100.64.1.1",
}

#: TTL used for the study domains' A records (seconds).
#:
#: Real resolvers keep these extremely popular names permanently resident:
#: even with a 300 s record TTL, continuous background demand from other
#: clients re-fetches them long before expiry.  The simulated world has no
#: background client population, so the long TTL stands in for that
#: demand — it makes the measurement campaigns see the same steady-state
#: cache-hit behaviour the paper's method section assumes ("most people
#: query sites that are already in cache").
STUDY_TTL = 30 * 24 * 3600


def build_world_zones() -> ZoneSet:
    """Build the full zone tree used by the simulated Internet."""
    zones = ZoneSet()

    # Root zone: delegations for com/org/net plus glue.
    root = Zone(Name.root())
    root.add(_soa("."))
    for ns_host, address in ROOT_SERVER_ADDRESSES.items():
        root.add(_ns(".", ns_host, ttl=518400))
        root.add(_a(ns_host, address, ttl=518400))
    for tld in ("com.", "net."):
        delegation = [_ns(tld, "a.gtld-servers.net."), _ns(tld, "b.gtld-servers.net.")]
        for record in delegation:
            root.add(record)
        root.add_delegation(Name.from_text(tld), delegation)
    org_delegation = [_ns("org.", "a0.org.afilias-nst.org.")]
    for record in org_delegation:
        root.add(record)
    root.add_delegation(Name.from_text("org."), org_delegation)
    for ns_host, address in TLD_SERVER_ADDRESSES.items():
        root.add(_a(ns_host, address, ttl=518400))
    zones.add_zone(root)

    # com zone: delegations to google.com / amazon.com.
    com = Zone(Name.from_text("com."))
    com.add(_soa("com."))
    com.add(_ns("com.", "a.gtld-servers.net."))
    com.add(_ns("com.", "b.gtld-servers.net."))
    for domain, ns_host in (("google.com.", "ns1.google.com."), ("amazon.com.", "ns1.amazon.com.")):
        delegation = [_ns(domain, ns_host)]
        for record in delegation:
            com.add(record)
        com.add(_a(ns_host, AUTH_SERVER_ADDRESSES[ns_host]))
        com.add_delegation(Name.from_text(domain), delegation)
    # wikipedia.com is a real registration that CNAMEs into wikipedia.org.
    # Its nameserver is out-of-bailiwick (under .org), so this delegation is
    # glueless — the recursive engine must resolve ns1.wikipedia.org first.
    wikipedia_com = [_ns("wikipedia.com.", "ns1.wikipedia.org.")]
    for record in wikipedia_com:
        com.add(record)
    com.add_delegation(Name.from_text("wikipedia.com."), wikipedia_com)
    zones.add_zone(com)

    # org zone: delegation to wikipedia.org.
    org = Zone(Name.from_text("org."))
    org.add(_soa("org."))
    org.add(_ns("org.", "a0.org.afilias-nst.org."))
    wikipedia_org = [_ns("wikipedia.org.", "ns1.wikipedia.org.")]
    for record in wikipedia_org:
        org.add(record)
    org.add(_a("ns1.wikipedia.org.", AUTH_SERVER_ADDRESSES["ns1.wikipedia.org."]))
    org.add_delegation(Name.from_text("wikipedia.org."), wikipedia_org)
    zones.add_zone(org)

    # net zone: delegation to example-sites.net (used by tests/examples).
    net = Zone(Name.from_text("net."))
    net.add(_soa("net."))
    net.add(_ns("net.", "a.gtld-servers.net."))
    net.add(_ns("net.", "b.gtld-servers.net."))
    example_net = [_ns("example-sites.net.", "ns1.example-sites.net.")]
    for record in example_net:
        net.add(record)
    net.add(_a("ns1.example-sites.net.", AUTH_SERVER_ADDRESSES["ns1.example-sites.net."]))
    net.add_delegation(Name.from_text("example-sites.net."), example_net)
    zones.add_zone(net)

    # Leaf zones.
    google = Zone(Name.from_text("google.com."))
    google.add(_soa("google.com."))
    google.add(_ns("google.com.", "ns1.google.com."))
    google.add(_a("ns1.google.com.", AUTH_SERVER_ADDRESSES["ns1.google.com."]))
    google.add(_a("google.com.", STUDY_DOMAINS["google.com."], ttl=STUDY_TTL))
    google.add(_a("www.google.com.", STUDY_DOMAINS["google.com."], ttl=STUDY_TTL))
    google.add(_txt("google.com.", "v=spf1 include:_spf.google.com ~all"))
    zones.add_zone(google)

    amazon = Zone(Name.from_text("amazon.com."))
    amazon.add(_soa("amazon.com."))
    amazon.add(_ns("amazon.com.", "ns1.amazon.com."))
    amazon.add(_a("ns1.amazon.com.", AUTH_SERVER_ADDRESSES["ns1.amazon.com."]))
    amazon.add(_a("amazon.com.", STUDY_DOMAINS["amazon.com."], ttl=STUDY_TTL))
    amazon.add(_cname("www.amazon.com.", "amazon.com.", ttl=STUDY_TTL))
    zones.add_zone(amazon)

    wikipedia_com_zone = Zone(Name.from_text("wikipedia.com."))
    wikipedia_com_zone.add(_soa("wikipedia.com."))
    wikipedia_com_zone.add(_ns("wikipedia.com.", "ns1.wikipedia.org."))
    wikipedia_com_zone.add(
        _cname("wikipedia.com.", "wikipedia.org.", ttl=STUDY_TTL)
    )
    zones.add_zone(wikipedia_com_zone)

    wikipedia_org_zone = Zone(Name.from_text("wikipedia.org."))
    wikipedia_org_zone.add(_soa("wikipedia.org."))
    wikipedia_org_zone.add(_ns("wikipedia.org.", "ns1.wikipedia.org."))
    wikipedia_org_zone.add(_a("ns1.wikipedia.org.", AUTH_SERVER_ADDRESSES["ns1.wikipedia.org."]))
    wikipedia_org_zone.add(_a("wikipedia.org.", STUDY_DOMAINS["wikipedia.org."], ttl=STUDY_TTL))
    wikipedia_org_zone.add(_a("www.wikipedia.org.", STUDY_DOMAINS["wikipedia.org."], ttl=STUDY_TTL))
    zones.add_zone(wikipedia_org_zone)

    example_zone = Zone(Name.from_text("example-sites.net."))
    example_zone.add(_soa("example-sites.net."))
    example_zone.add(_ns("example-sites.net.", "ns1.example-sites.net."))
    example_zone.add(_a("ns1.example-sites.net.", AUTH_SERVER_ADDRESSES["ns1.example-sites.net."]))
    example_zone.add(_a("example-sites.net.", STUDY_DOMAINS["example-sites.net."], ttl=STUDY_TTL))
    for index in range(1, 21):
        example_zone.add(_a(f"host{index}.example-sites.net.", f"100.64.1.{index + 1}", ttl=60))
    # A deliberately oversized RRset: its TXT answer (~4 kB) exceeds any
    # UDP payload budget, exercising TC-bit truncation + TCP fallback.
    for index in range(32):
        example_zone.add(
            _txt(
                "bulk.example-sites.net.",
                f"chunk-{index:02d}-" + "x" * 100,
                ttl=60,
            )
        )
    zones.add_zone(example_zone)

    return zones
