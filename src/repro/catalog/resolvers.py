"""The 91 public DoH resolvers measured by the study.

Each entry carries the deployment metadata the simulated world needs:

* **cities** — where the resolver's site(s) run; more than one city means
  an anycast deployment (mainstream resolvers are heavily replicated, the
  long tail is mostly single-site unicast, which is the paper's core
  observation);
* **perf** — a service-time tier (or explicit override) for the resolver's
  frontend processing;
* **reliability** — a failure tier (connection refusals, silent drops,
  server errors); two catalog entries are dead (stale DNSCrypt-list rows);
* **answers_icmp** — whether ping probes get replies;
* **region** — the GeoLite2-style grouping used by the paper's figures
  (``None`` reproduces the six resolvers that "were unable to return a
  location").

Site placements and tiers are seeded from public knowledge of each
operator (e.g. Cloudflare/Google/Quad9/NextDNS run global anycast; TWNIC
is in Taipei; bebasid is Indonesian).  Where the paper's tables imply a
particular behaviour (e.g. ``doh.ffmuc.net``'s ~70 ms median even from
Frankfurt), the tier encodes it.  See DESIGN.md §2 for the substitution
rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import CatalogError

#: Service-time tiers: (base_ms, jitter_ms, slow_tail_p, slow_tail_ms).
PERF_TIERS: Dict[str, Tuple[float, float, float, float]] = {
    "blazing": (0.5, 0.3, 0.005, 15.0),
    "fast": (1.0, 0.5, 0.01, 20.0),
    "quick": (1.8, 0.8, 0.01, 25.0),
    "normal": (2.5, 1.5, 0.02, 30.0),
    "slow": (5.0, 3.0, 0.05, 60.0),
    "variable": (4.0, 2.5, 0.25, 150.0),
    "overloaded": (30.0, 15.0, 0.3, 150.0),
}

#: Reliability tiers: (connect_refuse_p, connect_drop_p, server_failure_p).
RELIABILITY_TIERS: Dict[str, Tuple[float, float, float]] = {
    "rock": (0.001, 0.001, 0.0005),
    "solid": (0.004, 0.004, 0.002),
    "good": (0.012, 0.012, 0.006),
    "fair": (0.03, 0.03, 0.012),
    "flaky": (0.06, 0.07, 0.025),
    "bad": (0.12, 0.15, 0.05),
}


@dataclass(frozen=True)
class CatalogEntry:
    """One resolver from the study list."""

    hostname: str
    operator: str
    region: Optional[str]  # "NA" | "EU" | "AS" | "OC" | None (unlocatable)
    cities: Tuple[str, ...]  # city keys from repro.geo.regions.CITIES
    mainstream: bool = False
    perf: str = "normal"
    perf_override: Optional[Tuple[float, float, float, float]] = None
    reliability: str = "good"
    answers_icmp: bool = True
    tls_versions: Tuple[str, ...] = ("1.3", "1.2")
    http_versions: Tuple[str, ...] = ("h2", "http/1.1")
    transports: Tuple[str, ...] = ("doh", "dot", "do53")
    odoh: bool = False
    dead: bool = False

    def __post_init__(self) -> None:
        if not self.cities:
            raise CatalogError(f"{self.hostname}: entry needs at least one city")
        if self.perf not in PERF_TIERS:
            raise CatalogError(f"{self.hostname}: unknown perf tier {self.perf!r}")
        if self.reliability not in RELIABILITY_TIERS:
            raise CatalogError(f"{self.hostname}: unknown reliability tier {self.reliability!r}")

    @property
    def anycast(self) -> bool:
        return len(self.cities) > 1

    @property
    def geolocatable(self) -> bool:
        return self.region is not None

    @property
    def perf_params(self) -> Tuple[float, float, float, float]:
        return self.perf_override if self.perf_override is not None else PERF_TIERS[self.perf]

    @property
    def reliability_params(self) -> Tuple[float, float, float]:
        return RELIABILITY_TIERS[self.reliability]


def _e(hostname: str, operator: str, region: Optional[str], cities, **kw) -> CatalogEntry:
    if isinstance(cities, str):
        cities = (cities,)
    return CatalogEntry(hostname=hostname, operator=operator, region=region,
                        cities=tuple(cities), **kw)


# Anycast footprints of the heavily replicated operators.
_GOOGLE_SITES = ("mountain_view", "ashburn", "chicago", "dallas", "frankfurt",
                 "london", "seoul", "tokyo", "singapore", "sydney")
_CLOUDFLARE_SITES = ("chicago", "ashburn", "los_angeles", "miami", "frankfurt",
                     "amsterdam", "london", "seoul", "tokyo", "singapore", "sydney")
_QUAD9_SITES = ("berkeley", "chicago", "ashburn", "frankfurt", "zurich",
                "amsterdam", "seoul", "tokyo", "singapore")
_NEXTDNS_SITES = ("chicago", "new_york", "los_angeles", "frankfurt",
                  "amsterdam", "tokyo", "singapore", "sydney")
_OPENDNS_SITES = ("chicago", "ashburn", "los_angeles", "frankfurt",
                  "amsterdam", "london", "singapore", "sydney")
_CLEANBROWSING_SITES = ("new_york", "los_angeles", "frankfurt", "london", "singapore")
_HE_SITES = ("fremont", "chicago", "new_york", "ashburn", "dallas", "seattle")
_CONTROLD_SITES = ("toronto", "chicago", "new_york", "los_angeles")
_MULLVAD_SITES = ("stockholm", "new_york", "los_angeles")
_ADGUARD_SITES = ("amsterdam", "new_york")
_DNS0_SITES = ("paris", "stockholm")
_ALIDNS_SITES = ("hangzhou", "beijing", "seoul", "singapore")
_DOHSB_SITES = ("amsterdam", "singapore", "new_york")
_UNCENSORED_ANYCAST_SITES = ("copenhagen", "amsterdam")

# Explicit service-time overrides used to reproduce the paper's local-winner
# claims (see DESIGN.md experiment X1): the winners are a shade faster than
# the mainstream deployments they beat from their home vantage point.
_PERF_HE = (0.4, 0.25, 0.005, 15.0)
_PERF_QUAD9 = (1.9, 0.6, 0.008, 18.0)
_PERF_CONTROLD = (1.2, 0.5, 0.01, 20.0)
_PERF_CLOUDFLARE = (2.6, 0.9, 0.008, 18.0)
_PERF_GOOGLE = (3.0, 1.0, 0.008, 18.0)
_PERF_NEXTDNS = (1.8, 0.8, 0.01, 20.0)
_PERF_BRAHMA = (0.8, 0.4, 0.01, 20.0)
_PERF_ALIDNS = (0.45, 0.3, 0.005, 15.0)
# ffmuc's median is ~70 ms even from Frankfurt (Table 3): a slow frontend
# with a heavy tail, not a distance effect.
_PERF_FFMUC = (30.0, 18.0, 0.3, 160.0)


#: Every resolver in the study, grouped by region for readability.
CATALOG: List[CatalogEntry] = [
    # ------------------------------------------------------------- North America
    _e("dns.google", "Google", "NA", _GOOGLE_SITES, mainstream=True,
       perf_override=_PERF_GOOGLE, reliability="rock"),
    _e("security.cloudflare-dns.com", "Cloudflare", "NA", _CLOUDFLARE_SITES,
       mainstream=True, perf_override=_PERF_CLOUDFLARE, reliability="rock"),
    _e("family.cloudflare-dns.com", "Cloudflare", "NA", _CLOUDFLARE_SITES,
       mainstream=True, perf_override=_PERF_CLOUDFLARE, reliability="rock"),
    _e("1dot1dot1dot1.cloudflare-dns.com", "Cloudflare", "NA", _CLOUDFLARE_SITES,
       mainstream=True, perf_override=_PERF_CLOUDFLARE, reliability="rock"),
    _e("dns.quad9.net", "Quad9", "NA", _QUAD9_SITES, mainstream=True,
       perf_override=_PERF_QUAD9, reliability="solid"),
    _e("dns9.quad9.net", "Quad9", "NA", _QUAD9_SITES, mainstream=True,
       perf_override=_PERF_QUAD9, reliability="solid"),
    _e("ordns.he.net", "Hurricane Electric", "NA", _HE_SITES,
       perf_override=_PERF_HE, reliability="solid"),
    _e("freedns.controld.com", "ControlD", "NA", _CONTROLD_SITES,
       perf_override=_PERF_CONTROLD, reliability="solid"),
    # NextDNS also serves DoQ in production.
    _e("anycast.dns.nextdns.io", "NextDNS", "NA", _NEXTDNS_SITES, mainstream=True,
       perf_override=_PERF_NEXTDNS, reliability="solid",
       transports=("doh", "dot", "do53", "doq", "doh3")),
    _e("dns.nextdns.io", "NextDNS", "NA", _NEXTDNS_SITES, mainstream=True,
       perf_override=_PERF_NEXTDNS, reliability="solid",
       transports=("doh", "dot", "do53", "doq", "doh3")),
    _e("doh.opendns.com", "Cisco OpenDNS", "NA", _OPENDNS_SITES, mainstream=True,
       perf="quick", reliability="rock"),
    _e("doh.cleanbrowsing.org", "CleanBrowsing", "NA", _CLEANBROWSING_SITES,
       mainstream=True, perf="quick", reliability="solid"),
    _e("doh.mullvad.net", "Mullvad", "NA", _MULLVAD_SITES, perf="fast",
       reliability="solid"),
    _e("adblock.doh.mullvad.net", "Mullvad", "NA", _MULLVAD_SITES, perf="fast",
       reliability="solid"),
    _e("kronos.plan9-dns.com", "Plan9-DNS", "NA", "dallas", perf="normal",
       reliability="good"),
    _e("pluton.plan9-dns.com", "Plan9-DNS", "NA", "miami", perf="normal",
       reliability="fair"),
    _e("helios.plan9-dns.com", "Plan9-DNS", "NA", "seattle", perf="slow",
       reliability="fair"),
    _e("doh.safesurfer.io", "SafeSurfer", "NA", "san_francisco", perf="slow",
       reliability="fair", answers_icmp=False),
    _e("dohtrial.att.net", "AT&T", "NA", "dallas", perf="slow", reliability="fair"),
    _e("doh.la.ahadns.net", "AhaDNS", "NA", "los_angeles", perf="variable",
       reliability="flaky"),
    _e("odoh-target.alekberg.net", "alekberg (ODoH)", "NA", "new_york",
       perf="slow", reliability="fair", odoh=True),
    _e("odoh-target-noads.alekberg.net", "alekberg (ODoH)", "NA", "new_york",
       perf="slow", reliability="fair", odoh=True),
    _e("odoh-target-se.alekberg.net", "alekberg (ODoH)", "NA", "new_york",
       perf="slow", reliability="fair", odoh=True),
    _e("odoh-target-noads-se.alekberg.net", "alekberg (ODoH)", "NA", "new_york",
       perf="slow", reliability="fair", odoh=True),
    _e("doh.crypto.sx", "crypto.sx", "NA", "montreal", perf="normal",
       reliability="good"),
    _e("commons.host", "Commons Host", "NA", "toronto", perf="slow",
       reliability="flaky"),
    _e("doh.westus.pi-dns.com", "pi-dns", "NA", "los_angeles", perf="slow",
       reliability="flaky", answers_icmp=False),
    _e("doh.dnslify.com", "DNSlify", "NA", "new_york", perf="normal",
       reliability="bad", dead=True),  # service shut down; stale list entry
    # ----------------------------------------------------------------- Europe
    _e("dns10.quad9.net", "Quad9", "EU", _QUAD9_SITES, mainstream=True,
       perf_override=_PERF_QUAD9, reliability="solid"),
    _e("dns11.quad9.net", "Quad9", "EU", _QUAD9_SITES, mainstream=True,
       perf_override=_PERF_QUAD9, reliability="solid"),
    _e("dns12.quad9.net", "Quad9", "EU", _QUAD9_SITES, mainstream=True,
       perf_override=_PERF_QUAD9, reliability="solid"),
    # AdGuard runs DoQ in production alongside DoH/DoT.
    _e("dns.adguard.com", "AdGuard", "EU", _ADGUARD_SITES, perf="quick",
       reliability="solid", transports=("doh", "dot", "do53", "doq", "doh3")),
    _e("dns-family.adguard.com", "AdGuard", "EU", _ADGUARD_SITES, perf="quick",
       reliability="solid", transports=("doh", "dot", "do53", "doq", "doh3")),
    _e("dns-unfiltered.adguard.com", "AdGuard", "EU", _ADGUARD_SITES, perf="quick",
       reliability="solid", transports=("doh", "dot", "do53", "doq", "doh3")),
    _e("doh.dnscrypt.uk", "dnscrypt.uk", "EU", "london", perf="normal",
       reliability="good"),
    _e("v.dnscrypt.uk", "dnscrypt.uk", "EU", "london", perf="normal",
       reliability="good"),
    _e("dns1.ryan-palmer.com", "ryan-palmer", "EU", "london", perf="normal",
       reliability="fair"),
    _e("doh.sb", "DoH.sb", "EU", _DOHSB_SITES, perf="fast", reliability="good"),
    _e("doh.libredns.gr", "LibreDNS", "EU", "athens", perf="normal",
       reliability="good"),
    _e("dns0.eu", "dns0.eu", "EU", _DNS0_SITES, perf="fast", reliability="solid"),
    _e("open.dns0.eu", "dns0.eu", "EU", _DNS0_SITES, perf="fast", reliability="solid"),
    _e("kids.dns0.eu", "dns0.eu", "EU", _DNS0_SITES, perf="fast", reliability="solid"),
    _e("dns.brahma.world", "brahma.world", "EU", "frankfurt",
       perf_override=_PERF_BRAHMA, reliability="solid"),
    _e("dnsforge.de", "dnsforge", "EU", "berlin", perf="normal", reliability="good",
       answers_icmp=False),
    _e("dns.digitalsize.net", "digitalsize", "EU", "bucharest", perf="normal",
       reliability="good"),
    _e("dns-doh.dnsforfamily.com", "DNSforFamily", "EU", "warsaw", perf="slow",
       reliability="good"),
    _e("dns-doh-no-safe-search.dnsforfamily.com", "DNSforFamily", "EU", "warsaw",
       perf="slow", reliability="good"),
    _e("dnsnl.alekberg.net", "alekberg", "EU", "amsterdam", perf="normal",
       reliability="good"),
    _e("dnsnl-noads.alekberg.net", "alekberg", "EU", "amsterdam", perf="normal",
       reliability="good"),
    _e("dns.njal.la", "Njalla", "EU", "stockholm", perf="fast", reliability="solid"),
    _e("unicast.uncensoreddns.org", "UncensoredDNS", "EU", "copenhagen",
       perf="normal", reliability="good"),
    _e("anycast.uncensoreddns.org", "UncensoredDNS", "EU",
       _UNCENSORED_ANYCAST_SITES, perf="normal", reliability="good"),
    _e("dns.switch.ch", "SWITCH", "EU", "zurich", perf="quick", reliability="solid"),
    _e("dns.digitale-gesellschaft.ch", "Digitale Gesellschaft", "EU", "zurich",
       perf="normal", reliability="good"),
    _e("dns.circl.lu", "CIRCL", "EU", "luxembourg", perf="normal",
       reliability="good"),
    _e("ibksturm.synology.me", "ibksturm", "EU", "zurich", perf="slow",
       reliability="flaky", tls_versions=("1.2",), http_versions=("http/1.1",),
       answers_icmp=False),
    _e("dnsse.alekberg.net", "alekberg", "EU", "stockholm", perf="normal",
       reliability="good"),
    _e("dnsse-noads.alekberg.net", "alekberg", "EU", "stockholm", perf="normal",
       reliability="good"),
    _e("doh.ffmuc.net", "Freifunk Munich", "EU", "munich",
       perf_override=_PERF_FFMUC, reliability="flaky"),
    _e("doh.nl.ahadns.net", "AhaDNS", "EU", "amsterdam", perf="normal",
       reliability="fair"),
    _e("chewbacca.meganerd.nl", "meganerd", "EU", "amsterdam", perf="slow",
       reliability="fair", tls_versions=("1.2",)),
    _e("doh.powerdns.org", "PowerDNS", "EU", "amsterdam", perf="normal",
       reliability="good"),
    _e("resolver-eu.lelux.fi", "Lelux", "EU", "helsinki", perf="normal",
       reliability="fair"),
    _e("doh.applied-privacy.net", "Applied Privacy", "EU", "vienna", perf="normal",
       reliability="good"),
    _e("dns.hostux.net", "Hostux", "EU", "luxembourg", perf="normal",
       reliability="good"),
    # --------------------------------------------------------------------- Asia
    _e("public.dns.iij.jp", "IIJ", "AS", "tokyo", perf="fast", reliability="solid"),
    _e("doh.360.cn", "Qihoo 360", "AS", "beijing", perf="slow", reliability="flaky"),
    _e("dnslow.me", "dnslow", "AS", "shanghai", perf="normal", reliability="fair"),
    _e("jp.tiar.app", "tiar.app", "AS", "tokyo", perf="normal", reliability="good"),
    _e("doh.tiar.app", "tiar.app", "AS", "tokyo", perf="variable",
       reliability="fair", answers_icmp=False),
    _e("doh.pub", "Tencent", "AS", "beijing", perf="fast", reliability="good"),
    _e("dns.therifleman.name", "therifleman", "AS", "mumbai", perf="slow",
       reliability="fair"),
    _e("dns.alidns.com", "Alibaba", "AS", _ALIDNS_SITES,
       perf_override=_PERF_ALIDNS, reliability="solid"),
    _e("dns.bebasid.com", "BebasID", "AS", "jakarta", perf="normal",
       reliability="flaky"),
    _e("antivirus.bebasid.com", "BebasID", "AS", "bandung", perf="variable",
       reliability="flaky"),
    _e("sby-doh.limotelu.org", "limotelu", "AS", "surabaya", perf="slow",
       reliability="fair"),
    _e("pdns.itxe.net", "itxe", "AS", "jakarta", perf="slow", reliability="flaky",
       answers_icmp=False),
    _e("dns.twnic.tw", "TWNIC", "AS", "taipei", perf="normal", reliability="good"),
    _e("dns.rubyfish.cn", "rubyfish", "AS", "shanghai", perf="normal",
       reliability="fair"),
    _e("dns.233py.com", "233py", "AS", "beijing", perf="slow", reliability="flaky"),
    # ------------------------------------------------------------------ Oceania
    _e("adl.adfilter.net", "ADFilter", "OC", "adelaide", perf="normal",
       reliability="good"),
    _e("per.adfilter.net", "ADFilter", "OC", "perth", perf="normal",
       reliability="good"),
    _e("syd.adfilter.net", "ADFilter", "OC", "sydney", perf="normal",
       reliability="good"),
    _e("doh.seby.io", "seby", "OC", "sydney", perf="slow", reliability="fair"),
    _e("doh-2.seby.io", "seby", "OC", "sydney", perf="slow", reliability="fair"),
    # -------------------------------------------------- no geolocation available
    _e("puredns.org", "PureDNS", None, "singapore", perf="normal",
       reliability="fair"),
    _e("family.puredns.org", "PureDNS", None, "singapore", perf="normal",
       reliability="fair"),
    _e("jcdns.fun", "jcdns", None, "hong_kong", perf="slow", reliability="flaky"),
    _e("doh.armadillodns.net", "ArmadilloDNS", None, "dallas", perf="slow",
       reliability="bad"),
    _e("dns.pumplex.com", "Pumplex", None, "london", perf="normal",
       reliability="bad", dead=True),  # stale list entry; never responds
    _e("doh.appliedprivacy.net", "Applied Privacy (legacy name)", None, "vienna",
       perf="normal", reliability="flaky"),
]

_BY_HOSTNAME: Dict[str, CatalogEntry] = {entry.hostname: entry for entry in CATALOG}

#: Every catalog hostname, in catalog order: a study's targets by default.
CATALOG_HOSTNAMES: Tuple[str, ...] = tuple(_BY_HOSTNAME)

#: The paper's cross-region reference set: the four best-performing
#: NA-based resolvers whose performance was also measured from Europe and
#: Asia (Google, Cloudflare, Quad9, Hurricane Electric).
REFERENCE_HOSTNAMES: Tuple[str, ...] = (
    "dns.google",
    "security.cloudflare-dns.com",
    "family.cloudflare-dns.com",
    "dns.quad9.net",
    "dns9.quad9.net",
    "ordns.he.net",
)


def entry_for(hostname: str) -> CatalogEntry:
    """The catalog entry for ``hostname`` (raises :class:`CatalogError`)."""
    entry = _BY_HOSTNAME.get(hostname)
    if entry is None:
        raise CatalogError(f"unknown resolver {hostname!r}")
    return entry


def entries_by_region(region: Optional[str]) -> List[CatalogEntry]:
    """Entries whose geolocated region equals ``region`` (None = unlocatable)."""
    return [entry for entry in CATALOG if entry.region == region]

