"""Wires web servers into an existing measurement world.

The simulated zones already publish A records (``google.com``,
``amazon.com``, ``wikipedia.org``, ``host1..20.example-sites.net``);
:func:`attach_web_servers` attaches hosts at those exact addresses running
:class:`~repro.webload.server.StaticWebServer`, so that a page whose
objects live on those domains is loadable end to end: stub DNS lookup →
recursive resolver → connect to the answer's address → fetch.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import CampaignConfigError
from repro.geo.regions import CITIES
from repro.netsim.host import Host
from repro.netsim.latency import SERVER
from repro.resolver.zones import STUDY_DOMAINS
from repro.webload.page import PageSpec
from repro.webload.server import StaticWebServer

#: Where each study-domain web property is hosted.
_WEB_PLACEMENT: Dict[str, Tuple[str, str]] = {
    # domain: (address from the zone data, city)
    "google.com": (STUDY_DOMAINS["google.com."], "mountain_view"),
    "amazon.com": (STUDY_DOMAINS["amazon.com."], "ashburn"),
    "wikipedia.org": (STUDY_DOMAINS["wikipedia.org."], "ashburn"),
}

#: example-sites hosts: hostN.example-sites.net -> 100.64.1.(N+1) (zone data),
#: spread across cities like a small CDN-less web.
_EXAMPLE_CITIES = ("new_york", "chicago", "frankfurt", "london", "tokyo",
                   "singapore", "sydney", "los_angeles")


def attach_web_servers(
    world,
    example_hosts: int = 8,
) -> Dict[str, StaticWebServer]:
    """Attach web servers for the study domains + N example hosts.

    Returns a mapping domain -> server.  Servers are keyed by the domain
    whose zone A record points at them; register page objects on them via
    :func:`register_page`.
    """
    servers: Dict[str, StaticWebServer] = {}
    placements = dict(_WEB_PLACEMENT)
    for index in range(1, example_hosts + 1):
        domain = f"host{index}.example-sites.net"
        address = f"100.64.1.{index + 1}"
        city = _EXAMPLE_CITIES[(index - 1) % len(_EXAMPLE_CITIES)]
        placements[domain] = (address, city)

    for domain, (address, city_key) in placements.items():
        city = CITIES[city_key]
        host = world.network.attach(
            Host(
                name=f"web-{domain}",
                ip=address,
                coords=city.coords,
                continent=city.continent,
                access=SERVER,
            )
        )
        servers[domain] = StaticWebServer(host)
    return servers


def register_page(servers: Dict[str, StaticWebServer], page: PageSpec) -> None:
    """Register every object of ``page`` on its domain's server."""
    for spec in page.all_objects:
        server = servers.get(spec.domain)
        if server is None:
            raise CampaignConfigError(
                f"no web server for {spec.domain}; attach it first"
            )
        server.register(spec.name, spec.size_bytes)
