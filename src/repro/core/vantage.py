"""Vantage points: where measurements run from.

The study used two kinds of vantage points, with visibly different
measurement characteristics:

* **EC2 instances** (Ohio / Frankfurt / Seoul): data-centre connectivity —
  near-zero access delay, tiny jitter;
* **home network devices** (Raspberry Pis in Chicago apartments): consumer
  broadband — several milliseconds of access delay, heavier jitter, and
  occasional loss.

A :class:`VantagePoint` pairs an attached simulated host with its profile
metadata; the factory helpers build hosts with the right access profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geo.regions import City
from repro.netsim.host import Host
from repro.netsim.latency import DATACENTER, HOME_BROADBAND, AccessProfile
from repro.netsim.network import Network


@dataclass
class VantagePoint:
    """One measurement origin."""

    name: str
    kind: str  # "ec2" | "home"
    host: Host
    city: City

    @property
    def region_label(self) -> str:
        return f"{self.city.name} ({self.kind})"


def _attach(
    network: Network, name: str, ip: str, city: City, kind: str, access: AccessProfile
) -> VantagePoint:
    host = network.attach(
        Host(
            name=f"vantage-{name}",
            ip=ip,
            coords=city.coords,
            continent=city.continent,
            access=access,
        )
    )
    return VantagePoint(name=name, kind=kind, host=host, city=city)


def make_ec2_vantage(network: Network, name: str, ip: str, city: City) -> VantagePoint:
    """Attach an EC2-profile vantage point in ``city``."""
    return _attach(network, name, ip, city, "ec2", DATACENTER)


def make_home_vantage(network: Network, name: str, ip: str, city: City) -> VantagePoint:
    """Attach a home-broadband vantage point in ``city``."""
    return _attach(network, name, ip, city, "home", HOME_BROADBAND)
