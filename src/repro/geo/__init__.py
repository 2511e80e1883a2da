"""Offline IP geolocation — the library's GeoLite2 substitute.

The paper geolocates each resolver with MaxMind's GeoLite2 database to
group resolvers by region.  Here, every simulated prefix is registered in
a :class:`~repro.geo.db.GeoDatabase` when the world is built, and lookups
return the same city/country/continent/coordinate records GeoLite2 would.
A handful of resolver IPs are deliberately left unregistered to reproduce
the paper's "6 resolvers were unable to return a location".
"""

from repro.geo.regions import CITIES, City
from repro.geo.ipalloc import IpAllocator
from repro.geo.db import GeoDatabase, GeoRecord

__all__ = [
    "CITIES",
    "City",
    "GeoDatabase",
    "GeoRecord",
    "IpAllocator",
]
