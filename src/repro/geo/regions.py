"""Continents and cities used by the simulated world.

Coordinates are real (city centroids), because the latency model converts
great-circle distance into propagation delay.  Continent codes follow the
GeoLite2 convention: NA, SA, EU, AS, AF, OC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.geo import Coordinates

@dataclass(frozen=True)
class City:
    """A named location with country and continent."""

    name: str
    country: str  # ISO 3166-1 alpha-2
    continent: str  # GeoLite2 continent code
    coords: Coordinates


def _city(name: str, country: str, continent: str, lat: float, lon: float) -> City:
    return City(name, country, continent, Coordinates(lat, lon))


#: Cities referenced by vantage points and resolver deployments.
CITIES = {
    # North America
    "chicago": _city("Chicago", "US", "NA", 41.88, -87.63),
    "columbus": _city("Columbus (us-east-2)", "US", "NA", 39.96, -83.00),
    "ashburn": _city("Ashburn", "US", "NA", 39.04, -77.49),
    "new_york": _city("New York", "US", "NA", 40.71, -74.01),
    "mountain_view": _city("Mountain View", "US", "NA", 37.39, -122.08),
    "san_francisco": _city("San Francisco", "US", "NA", 37.77, -122.42),
    "fremont": _city("Fremont", "US", "NA", 37.55, -121.99),
    "los_angeles": _city("Los Angeles", "US", "NA", 34.05, -118.24),
    "dallas": _city("Dallas", "US", "NA", 32.78, -96.80),
    "seattle": _city("Seattle", "US", "NA", 47.61, -122.33),
    "miami": _city("Miami", "US", "NA", 25.76, -80.19),
    "toronto": _city("Toronto", "CA", "NA", 43.65, -79.38),
    "montreal": _city("Montreal", "CA", "NA", 45.50, -73.57),
    "berkeley": _city("Berkeley", "US", "NA", 37.87, -122.27),
    "denver": _city("Denver", "US", "NA", 39.74, -104.99),
    "atlanta": _city("Atlanta", "US", "NA", 33.75, -84.39),
    # Europe
    "frankfurt": _city("Frankfurt (eu-central-1)", "DE", "EU", 50.11, 8.68),
    "amsterdam": _city("Amsterdam", "NL", "EU", 52.37, 4.90),
    "london": _city("London", "GB", "EU", 51.51, -0.13),
    "paris": _city("Paris", "FR", "EU", 48.86, 2.35),
    "zurich": _city("Zurich", "CH", "EU", 47.38, 8.54),
    "munich": _city("Munich", "DE", "EU", 48.14, 11.58),
    "berlin": _city("Berlin", "DE", "EU", 52.52, 13.41),
    "vienna": _city("Vienna", "AT", "EU", 48.21, 16.37),
    "stockholm": _city("Stockholm", "SE", "EU", 59.33, 18.07),
    "copenhagen": _city("Copenhagen", "DK", "EU", 55.68, 12.57),
    "helsinki": _city("Helsinki", "FI", "EU", 60.17, 24.94),
    "oslo": _city("Oslo", "NO", "EU", 59.91, 10.75),
    "warsaw": _city("Warsaw", "PL", "EU", 52.23, 21.01),
    "prague": _city("Prague", "CZ", "EU", 50.08, 14.44),
    "athens": _city("Athens", "GR", "EU", 37.98, 23.73),
    "madrid": _city("Madrid", "ES", "EU", 40.42, -3.70),
    "milan": _city("Milan", "IT", "EU", 45.46, 9.19),
    "bucharest": _city("Bucharest", "RO", "EU", 44.43, 26.10),
    "luxembourg": _city("Luxembourg", "LU", "EU", 49.61, 6.13),
    "reykjavik": _city("Reykjavik", "IS", "EU", 64.15, -21.94),
    "dublin": _city("Dublin", "IE", "EU", 53.35, -6.26),
    # Asia
    "seoul": _city("Seoul (ap-northeast-2)", "KR", "AS", 37.57, 126.98),
    "tokyo": _city("Tokyo", "JP", "AS", 35.68, 139.69),
    "osaka": _city("Osaka", "JP", "AS", 34.69, 135.50),
    "taipei": _city("Taipei", "TW", "AS", 25.03, 121.57),
    "beijing": _city("Beijing", "CN", "AS", 39.90, 116.41),
    "shanghai": _city("Shanghai", "CN", "AS", 31.23, 121.47),
    "hangzhou": _city("Hangzhou", "CN", "AS", 30.27, 120.16),
    "hong_kong": _city("Hong Kong", "HK", "AS", 22.32, 114.17),
    "singapore": _city("Singapore", "SG", "AS", 1.35, 103.82),
    "jakarta": _city("Jakarta", "ID", "AS", -6.21, 106.85),
    "bandung": _city("Bandung", "ID", "AS", -6.92, 107.61),
    "mumbai": _city("Mumbai", "IN", "AS", 19.08, 72.88),
    "surabaya": _city("Surabaya", "ID", "AS", -7.26, 112.75),
    # Oceania
    "sydney": _city("Sydney", "AU", "OC", -33.87, 151.21),
    "perth": _city("Perth", "AU", "OC", -31.95, 115.86),
    "adelaide": _city("Adelaide", "AU", "OC", -34.93, 138.60),
}
