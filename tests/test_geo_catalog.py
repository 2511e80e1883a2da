"""Tests for the geolocation substrate and the resolver catalog."""

import pytest

from repro.analysis.tables import table1_rows
from repro.catalog.browsers import (
    BROWSER_MATRIX,
    PROVIDER_HOSTNAMES,
    PROVIDERS,
    mainstream_hostnames,
)
from repro.catalog.resolvers import (
    CATALOG,
    PERF_TIERS,
    REFERENCE_HOSTNAMES,
    RELIABILITY_TIERS,
    entries_by_region,
    entry_for,
)
from repro.errors import AddressError, CatalogError, GeoError
from repro.geo.db import GeoDatabase, GeoRecord
from repro.geo.ipalloc import IpAllocator
from repro.geo.regions import CITIES

#: Paper Table 1's columns, in its order.
TABLE1_PROVIDERS = ("Cloudflare", "Google", "Quad9", "NextDNS", "CleanBrowsing", "OpenDNS")


class TestRegions:
    def test_all_cities_have_valid_continents(self):
        for city in CITIES.values():
            assert city.continent in ("NA", "SA", "EU", "AS", "AF", "OC")

    def test_study_cities_present(self):
        for key in ("chicago", "columbus", "frankfurt", "seoul"):
            assert key in CITIES


class TestIpAllocator:
    def test_sequential_allocation(self):
        allocator = IpAllocator()
        first = allocator.allocate("vantage", "a")
        second = allocator.allocate("vantage", "b")
        assert first != second
        assert first.startswith("198.18.")

    def test_memoized_by_owner(self):
        allocator = IpAllocator()
        assert allocator.allocate("resolver", "x") == allocator.allocate("resolver", "x")
        assert allocator.allocated_count == 1

    def test_unknown_block_rejected(self):
        with pytest.raises(AddressError):
            IpAllocator().allocate("nope", "x")

    def test_reverse_lookup(self):
        allocator = IpAllocator()
        address = allocator.allocate("anycast", "svc")
        assert allocator.owner_of(address) == "svc"
        with pytest.raises(AddressError):
            allocator.owner_of("1.2.3.4")

    def test_blocks_disjoint(self):
        allocator = IpAllocator()
        ips = {allocator.allocate(block, "x") for block in
               ("vantage", "resolver", "anycast", "infra", "auth")}
        assert len(ips) == 5


class TestGeoDatabase:
    def test_register_and_lookup(self):
        db = GeoDatabase()
        db.register_city("10.0.0.1", CITIES["frankfurt"])
        record = db.lookup("10.0.0.1")
        assert record.country == "DE"
        assert record.continent == "EU"

    def test_unknown_ip_raises(self):
        with pytest.raises(GeoError):
            GeoDatabase().lookup("10.0.0.1")

    def test_lookup_or_none(self):
        db = GeoDatabase()
        assert db.lookup_or_none("10.0.0.1") is None

    def test_continent_of(self):
        db = GeoDatabase()
        db.register_city("10.0.0.1", CITIES["seoul"])
        assert db.continent_of("10.0.0.1") == "AS"
        assert db.continent_of("10.0.0.2") is None

    def test_contains_and_len(self):
        db = GeoDatabase()
        db.register_city("10.0.0.1", CITIES["tokyo"])
        assert "10.0.0.1" in db and len(db) == 1


class TestCatalog:
    def test_91_resolvers(self):
        assert len(CATALOG) == 91

    def test_hostnames_unique(self):
        assert len({entry.hostname for entry in CATALOG}) == 91

    def test_six_unlocatable(self):
        assert len(entries_by_region(None)) == 6

    def test_region_totals(self):
        assert len(entries_by_region("EU")) == 33 + 4  # paper's 33 + extra list rows
        assert len(entries_by_region("AS")) >= 13

    def test_all_cities_known(self):
        for entry in CATALOG:
            for city in entry.cities:
                assert city in CITIES, f"{entry.hostname}: {city}"

    def test_anycast_iff_multiple_cities(self):
        for entry in CATALOG:
            assert entry.anycast == (len(entry.cities) > 1)

    def test_mainstream_all_anycast(self):
        for entry in CATALOG:
            if entry.mainstream:
                assert entry.anycast, entry.hostname

    def test_most_non_mainstream_unicast(self):
        non_main = [entry for entry in CATALOG if not entry.mainstream]
        unicast = [entry for entry in non_main if not entry.anycast]
        assert len(unicast) / len(non_main) > 0.75

    def test_perf_and_reliability_params_resolve(self):
        for entry in CATALOG:
            base, jitter, tail_p, tail_ms = entry.perf_params
            assert base > 0 and jitter >= 0 and 0 <= tail_p <= 1 and tail_ms >= 0
            refuse, drop, fail = entry.reliability_params
            assert 0 <= refuse < 1 and 0 <= drop < 1 and 0 <= fail < 1

    def test_entry_for_known_and_unknown(self):
        assert entry_for("dns.google").mainstream
        with pytest.raises(CatalogError):
            entry_for("not.a.resolver")

    def test_reference_set_contains_he_and_big_three(self):
        hostnames = {entry_for(hostname).hostname for hostname in REFERENCE_HOSTNAMES}
        assert "ordns.he.net" in hostnames
        assert "dns.google" in hostnames
        assert "dns.quad9.net" in hostnames

    def test_paper_winners_present(self):
        for winner in ("ordns.he.net", "freedns.controld.com",
                       "dns.brahma.world", "dns.alidns.com"):
            entry_for(winner)

    def test_some_resolvers_dead(self):
        dead = [entry for entry in CATALOG if entry.dead]
        assert 1 <= len(dead) <= 5

    def test_some_resolvers_refuse_icmp(self):
        silent = [entry for entry in CATALOG if not entry.answers_icmp]
        assert len(silent) >= 3

    def test_odoh_targets_marked(self):
        odoh = [entry for entry in CATALOG if entry.odoh]
        assert len(odoh) == 4
        assert all("odoh-target" in entry.hostname for entry in odoh)

    def test_tier_tables_well_formed(self):
        for tier in PERF_TIERS.values():
            assert len(tier) == 4
        for tier in RELIABILITY_TIERS.values():
            assert len(tier) == 3

    def test_invalid_tier_rejected(self):
        from repro.catalog.resolvers import CatalogEntry

        with pytest.raises(CatalogError):
            CatalogEntry(hostname="x", operator="x", region="NA",
                         cities=("chicago",), perf="warp-speed")

    def test_empty_cities_rejected(self):
        from repro.catalog.resolvers import CatalogEntry

        with pytest.raises(CatalogError):
            CatalogEntry(hostname="x", operator="x", region="NA", cities=())


class TestBrowserMatrix:
    @pytest.mark.parametrize("browser,offered", [
        ("Chrome", {"Cloudflare", "Google", "Quad9", "NextDNS", "CleanBrowsing"}),
        ("Firefox", {"Cloudflare", "NextDNS"}),
        ("Edge", set(TABLE1_PROVIDERS)),
        ("Opera", {"Cloudflare", "Google"}),
        ("Brave", set(TABLE1_PROVIDERS)),
    ])
    def test_paper_table1_rows(self, browser, offered):
        assert set(BROWSER_MATRIX) == {"Chrome", "Firefox", "Edge", "Opera", "Brave"}
        header, rows = table1_rows()
        matrix = {row[0]: dict(zip(header[1:], row[1:])) for row in rows}
        assert matrix[browser] == {
            provider: "yes" if provider in offered else "" for provider in TABLE1_PROVIDERS
        }

    def test_firefox_offers_two(self):
        assert set(BROWSER_MATRIX["Firefox"]) == {"Cloudflare", "NextDNS"}

    def test_edge_and_brave_offer_all_six(self):
        assert set(BROWSER_MATRIX["Edge"]) == set(PROVIDERS)
        assert set(BROWSER_MATRIX["Brave"]) == set(PROVIDERS)

    def test_opera_offers_cloudflare_and_google(self):
        assert set(BROWSER_MATRIX["Opera"]) == {"Cloudflare", "Google"}

    def test_cloudflare_in_every_browser(self):
        assert all("Cloudflare" in offered for offered in BROWSER_MATRIX.values())

    def test_provider_hostnames_resolve_in_catalog(self):
        for hostnames in PROVIDER_HOSTNAMES.values():
            for hostname in hostnames:
                entry = entry_for(hostname)
                assert entry.mainstream, hostname

    def test_mainstream_hostnames_match_catalog_flags(self):
        assert set(mainstream_hostnames()) == {
            entry.hostname for entry in CATALOG if entry.mainstream
        }

    def test_chrome_offers_all_but_opendns(self):
        assert set(BROWSER_MATRIX["Chrome"]) == set(PROVIDERS) - {"OpenDNS"}
