"""Tests for the measurement platform core: records, taxonomy, scheduling,
vantage points, and the campaign runner."""

import json

import pytest

from repro.analysis.table import RecordTable
from repro.core.errors_taxonomy import ErrorClass, classify_error
from repro.core.results import MeasurementRecord, ResultStore
from repro.core.runner import Campaign, CampaignConfig, ResolverTarget
from repro.core.scheduler import MS_PER_DAY, MS_PER_HOUR, PeriodicSchedule
from repro.core.vantage import make_ec2_vantage, make_home_vantage
from repro.errors import (
    CampaignConfigError,
    ConnectionRefused,
    ConnectionReset,
    ConnectTimeout,
    HttpStatusError,
    MessageTruncated,
    ProbeTimeout,
    TlsHandshakeError,
)
from repro.geo.regions import CITIES
from tests.conftest import make_quiet_network


class TestErrorTaxonomy:
    @pytest.mark.parametrize(
        "exc,expected",
        [
            (ConnectionRefused("x"), ErrorClass.CONNECT_REFUSED),
            (ConnectTimeout("x"), ErrorClass.CONNECT_TIMEOUT),
            (ConnectionReset("x"), ErrorClass.CONNECTION_RESET),
            (TlsHandshakeError("x"), ErrorClass.TLS_HANDSHAKE),
            (HttpStatusError(503), ErrorClass.HTTP_ERROR),
            (MessageTruncated("x"), ErrorClass.DNS_MALFORMED),
            (ProbeTimeout("x"), ErrorClass.TIMEOUT),
            (ValueError("x"), ErrorClass.OTHER),
        ],
    )
    def test_classification(self, exc, expected):
        assert classify_error(exc) == expected

    def test_connection_establishment_grouping(self):
        assert ErrorClass.CONNECT_REFUSED.is_connection_establishment
        assert ErrorClass.CONNECT_TIMEOUT.is_connection_establishment
        assert ErrorClass.TLS_HANDSHAKE.is_connection_establishment
        assert not ErrorClass.DNS_RCODE.is_connection_establishment
        assert not ErrorClass.TIMEOUT.is_connection_establishment


def make_record(**overrides):
    base = dict(
        campaign="test", vantage="v1", resolver="dns.example", kind="dns_query",
        transport="doh", domain="google.com", round_index=0,
        started_at_ms=1.0, duration_ms=42.0, success=True,
    )
    base.update(overrides)
    return MeasurementRecord(**base)


class TestResultStore:
    def test_json_round_trip(self):
        record = make_record(error_class=None, rcode=0, http_status=200)
        decoded = MeasurementRecord.from_json(record.to_json())
        assert decoded == record

    def test_json_is_single_line(self):
        assert "\n" not in make_record().to_json()

    def test_jsonl_persistence(self, tmp_path):
        store = ResultStore()
        store.add(make_record())
        store.add(make_record(resolver="other.example", success=False,
                              duration_ms=None, error_class="connect_refused"))
        path = tmp_path / "results.jsonl"
        assert store.save_jsonl(path) == 2
        loaded = ResultStore.load_jsonl(path)
        assert len(loaded) == 2
        assert loaded.records == store.records

    def test_filter_combinations(self):
        store = ResultStore()
        store.add(make_record(vantage="a"))
        store.add(make_record(vantage="b", kind="ping", transport="icmp"))
        store.add(make_record(vantage="a", success=False, duration_ms=None))
        assert len(store.filter(vantage="a")) == 2
        assert len(store.filter(kind="ping")) == 1
        assert len(store.filter(vantage="a", success=True)) == 1
        assert len(store.filter(predicate=lambda r: r.round_index == 0)) == 3

    def test_durations_only_successes(self):
        store = ResultStore()
        store.add(make_record(duration_ms=10.0))
        store.add(make_record(success=False, duration_ms=None))
        assert list(RecordTable.of(store).cell("dns_query").durations) == [10.0]

    def test_by_resolver_grouping(self):
        store = ResultStore()
        store.add(make_record(resolver="a"))
        store.add(make_record(resolver="a"))
        store.add(make_record(resolver="b"))
        grouped = RecordTable.of(store).by_resolver("dns_query")
        assert grouped["a"].count == 2 and grouped["b"].count == 1


class TestPeriodicSchedule:
    def test_round_starts(self):
        schedule = PeriodicSchedule(rounds=3, interval_ms=100.0, start_ms=50.0)
        assert schedule.round_starts() == [50.0, 150.0, 250.0]

    def test_a_round_every_six_hours(self):
        schedule = PeriodicSchedule(rounds=4, interval_ms=6 * MS_PER_HOUR)
        starts = schedule.round_starts()
        assert starts[1] - starts[0] == 6 * MS_PER_HOUR

    def test_three_rounds_a_day_for_two_days(self):
        schedule = PeriodicSchedule(rounds=3 * 2, interval_ms=MS_PER_DAY / 3)
        assert schedule.rounds == 6
        assert schedule.interval_ms == pytest.approx(8 * MS_PER_HOUR)

    def test_probe_offset_within_stagger(self):
        import random

        schedule = PeriodicSchedule(rounds=1, interval_ms=0.0, stagger_ms=0.0)
        assert schedule.probe_offset(random.Random(1)) == 0.0
        schedule = PeriodicSchedule(rounds=2, interval_ms=1000.0, stagger_ms=100.0)
        rng = random.Random(1)
        for _ in range(50):
            assert 0.0 <= schedule.probe_offset(rng) <= 100.0

    def test_invalid_schedules_rejected(self):
        with pytest.raises(CampaignConfigError):
            PeriodicSchedule(rounds=0, interval_ms=10.0)
        with pytest.raises(CampaignConfigError):
            PeriodicSchedule(rounds=2, interval_ms=10.0, stagger_ms=20.0)

    def test_total_span(self):
        schedule = PeriodicSchedule(rounds=3, interval_ms=100.0, stagger_ms=10.0)
        assert schedule.total_span_ms == 210.0


class TestVantagePoints:
    def test_ec2_and_home_profiles_differ(self):
        net = make_quiet_network()
        ec2 = make_ec2_vantage(net, "ohio", "198.18.0.1", CITIES["columbus"])
        home = make_home_vantage(net, "home", "198.18.0.2", CITIES["chicago"])
        assert ec2.kind == "ec2" and home.kind == "home"
        assert home.host.access.delay_ms > ec2.host.access.delay_ms
        assert "Chicago" in home.region_label

    def test_ec2_is_a_datacenter_and_home_is_broadband(self):
        from repro.netsim.latency import DATACENTER, HOME_BROADBAND

        net = make_quiet_network()
        ec2 = make_ec2_vantage(net, "ohio", "198.18.0.1", CITIES["columbus"])
        home = make_home_vantage(net, "home", "198.18.0.2", CITIES["chicago"])
        assert ec2.host.access is DATACENTER
        assert home.host.access is HOME_BROADBAND
        assert (home.host.name, home.city) == ("vantage-home", CITIES["chicago"])

    def test_hosts_attached_to_network(self):
        net = make_quiet_network()
        vantage = make_ec2_vantage(net, "ohio", "198.18.0.1", CITIES["columbus"])
        assert net.host_by_ip("198.18.0.1") is vantage.host


class TestCampaignValidation:
    def test_target_requires_fields(self):
        with pytest.raises(CampaignConfigError):
            ResolverTarget(hostname="", service_ip="1.2.3.4")

    def test_campaign_requires_domains(self):
        with pytest.raises(CampaignConfigError):
            CampaignConfig(name="x", domains=())

    def test_campaign_requires_vantages_and_targets(self):
        net = make_quiet_network()
        target = ResolverTarget(hostname="h", service_ip="10.0.0.1")
        with pytest.raises(CampaignConfigError):
            Campaign(net, [], [target], CampaignConfig(name="x"))
        vantage = make_ec2_vantage(net, "v", "198.18.0.1", CITIES["columbus"])
        with pytest.raises(CampaignConfigError):
            Campaign(net, [vantage], [], CampaignConfig(name="x"))


class TestCampaignRun:
    def test_records_per_round(self, mini_world):
        world = mini_world
        config = CampaignConfig(
            name="unit-campaign",
            schedule=PeriodicSchedule(
                rounds=2, interval_ms=MS_PER_HOUR,
                start_ms=world.network.loop.now, stagger_ms=0.0,
            ),
        )
        targets = world.targets(["dns.google", "dns.brahma.world"])
        store = Campaign(
            network=world.network,
            vantages=[world.vantage("ec2-ohio")],
            targets=targets,
            config=config,
        ).run()
        # 2 rounds x 2 resolvers x (3 domains + 1 ping) = 16 records.
        assert len(store) == 16
        assert len(store.filter(kind="ping")) == 4
        assert len(store.filter(kind="dns_query")) == 12
        assert {r.campaign for r in store} == {"unit-campaign"}
        assert {r.round_index for r in store} == {0, 1}

    def test_ping_disabled(self, mini_world):
        world = mini_world
        config = CampaignConfig(
            name="no-ping",
            schedule=PeriodicSchedule(
                rounds=1, interval_ms=1.0, start_ms=world.network.loop.now
            ),
            ping=False,
        )
        store = Campaign(
            network=world.network,
            vantages=[world.vantage("ec2-ohio")],
            targets=world.targets(["dns.google"]),
            config=config,
        ).run()
        assert len(store.filter(kind="ping")) == 0

    def test_dead_resolver_yields_failures(self, mini_world):
        world = mini_world
        config = CampaignConfig(
            name="dead-check",
            schedule=PeriodicSchedule(
                rounds=1, interval_ms=1.0, start_ms=world.network.loop.now
            ),
        )
        store = Campaign(
            network=world.network,
            vantages=[world.vantage("ec2-ohio")],
            targets=world.targets(["dns.pumplex.com"]),
            config=config,
        ).run()
        queries = store.filter(kind="dns_query")
        assert queries and all(not record.success for record in queries)
        assert all(
            record.error_class in ("connect_timeout", "timeout") for record in queries
        )
