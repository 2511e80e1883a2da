"""Tests for the world builder, campaigns, and the paper report machinery."""

import pytest

from repro.analysis.availability import availability_report
from repro.analysis.response_times import resolver_medians
from repro.catalog.resolvers import CATALOG
from repro.core.results import ResultStore
from repro.core.scheduler import MS_PER_HOUR
from repro.errors import CampaignConfigError
from repro.experiments.campaigns import (
    EC2_VANTAGE_NAMES,
    HOME_VANTAGE_NAMES,
    ec2_campaign_config,
    home_campaign_config,
    monthly_recheck_config,
    run_study,
)
from repro.experiments.paper import PAPER_VALUES, generate_report
from repro.experiments.world import DEFAULT_VANTAGES, build_world
from tests.conftest import make_mini_world


class TestWorldBuilder:
    def test_full_world_inventory(self, full_world):
        assert len(full_world.deployments) == 91
        assert set(full_world.vantages) == {name for name, _k, _c in DEFAULT_VANTAGES}
        # 9 infra hosts + resolver sites + 7 vantages.
        assert len(full_world.network.hosts) > 100

    def test_geo_db_covers_locatable_resolvers(self, full_world):
        locatable = [entry for entry in CATALOG if entry.geolocatable]
        for entry in locatable:
            service_ip = full_world.deployments[entry.hostname].service_ip
            assert full_world.geo_db.lookup_or_none(service_ip) is not None

    def test_six_resolvers_not_geolocatable(self, full_world):
        missing = [
            entry.hostname
            for entry in CATALOG
            if full_world.geo_db.lookup_or_none(
                full_world.deployments[entry.hostname].service_ip
            ) is None
        ]
        assert len(missing) == 6

    def test_anycast_deployments_registered(self, full_world):
        google = full_world.deployment("dns.google")
        assert google.anycast
        assert full_world.network.is_anycast(google.service_ip)
        assert len(full_world.network.anycast_sites(google.service_ip)) == len(google.sites)

    def test_dead_deployments_blackholed(self, full_world):
        dead = full_world.deployment("dns.pumplex.com")
        assert all(site.host.blackholed for site in dead.sites)

    def test_warm_caches_preloads_study_domains(self):
        world = make_mini_world(seed=9, warm=True)
        from repro.dnswire.name import Name
        from repro.dnswire.types import CLASS_IN, TYPE_A

        site = world.deployment("dns.brahma.world").sites[0]
        key = (Name.from_text("google.com."), TYPE_A, CLASS_IN)
        assert key in site.cache

    def test_unknown_names_raise(self, mini_world):
        with pytest.raises(CampaignConfigError):
            mini_world.deployment("nope.example")
        with pytest.raises(CampaignConfigError):
            mini_world.vantage("nope")

    def test_targets_refuses_hostnames_it_does_not_have(self, mini_world):
        with pytest.raises(CampaignConfigError, match="dns.gogle.typo, nope.example$"):
            mini_world.targets(["dns.google", "nope.example", "dns.gogle.typo"])
        assert len(mini_world.targets(["dns.google", "dns.google"])) == 1

    def test_targets_subset(self, mini_world):
        targets = mini_world.targets(["dns.google"])
        assert len(targets) == 1
        assert targets[0].mainstream
        assert targets[0].region == "NA"

    def test_determinism_same_seed(self):
        import random

        from repro.core.probes import DohProbe, DohProbeConfig

        def measure():
            world = make_mini_world(seed=77)
            probe = DohProbe(
                world.vantage("ec2-ohio").host,
                world.deployment("dns.google").service_ip,
                "dns.google",
                DohProbeConfig(),
                rng=random.Random(5),
            )
            outcomes = []
            probe.query("google.com", outcomes.append)
            world.network.run()
            return outcomes[0].duration_ms

        assert measure() == measure()


class TestCampaignConfigs:
    def test_home_config_shape(self):
        config = home_campaign_config(rounds=4)
        assert config.name == "home-chicago"
        assert config.schedule.rounds == 4

    def test_ec2_config_shape(self):
        config = ec2_campaign_config(rounds=6)
        assert config.schedule.rounds == 6

    def test_recheck_config_starts_later(self):
        config = monthly_recheck_config("feb-2024", start_ms=1000.0)
        assert config.schedule.start_ms == 1000.0
        assert config.name == "recheck-feb-2024"


class TestRunStudy:
    @pytest.fixture(scope="class")
    def study(self):
        world = make_mini_world(seed=4)
        store = run_study(world, home_rounds=3, ec2_rounds=3)
        return world, store

    def test_record_volume(self, study):
        world, store = study
        live_targets = len(world.targets())
        # home: 3 rounds x 4 devices; ec2: 3 rounds x 3 instances; each
        # (vantage, target) contributes 3 queries + 1 ping.
        expected = (3 * 4 + 3 * 3) * live_targets * 4
        assert len(store) == expected

    def test_both_campaigns_present(self, study):
        _world, store = study
        assert {r.campaign for r in store} == {"home-chicago", "ec2-global"}

    def test_vantage_coverage(self, study):
        _world, store = study
        assert {r.vantage for r in store} == set(HOME_VANTAGE_NAMES) | set(EC2_VANTAGE_NAMES)

    def test_availability_in_band(self, study):
        _world, store = study
        report = availability_report(store)
        # The mini catalog includes one dead and two flaky resolvers.
        assert 0.02 < report.error_rate < 0.30

    def test_anycast_resolvers_fast_from_all_ec2(self, study):
        _world, store = study
        for vantage in EC2_VANTAGE_NAMES:
            medians = resolver_medians(store, vantage=vantage)
            assert medians["dns.google"] < 80.0

    def test_unicast_resolver_distance_effect(self, study):
        _world, store = study
        frankfurt = resolver_medians(store, vantage="ec2-frankfurt")
        seoul = resolver_medians(store, vantage="ec2-seoul")
        assert frankfurt["dns.brahma.world"] * 5 < seoul["dns.brahma.world"]

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "run_study runs the EC2 campaign on the world the home campaign just "
            "finished with, but ec2_campaign_config starts its schedule at 0: "
            "every EC2 round scheduled before the home campaign's end fires at "
            "one instant with no stagger (run_fault_study and the re-checks pass "
            "start_ms=loop.now and do not).  Output-changing (AV-3's Jaccard "
            "moves 0.41 -> 0.49 against a bound of 0.5 on per-campaign worlds), "
            "so the fix belongs with the paper_scale item that moves report / "
            "figure onto the shard plan; see ROADMAP."
        ),
    )
    def test_ec2_rounds_keep_their_cadence(self, study):
        _world, store = study
        starts = {}
        for record in store:
            if record.campaign == "ec2-global":
                starts.setdefault(record.round_index, []).append(record.started_at_ms)
        first = [min(starts[index]) for index in sorted(starts)]
        assert len(first) == 3
        interval, stagger = 8 * MS_PER_HOUR, 10 * 60 * 1000.0
        for earlier, later in zip(first, first[1:]):
            assert abs((later - earlier) - interval) <= stagger

    def test_recheck_campaign(self):
        world = make_mini_world(seed=6)
        store = run_study(
            world, home_rounds=0, ec2_rounds=1, recheck_months=["feb"],
            target_hostnames=["dns.google"],
        )
        assert "recheck-feb" in {r.campaign for r in store}


class TestPaperReport:
    def test_report_from_prebuilt_store(self):
        # Tiny store: mainstream fast, non-mainstream slow — just verifies
        # the claim machinery runs end to end without a full simulation.
        world = make_mini_world(seed=8)
        store = run_study(world, home_rounds=2, ec2_rounds=2)
        report = generate_report(store=store)
        assert report.claims
        ids = {claim.claim_id for claim in report.claims}
        assert "AV-1" in ids and "T2-shape" in ids
        assert "table1" in report.rendered_tables
        assert "figure1" in report.rendered_figures
        text = report.describe()
        assert "claims hold" in text

    def test_paper_values_recorded(self):
        assert PAPER_VALUES["availability.successes"] == 5_098_281
        assert PAPER_VALUES["max_median.ec2-seoul"] == 569.0
        assert len(PAPER_VALUES["table2"]) == 5
        assert len(PAPER_VALUES["table3"]) == 5
