"""Tests for the world builder, campaigns, and the paper report machinery."""

import ast
from pathlib import Path

import pytest

import repro
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
from tests.conftest import MINI_CATALOG_HOSTNAMES, make_mini_world


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
        return run_study(
            world_seed=4, home_rounds=3, ec2_rounds=3,
            target_hostnames=MINI_CATALOG_HOSTNAMES,
        ).store

    def test_record_volume(self, study):
        # home: 3 rounds x 4 devices; ec2: 3 rounds x 3 instances; each
        # (vantage, target) contributes 3 queries + 1 ping.
        expected = (3 * 4 + 3 * 3) * len(MINI_CATALOG_HOSTNAMES) * 4
        assert len(study) == expected

    def test_both_campaigns_present(self, study):
        assert {r.campaign for r in study} == {"home-chicago", "ec2-global"}

    def test_vantage_coverage(self, study):
        assert {r.vantage for r in study} == set(HOME_VANTAGE_NAMES) | set(EC2_VANTAGE_NAMES)

    def test_availability_in_band(self, study):
        report = availability_report(study)
        # The mini catalog includes one dead and two flaky resolvers.
        assert 0.02 < report.error_rate < 0.30

    def test_anycast_resolvers_fast_from_all_ec2(self, study):
        for vantage in EC2_VANTAGE_NAMES:
            medians = resolver_medians(study, vantage=vantage)
            assert medians["dns.google"] < 80.0

    def test_unicast_resolver_distance_effect(self, study):
        frankfurt = resolver_medians(study, vantage="ec2-frankfurt")
        seoul = resolver_medians(study, vantage="ec2-seoul")
        assert frankfurt["dns.brahma.world"] * 5 < seoul["dns.brahma.world"]

    def test_ec2_rounds_keep_their_cadence(self, study):
        """The EC2 campaign runs on a world of its own from virtual time 0,
        so its rounds keep their schedule instead of bursting after the home
        campaign ends."""
        starts = {}
        for record in study:
            if record.campaign == "ec2-global":
                starts.setdefault(record.round_index, []).append(record.started_at_ms)
        first = [min(starts[index]) for index in sorted(starts)]
        assert len(first) == 3
        interval, stagger = 8 * MS_PER_HOUR, 10 * 60 * 1000.0
        for earlier, later in zip(first, first[1:]):
            assert abs((later - earlier) - interval) <= stagger

    def test_recheck_campaign(self):
        store = run_study(
            home_rounds=0, ec2_rounds=1, recheck_months=["feb", "mar"],
            target_hostnames=["dns.google"], shards=1,
        ).store
        first = {}
        for record in store:
            first[record.campaign] = min(
                first.get(record.campaign, record.started_at_ms), record.started_at_ms
            )
        assert set(first) == {"ec2-global", "recheck-feb", "recheck-mar"}
        # A month after the study's one round (and its stagger) ends, then a
        # month apart; each first probe lands within its round's stagger.
        stagger, month = 10 * 60 * 1000.0, 30 * 24 * MS_PER_HOUR
        for months, campaign in ((1, "recheck-feb"), (2, "recheck-mar")):
            assert 0 <= first[campaign] - (stagger + months * month) <= stagger

    def test_needs_a_campaign(self):
        with pytest.raises(CampaignConfigError, match="study needs"):
            run_study(home_rounds=0, ec2_rounds=0)


class TestPaperReport:
    def test_report_from_prebuilt_store(self):
        # Tiny store: mainstream fast, non-mainstream slow — just verifies
        # the claim machinery runs end to end without a full simulation.
        store = run_study(
            world_seed=8, home_rounds=2, ec2_rounds=2,
            target_hostnames=MINI_CATALOG_HOSTNAMES,
        ).store
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


# ---------------------------------------------------------------------------
# One way to run a campaign
# ---------------------------------------------------------------------------


def _calls_to(tree: ast.AST, callee: str):
    """Lines that call ``callee(...)``, by bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == callee:
                yield node.lineno


def _callers_outside_the_executor(callee: str):
    """``callee(...)`` call sites outside ``parallel/executor.py``, and the
    number inside it (so a test can check the walker sees the seam's)."""
    root = Path(repro.__file__).parent
    seam = Path("parallel", "executor.py")
    offenders = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative == seam:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{relative}:{line}" for line in _calls_to(tree, callee)]
    executor = ast.parse((root / seam).read_text(encoding="utf-8"))
    return offenders, len(list(_calls_to(executor, callee)))


def test_only_the_shard_executor_builds_a_campaign():
    """Every campaign in the package runs through plan_campaign ->
    run_parallel -> execute_shard; a second path beside the shard plan is
    how the EC2 study once ran in a burst on the home campaign's world."""
    offenders, seen = _callers_outside_the_executor("Campaign")
    assert offenders == []
    # The walker does see what it is looking for.
    assert seen == 1


def test_only_the_shard_executor_builds_a_world():
    """A world is built for a shard (or for the shards a pool forks) and
    nowhere else: ``query`` and ``diff --verify`` run plans, not probes."""
    offenders, seen = _callers_outside_the_executor("build_world")
    assert offenders == []
    assert seen == 2
