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
    fault_study_legs,
    monthly_recheck_config,
    session_study_legs,
    study_legs,
)
from repro.experiments.observatory import observer_study_legs
from repro.experiments.paper import (
    PAPER_VALUES,
    TRANSPORTS_SECTION,
    PaperReport,
    generate_report,
    transport_claims,
)
from repro.experiments.world import DEFAULT_VANTAGES, STUDY_DOMAIN_NAMES, build_world
from repro.parallel import run_campaigns
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

    @staticmethod
    def _cached_study_domains(site):
        """The study domains whose answer (an A, or wikipedia.com's CNAME)
        ``site`` holds."""
        from repro.dnswire.name import Name
        from repro.dnswire.types import CLASS_IN, TYPE_A, TYPE_CNAME

        return [
            domain
            for domain in STUDY_DOMAIN_NAMES
            if any((Name.from_text(domain), rdtype, CLASS_IN) in site.cache
                   for rdtype in (TYPE_A, TYPE_CNAME))
        ]

    @staticmethod
    def _live_sites(world):
        return [
            site
            for deployment in world.deployments.values()
            for site in deployment.sites
            if not site.host.blackholed and site.engine is not None
        ]

    def test_warming_a_cold_world_caches_every_study_domain_on_every_live_site(self):
        world = make_mini_world(seed=9, warm=False)
        sites = self._live_sites(world)
        assert sites
        assert not any(self._cached_study_domains(site) for site in sites)
        world.warm_resolver_caches()
        for site in sites:
            assert self._cached_study_domains(site) == list(STUDY_DOMAIN_NAMES), site.host.name

    def test_cache_refresh_resolves_the_study_domains_at_its_instant(self):
        world = make_mini_world(seed=9, warm=False)
        at_ms = world.network.now + 60_000.0
        world.schedule_cache_refresh(at_ms)
        sites = self._live_sites(world)
        world.network.run(until=at_ms - 1.0)
        assert not any(self._cached_study_domains(site) for site in sites)
        world.network.run()
        for site in sites:
            assert self._cached_study_domains(site) == list(STUDY_DOMAIN_NAMES), site.host.name

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

    def test_recheck_config_runs_six_rounds(self):
        assert monthly_recheck_config("feb-2024", start_ms=1000.0).schedule.rounds == 6

    def test_fault_config_seed_is_fixed_whatever_the_rounds(self):
        from repro.experiments.campaigns import fault_campaign_config

        assert {fault_campaign_config(rounds=rounds).seed for rounds in (2, 8)} == {404}

    def test_recheck_config_starts_later(self):
        config = monthly_recheck_config("feb-2024", start_ms=1000.0)
        assert config.schedule.start_ms == 1000.0
        assert config.name == "recheck-feb-2024"


class TestRunStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_campaigns(
            study_legs(
                home_rounds=3, ec2_rounds=3, target_hostnames=MINI_CATALOG_HOSTNAMES
            ),
            world_seed=4,
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
        store = run_campaigns(
            study_legs(
                home_rounds=0, ec2_rounds=1, recheck_months=["feb", "mar"],
                target_hostnames=["dns.google"],
            ),
            shards=1,
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
            study_legs(home_rounds=0, ec2_rounds=0)


def _one_cell_study(study):
    """A study's legs and fault plan at one vantage, resolver and round."""
    one = dict(vantage_names=("ec2-ohio",), target_hostnames=("dns.adguard.com",))
    if study == "faults":
        return fault_study_legs(rounds=1, **one)
    if study == "observatory":
        return observer_study_legs(months=1, rounds_per_month=1, fault_seed=1, **one)
    return list(session_study_legs(policies=("keep-alive",), rounds=1, **one).values()), None


@pytest.mark.parametrize("study", ["faults", "observatory", "sessions"])
def test_every_study_takes_every_execution_keyword(study, tmp_path):
    """A study names its legs and ``run_campaigns`` runs them, so each study
    streams into a warehouse and collects spans and metrics (the fault study
    once could not stream, the observatory could not trace, the sessions
    study could do neither)."""
    legs, plan = _one_cell_study(study)
    in_ram = run_campaigns(legs, fault_plan=plan)
    traced = run_campaigns(
        legs, fault_plan=plan, collect_spans=True, collect_metrics=True,
        store_dir=str(tmp_path / "wh"),
    )
    assert traced.warehouse is not None and len(traced.spans) > 0
    assert traced.metrics.enabled
    assert [r.to_json() for r in traced.records()] == [
        r.to_json() for r in in_ram.records()
    ]


#: Claim rows evaluated on any store, with or without the resolvers they
#: name, so a row dropped from the report fails here.
FOLDED_CLAIM_IDS = {
    "AV-4", "T2-rows", "T3-rows", "T3-doh.ffmuc.net", "T3-dns0.eu",
    "F1-order", "F1-groups", "F1-odoh", "F1-ping", "F2-anycast", "F2-unicast", "F2-home",
    "F3-local", "F4-local", "F4-home",
    "C1-ec2-ohio", "C1-ec2-frankfurt", "C1-ec2-seoul", "C1-outlier",
}

#: The related work's rows, one or more per ablation world (A1-A4, A6).
TRANSPORT_CLAIM_IDS = {
    "A1-fresh-1.3", "A1-fresh-1.2", "A1-0rtt", "A1-reuse", "A1-order",
    "A2-local", "A2-ec2-ohio", "A2-ec2-seoul",
    "A3-1.3-h2", "A3-1.3-http/1.1", "A3-1.2-h2", "A3-1.2-http/1.1", "A3-http", "A3-negotiated",
    "A4-walk", "A4-cname", "A4-hit",
    "A6-doq-fresh", "A6-doh-fresh", "A6-saved", "A6-doq-reuse", "A6-0rtt",
}


class TestPaperReport:
    def test_report_from_prebuilt_store(self):
        # Tiny store: mainstream fast, non-mainstream slow — just verifies
        # the claim machinery runs end to end without a full simulation.
        store = run_campaigns(
            study_legs(
                home_rounds=2, ec2_rounds=2, target_hostnames=MINI_CATALOG_HOSTNAMES
            ),
            world_seed=8,
        ).store
        report = generate_report(store=store)
        assert report.claims
        ids = {claim.claim_id for claim in report.claims}
        assert "AV-1" in ids and "T2-shape" in ids
        assert FOLDED_CLAIM_IDS <= ids
        # The related work's worlds are the report's own, not the caller's.
        assert not ids & TRANSPORT_CLAIM_IDS
        assert "table1" in report.rendered_tables
        assert "figure1" in report.rendered_figures
        text = report.describe()
        assert "claims hold" in text

    def test_every_transport_claim_holds(self):
        # Tiny worlds of their own, about 0.2 s: the ablations, in Tier-1.
        claims = transport_claims()
        assert [claim.claim_id for claim in claims if not claim.holds] == []
        assert {claim.claim_id for claim in claims} == TRANSPORT_CLAIM_IDS
        assert all(claim.cites for claim in claims)
        paper, related = PaperReport(claims=claims).describe().split(TRANSPORTS_SECTION)
        assert "A1-" not in paper and "| related work " in related
        assert related.endswith("22/22 claims hold")

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


def _callers_outside_the_seam(callee: str, seam: Path, function=None):
    """``callee(...)`` call sites in the package outside the seam -- the
    module ``seam``, or only its top-level ``function`` when one is named --
    and the number inside it (so a test can check the walker sees the
    seam's)."""
    root = Path(repro.__file__).parent
    offenders, seen = [], 0
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = list(_calls_to(tree, callee))
        if relative == seam:
            inside = lines if function is None else [
                line
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function
                for line in _calls_to(node, callee)
            ]
            seen = len(inside)
            lines = [line for line in lines if line not in inside]
        offenders += [f"{relative}:{line}" for line in lines]
    return offenders, seen


EXECUTOR = Path("parallel", "executor.py")
RUNNER = Path("parallel", "runner.py")
PAPER = Path("experiments", "paper.py")


def test_only_the_shard_executor_builds_a_campaign():
    """Every campaign in the package runs through plan_campaign ->
    run_parallel -> execute_shard; a second path beside the shard plan is
    how the EC2 study once ran in a burst on the home campaign's world."""
    offenders, seen = _callers_outside_the_seam("Campaign", EXECUTOR)
    assert offenders == []
    # The walker does see what it is looking for.
    assert seen == 1


def test_only_the_shard_executor_builds_a_world():
    """A world is built for a shard (or for the shards a pool forks) and
    nowhere else: ``query`` and ``diff --verify`` run plans, not probes.
    The one other call is the claim table's related-work section: its rows
    measure probes on tiny worlds no campaign plan builds (a catalog of one
    or two resolvers, caches left cold for A4)."""
    outside_executor, seen = _callers_outside_the_seam("build_world", EXECUTOR)
    outside_table, ablations = _callers_outside_the_seam("build_world", PAPER, "transport_claims")
    assert sorted(set(outside_executor) & set(outside_table)) == []
    assert (seen, ablations) == (2, 1)


@pytest.mark.parametrize("callee", ["plan_campaign", "run_parallel"])
def test_only_run_campaigns_plans_and_runs_shards(callee):
    """A study names its legs and ``run_campaigns`` runs them: a second
    caller of the planner or the pool is a second copy of the execution
    keywords, and copies drift (the fault study once could not stream into
    a warehouse, the observatory could not collect spans)."""
    offenders, seen = _callers_outside_the_seam(callee, RUNNER, "run_campaigns")
    assert offenders == []
    # The walker does see what it is looking for.
    assert seen == 1


def test_the_package_does_not_call_the_one_leg_adapter():
    """``run_campaign_parallel`` is the benchmark harness's entry point
    only; the package runs legs through ``run_campaigns``."""
    offenders, _seen = _callers_outside_the_seam("run_campaign_parallel", RUNNER)
    assert offenders == []


def _imports_of(tree: ast.AST, package: str):
    """Lines that import ``package`` or a module under it, at any depth
    (inside functions and ``TYPE_CHECKING`` blocks too)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == package or name.startswith(package + ".") for name in names):
            yield node.lineno


def test_the_parallel_runner_does_not_import_the_monitor():
    """A run hands back its merged stream; the caller that wants alerts
    replays it (``measure --slo``), so the runner knows no monitor."""
    root = Path(repro.__file__).parent
    offenders = [
        f"{path.relative_to(root)}:{line}"
        for path in sorted((root / "parallel").rglob("*.py"))
        for line in _imports_of(ast.parse(path.read_text(encoding="utf-8")), "repro.monitor")
    ]
    assert offenders == []
    # The walker does see what it is looking for.
    cli = ast.parse((root / "cli.py").read_text(encoding="utf-8"))
    assert list(_imports_of(cli, "repro.monitor"))
