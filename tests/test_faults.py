"""Fault-injection subsystem: plans, injectors, retries, and the paper's
error shape.

The fault matrix drives one probe per fault kind through a live mini
world and asserts the kind maps to the expected
:class:`~repro.core.errors_taxonomy.ErrorClass`; the campaign-level tests
check retry/backoff bookkeeping, seed determinism, and that a
fault-enabled campaign over the full catalog reproduces the poster's
≈5–6% error rate with connection-establishment dominance.
"""

import math
import os
import random
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.availability import (
    availability_report,
    error_class_shares,
    per_resolver_error_breakdown,
    retry_burden,
)
from repro.core.probes import DohProbe, DohProbeConfig
from repro.core.runner import Campaign, CampaignConfig, RetryPolicy
from repro.core.scheduler import PeriodicSchedule
from repro.dnswire.name import Name
from repro.errors import CampaignConfigError
from repro.experiments.campaigns import run_fault_study
from repro.faults import (
    ANSWER_KINDS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultPlanConfig,
    inject_faults,
)
from tests.conftest import (
    MINI_CATALOG_HOSTNAMES,
    add_host,
    make_mini_world,
    make_quiet_network,
)

ESTABLISHMENT_VALUES = {"connect_refused", "connect_timeout", "tls_handshake"}


@pytest.fixture(scope="module")
def fault_world():
    """A private mini world the fault tests may impair (windows revert)."""
    return make_mini_world(seed=11)


def probe_once(world, hostname, seed=1, timeout_ms=4000.0):
    deployment = world.deployment(hostname)
    probe = DohProbe(
        world.vantage("ec2-ohio").host,
        deployment.service_ip,
        hostname,
        DohProbeConfig(timeout_ms=timeout_ms),
        rng=random.Random(seed),
    )
    outcomes = []
    probe.query("google.com", outcomes.append)
    world.network.run()
    probe.close()
    return outcomes[0]


def arm_window(world, hostname, kind, duration_ms=30_000.0, magnitude=0.0):
    """Open one fault window on ``hostname`` starting right now."""
    plan = FaultPlan([FaultEvent(kind, hostname, 0.0, duration_ms, magnitude)])
    return inject_faults(world.network, [world.deployment(hostname)], plan)


# ---------------------------------------------------------------------------
# Plan generation and validation
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_generation_is_deterministic(self):
        hosts = ["a.example", "b.example", "c.example"]
        first = FaultPlan.generate(hosts, horizon_ms=1e8, seed=42)
        second = FaultPlan.generate(hosts, horizon_ms=1e8, seed=42)
        assert first == second
        assert first.to_json() == second.to_json()

    def test_different_seeds_differ(self):
        hosts = ["a.example", "b.example", "c.example"]
        assert FaultPlan.generate(hosts, 1e8, seed=1) != FaultPlan.generate(
            hosts, 1e8, seed=2
        )

    def test_per_hostname_streams_are_independent(self):
        """Adding a resolver does not reshuffle the others' windows."""
        small = FaultPlan.generate(["a.example", "b.example"], 1e8, seed=9)
        large = FaultPlan.generate(["a.example", "b.example", "z.example"], 1e8, seed=9)
        assert small.events_for("a.example") == large.events_for("a.example")
        assert small.events_for("b.example") == large.events_for("b.example")

    def test_json_round_trip(self):
        plan = FaultPlan.generate(["a.example", "b.example"], 1e8, seed=3)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_windows_stay_inside_horizon(self):
        horizon = 5e7
        plan = FaultPlan.generate(["a.example", "b.example"], horizon, seed=4)
        for event in plan:
            assert 0.0 <= event.start_ms
            assert event.end_ms <= horizon + 1e-6

    def test_impaired_fraction_scales_window_budget(self):
        hosts = [f"r{i}.example" for i in range(40)]
        light = FaultPlan.generate(
            hosts, 1e9, seed=5, config=FaultPlanConfig(impaired_time_fraction=0.01)
        )
        heavy = FaultPlan.generate(
            hosts, 1e9, seed=5, config=FaultPlanConfig(impaired_time_fraction=0.08)
        )
        total = lambda plan: sum(e.duration_ms for e in plan)
        assert total(heavy) > 3 * total(light)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind=FaultKind.OUTAGE_DROP, hostname="", start_ms=0, duration_ms=1),
            dict(kind=FaultKind.OUTAGE_DROP, hostname="x", start_ms=-1, duration_ms=1),
            dict(kind=FaultKind.OUTAGE_DROP, hostname="x", start_ms=0, duration_ms=0),
            dict(kind=FaultKind.LOSS_SPIKE, hostname="x", start_ms=0, duration_ms=1,
                 magnitude=0.0),
            dict(kind=FaultKind.LOSS_SPIKE, hostname="x", start_ms=0, duration_ms=1,
                 magnitude=1.5),
            dict(kind=FaultKind.LATENCY_SPIKE, hostname="x", start_ms=0, duration_ms=1,
                 magnitude=0.0),
        ],
    )
    def test_invalid_events_rejected(self, kwargs):
        with pytest.raises(CampaignConfigError):
            FaultEvent(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(impaired_time_fraction=-0.1),
            dict(impaired_time_fraction=1.0),
            dict(mean_window_ms=0),
            dict(loss_spike_rate=0.0),
            dict(kind_weights={}),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(CampaignConfigError):
            FaultPlanConfig(**kwargs)

    def test_generate_rejects_bad_horizon(self):
        with pytest.raises(CampaignConfigError):
            FaultPlan.generate(["a.example"], horizon_ms=0)

    @pytest.mark.parametrize("horizon_ms", [-1.0, math.inf, math.nan])
    def test_both_generators_refuse_a_non_finite_or_negative_horizon(self, horizon_ms):
        with pytest.raises(CampaignConfigError, match="positive, finite"):
            FaultPlan.generate(["a.example"], horizon_ms=horizon_ms)
        with pytest.raises(CampaignConfigError, match="positive, finite"):
            FaultPlan.answer_faults(["a.example"], ["a.com"] * 5, horizon_ms)


# ---------------------------------------------------------------------------
# One plan: network windows and answer faults together
# ---------------------------------------------------------------------------


HOSTS = ("a.example", "b.example", "c.example", "d.example")
_window = dict(
    hostname=st.sampled_from(HOSTS),
    start_ms=st.floats(0.0, 1e7),
    duration_ms=st.floats(1.0, 1e7),
)
_network_events = st.one_of(
    st.builds(
        FaultEvent,
        kind=st.sampled_from(
            [FaultKind.OUTAGE_REFUSE, FaultKind.OUTAGE_DROP, FaultKind.TLS_WINDOW]
        ),
        **_window,
    ),
    st.builds(
        FaultEvent, kind=st.just(FaultKind.LOSS_SPIKE),
        magnitude=st.floats(0.01, 1.0), **_window,
    ),
    st.builds(
        FaultEvent,
        kind=st.sampled_from([FaultKind.LATENCY_SPIKE, FaultKind.DEGRADATION]),
        magnitude=st.floats(1.0, 500.0), **_window,
    ),
)
_answer_events = st.builds(
    FaultEvent,
    kind=st.sampled_from(ANSWER_KINDS),
    domain=st.sampled_from(["a.com", "b.org", "www.c.net"]),
    **_window,
)
answer_plans = st.lists(_answer_events, max_size=12).map(FaultPlan)
mixed_plans = st.lists(st.one_of(_network_events, _answer_events), max_size=20).map(
    FaultPlan
)


class TestOnePlan:
    @given(plan=mixed_plans)
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, plan):
        assert FaultPlan.from_json(plan.to_json()) == plan

    @given(
        plan=mixed_plans,
        shard_of=st.lists(st.integers(0, 3), min_size=len(HOSTS), max_size=len(HOSTS)),
    )
    @settings(max_examples=100, deadline=None)
    def test_shards_partition_the_plan(self, plan, shard_of):
        shards = [
            [host for host, shard in zip(HOSTS, shard_of) if shard == index]
            for index in range(4)
        ]
        parts = [plan.restricted_to(shard) for shard in shards]
        assert FaultPlan(chain.from_iterable(parts)) == plan

    @given(plan=answer_plans)
    @settings(max_examples=50, deadline=None)
    def test_answer_kinds_never_touch_the_packet_path(self, plan):
        net = make_quiet_network()
        hosts = {
            name: [add_host(net, name, f"10.0.0.{index + 1}")]
            for index, name in enumerate(HOSTS)
        }
        FaultInjector(net, hosts, plan).arm()
        for at_ms in sorted({0.0} | {e.start_ms for e in plan} | {e.end_ms for e in plan}):
            net.run(until=at_ms)
            for name, (host,) in hosts.items():
                # An answer window is open exactly on [start, end).
                open_domains = {
                    Name.from_text(event.domain)
                    for event in plan.events_for(name)
                    if event.start_ms <= at_ms < event.end_ms
                }
                assert not host.impairments.any_active
                assert set(host.impairments.answer_faults) == open_domains

    def test_answer_faults_pick_distinct_pairs_in_kind_order(self):
        plan = FaultPlan.answer_faults(
            HOSTS, ["a.com", "b.org"], horizon_ms=1e6, seed=5, per_kind=1
        )
        assert sorted(event.kind for event in plan) == sorted(ANSWER_KINDS)
        assert len({(event.hostname, event.domain) for event in plan}) == 5
        assert all((e.start_ms, e.duration_ms) == (0.0, 1e6) for e in plan)
        assert plan == FaultPlan.answer_faults(
            reversed(HOSTS), ["b.org", "a.com"], horizon_ms=1e6, seed=5
        )


# ---------------------------------------------------------------------------
# Non-finite schedules and horizons are refused, not spun on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["interval_ms", "stagger_ms", "start_ms"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_schedule_refuses_non_finite_values(field, value):
    with pytest.raises(CampaignConfigError, match=f"schedule '{field}' must be a finite number"):
        PeriodicSchedule(**{"rounds": 2, "interval_ms": 1000.0, field: value})


@pytest.mark.parametrize("faults", [(), ("--faults",)])
@pytest.mark.parametrize("hours", ["inf", "nan"])
def test_measure_refuses_a_non_finite_interval(hours, faults, tmp_path):
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "measure", "--interval-hours", hours,
         *faults, "--output", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert done.returncode == 2
    assert done.stderr.splitlines() == [
        f"repro-dns measure: schedule 'interval_ms' must be a finite number, got {hours}"
    ]
    assert not (tmp_path / "out.jsonl").exists()


# ---------------------------------------------------------------------------
# Injector mechanics (hand-built hosts, exact virtual times)
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_overlapping_windows_compose_and_revert(self):
        net = make_quiet_network()
        host = add_host(net, "r1", "10.0.0.1")
        plan = FaultPlan(
            [
                FaultEvent(FaultKind.OUTAGE_REFUSE, "res", 100.0, 500.0),
                FaultEvent(FaultKind.LATENCY_SPIKE, "res", 300.0, 600.0, magnitude=50.0),
            ]
        )
        injector = FaultInjector(net, {"res": [host]}, plan)
        assert injector.arm() == 2

        net.run(until=200.0)
        assert host.impairments.syn_override == "refuse"
        assert host.impairments.extra_delay_ms == 0.0

        net.run(until=400.0)  # both windows active
        assert host.impairments.syn_override == "refuse"
        assert host.impairments.extra_delay_ms == 50.0

        net.run(until=700.0)  # outage over, latency window still open
        assert host.impairments.syn_override is None
        assert host.impairments.extra_delay_ms == 50.0

        net.run(until=1000.0)
        assert not host.impairments.any_active
        assert injector.applied_count == 2
        assert injector.reverted_count == 2

    def test_refuse_wins_over_drop_when_overlapping(self):
        net = make_quiet_network()
        host = add_host(net, "r1", "10.0.0.1")
        plan = FaultPlan(
            [
                FaultEvent(FaultKind.OUTAGE_DROP, "res", 0.0, 1000.0),
                FaultEvent(FaultKind.OUTAGE_REFUSE, "res", 100.0, 200.0),
            ]
        )
        FaultInjector(net, {"res": [host]}, plan).arm()
        net.run(until=50.0)
        assert host.impairments.syn_override == "drop"
        net.run(until=150.0)
        assert host.impairments.syn_override == "refuse"
        net.run(until=500.0)
        assert host.impairments.syn_override == "drop"
        net.run(until=1500.0)
        assert host.impairments.syn_override is None

    def test_arm_twice_raises(self):
        net = make_quiet_network()
        host = add_host(net, "r1", "10.0.0.1")
        plan = FaultPlan([FaultEvent(FaultKind.OUTAGE_DROP, "res", 0.0, 10.0)])
        injector = FaultInjector(net, {"res": [host]}, plan)
        injector.arm()
        with pytest.raises(CampaignConfigError):
            injector.arm()

    def test_unknown_plan_hostname_raises(self):
        net = make_quiet_network()
        host = add_host(net, "r1", "10.0.0.1")
        plan = FaultPlan([FaultEvent(FaultKind.OUTAGE_DROP, "ghost", 0.0, 10.0)])
        with pytest.raises(CampaignConfigError):
            FaultInjector(net, {"res": [host]}, plan).arm()


# ---------------------------------------------------------------------------
# Fault matrix: each kind produces its expected failure signature
# ---------------------------------------------------------------------------


class TestFaultMatrix:
    TARGET = "dns.google"

    @pytest.mark.parametrize(
        "kind,magnitude,expected_class",
        [
            (FaultKind.OUTAGE_REFUSE, 0.0, "connect_refused"),
            (FaultKind.OUTAGE_DROP, 0.0, "connect_timeout"),
            (FaultKind.TLS_WINDOW, 0.0, "tls_handshake"),
            (FaultKind.LOSS_SPIKE, 1.0, "connect_timeout"),
        ],
    )
    def test_failure_kinds_map_to_expected_class(
        self, fault_world, kind, magnitude, expected_class
    ):
        arm_window(fault_world, self.TARGET, kind, magnitude=magnitude)
        outcome = probe_once(fault_world, self.TARGET)
        assert not outcome.success
        assert outcome.error_class is not None
        assert outcome.error_class.value == expected_class
        # The window has been reverted by the drained loop; service recovers.
        assert probe_once(fault_world, self.TARGET, seed=2).success

    @pytest.mark.parametrize(
        "kind,magnitude,min_inflation_ms",
        [
            (FaultKind.LATENCY_SPIKE, 150.0, 250.0),
            (FaultKind.DEGRADATION, 200.0, 150.0),
        ],
    )
    def test_slowdown_kinds_inflate_response_time(
        self, fault_world, kind, magnitude, min_inflation_ms
    ):
        baseline = probe_once(fault_world, self.TARGET, seed=3)
        assert baseline.success
        arm_window(fault_world, self.TARGET, kind, magnitude=magnitude)
        impaired = probe_once(fault_world, self.TARGET, seed=3)
        assert impaired.success
        assert impaired.duration_ms >= baseline.duration_ms + min_inflation_ms


# ---------------------------------------------------------------------------
# Retry / backoff
# ---------------------------------------------------------------------------


class TestRetryBackoff:
    def test_retry_recovers_after_window_closes(self):
        world = make_mini_world(seed=21)
        now = world.network.loop.now
        plan = FaultPlan([FaultEvent(FaultKind.OUTAGE_REFUSE, "dns.google", 0.0, 1000.0)])
        inject_faults(world.network, [world.deployment("dns.google")], plan)
        config = CampaignConfig(
            name="retry-test",
            domains=("google.com",),
            schedule=PeriodicSchedule(rounds=1, interval_ms=1.0, start_ms=now),
            retry=RetryPolicy(
                attempts=3,
                backoff_base_ms=1500.0,
                backoff_factor=1.0,
                backoff_jitter_ms=0.0,
                record_attempts=True,
            ),
            ping=False,
        )
        store = Campaign(
            network=world.network,
            vantages=[world.vantage("ec2-ohio")],
            targets=world.targets(["dns.google"]),
            config=config,
        ).run()

        finals = store.filter(kind="dns_query")
        assert len(finals) == 1
        assert finals[0].success
        assert finals[0].attempts == 2  # first try refused, retry landed

        intermediate = store.filter(kind="dns_query_attempt")
        assert len(intermediate) == 1
        assert intermediate[0].error_class == "connect_refused"
        assert intermediate[0].attempts == 1

        # Intermediate attempts don't leak into availability analysis.
        assert availability_report(store).attempts == 1

    def test_persistent_outage_exhausts_attempts(self):
        world = make_mini_world(seed=22)
        now = world.network.loop.now
        plan = FaultPlan(
            [FaultEvent(FaultKind.OUTAGE_REFUSE, "dns.google", 0.0, 3_600_000.0)]
        )
        inject_faults(world.network, [world.deployment("dns.google")], plan)
        config = CampaignConfig(
            name="retry-exhaust",
            domains=("google.com",),
            schedule=PeriodicSchedule(rounds=1, interval_ms=1.0, start_ms=now),
            retry=RetryPolicy(attempts=3, backoff_base_ms=100.0, backoff_jitter_ms=0.0),
            ping=False,
        )
        store = Campaign(
            network=world.network,
            vantages=[world.vantage("ec2-ohio")],
            targets=world.targets(["dns.google"]),
            config=config,
        ).run()
        finals = store.filter(kind="dns_query")
        assert len(finals) == 1
        assert not finals[0].success
        assert finals[0].attempts == 3
        assert finals[0].error_class == "connect_refused"

    def test_policy_validation(self):
        with pytest.raises(CampaignConfigError):
            RetryPolicy(attempts=0)
        with pytest.raises(CampaignConfigError):
            RetryPolicy(backoff_base_ms=-1.0)
        with pytest.raises(CampaignConfigError):
            RetryPolicy(backoff_factor=0.5)

    def test_non_retryable_class_not_retried(self):
        policy = RetryPolicy(attempts=3)
        from repro.core.errors_taxonomy import ErrorClass
        from repro.core.probes import ProbeOutcome

        rcode_failure = ProbeOutcome(
            success=False, duration_ms=1.0, error_class=ErrorClass.DNS_RCODE
        )
        transient = ProbeOutcome(
            success=False, duration_ms=1.0, error_class=ErrorClass.CONNECT_REFUSED
        )
        assert not policy.should_retry(rcode_failure, 1)
        assert policy.should_retry(transient, 1)
        assert not policy.should_retry(transient, 3)  # budget exhausted


# ---------------------------------------------------------------------------
# Determinism and the paper's error shape (acceptance criteria)
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_identical_seeds_reproduce_identical_exports(self, tmp_path):
        def run(path):
            faulted, plan = run_fault_study(
                world_seed=5, rounds=2, vantage_names=("ec2-ohio",), fault_seed=77,
                target_hostnames=MINI_CATALOG_HOSTNAMES,
            )
            faulted.store.save_jsonl(path)
            return plan

        first_path = tmp_path / "first.jsonl"
        second_path = tmp_path / "second.jsonl"
        first_plan = run(first_path)
        second_plan = run(second_path)
        assert first_plan == second_plan
        assert first_path.read_bytes() == second_path.read_bytes()
        assert first_path.stat().st_size > 0


class TestPaperErrorShape:
    @pytest.mark.slow
    def test_fault_campaign_reproduces_error_rate_band(self):
        run, plan = run_fault_study(world_seed=7, rounds=8, vantage_names=("ec2-ohio",))
        store = run.store
        assert len(plan) > 0

        report = availability_report(store)
        # Poster: 311,351 / 5,409,632 attempts failed (~5.8%).
        assert 0.035 <= report.error_rate <= 0.085
        assert report.connection_establishment_share > 0.5
        assert report.dominant_error_class in ESTABLISHMENT_VALUES

        shares = error_class_shares(store)
        assert sum(shares.get(v, 0.0) for v in ESTABLISHMENT_VALUES) > 0.5

        # Failures are spread over many resolvers, not one bad apple.
        profiles = per_resolver_error_breakdown(store)
        assert sum(1 for p in profiles.values() if p.errors > 0) >= 5

        # The default fault study retries once, and some retries land.
        assert retry_burden(store) > 1.0
