"""The paper's measurement campaigns.

Three campaign shapes, mirroring §3.2:

* **home** — four Chicago home devices, tests "every few hours" over a
  long span (June 22 – September 30, 2023 in the paper; scaled rounds
  here);
* **ec2** — the three EC2 instances, three measurements a day (September
  19 – October 16, 2023);
* **monthly re-check** — short 1–3 day spans re-run months later to
  confirm resolver performance had not drifted (February/March/April
  2024).

:func:`run_study` executes all of them against one world and returns the
merged result store — the input to every analysis in the paper.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from typing import OrderedDict as OrderedDictType

    from repro.session import SessionPolicy

from repro.core.results import ResultStore
from repro.core.runner import Campaign, CampaignConfig, RetryPolicy, RoundProgress
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.errors import CampaignConfigError
from repro.experiments.world import World
from repro.faults import FaultPlan, FaultPlanConfig, inject_faults
from repro.parallel.runner import ParallelRun, chain_tasks, plan_campaign, run_parallel
from repro.transports import SESSION_TRANSPORTS


def home_campaign_config(rounds: int = 30, seed: int = 101) -> CampaignConfig:
    """Chicago home devices: a round every 6 hours."""
    return CampaignConfig(
        name="home-chicago",
        schedule=PeriodicSchedule(
            rounds=rounds, interval_ms=6 * MS_PER_HOUR, stagger_ms=10 * 60 * 1000.0
        ),
        seed=seed,
    )


def ec2_campaign_config(rounds: int = 30, seed: int = 202) -> CampaignConfig:
    """EC2 instances: three rounds a day."""
    return CampaignConfig(
        name="ec2-global",
        schedule=PeriodicSchedule(
            rounds=rounds, interval_ms=8 * MS_PER_HOUR, stagger_ms=10 * 60 * 1000.0
        ),
        seed=seed,
    )


def monthly_recheck_config(
    month_label: str, start_ms: float, rounds: int = 6, seed: int = 303
) -> CampaignConfig:
    """A short re-measurement span months after the main campaign."""
    return CampaignConfig(
        name=f"recheck-{month_label}",
        schedule=PeriodicSchedule(
            rounds=rounds,
            interval_ms=8 * MS_PER_HOUR,
            start_ms=start_ms,
            stagger_ms=10 * 60 * 1000.0,
        ),
        seed=seed,
    )


def fault_campaign_config(
    rounds: int = 8,
    seed: int = 404,
    retry: Optional[RetryPolicy] = None,
    start_ms: float = 0.0,
) -> CampaignConfig:
    """Fault-study campaign: EC2 cadence with a modest retry budget.

    Real measurement tools retry transient failures; the fault study runs
    with ``attempts=2`` by default so retry behaviour shows up in the
    ``attempts`` field of the records without masking persistent outages
    (a fault window far outlasts one backoff interval).
    """
    return CampaignConfig(
        name="ec2-faults",
        schedule=PeriodicSchedule(
            rounds=rounds,
            interval_ms=8 * MS_PER_HOUR,
            start_ms=start_ms,
            stagger_ms=10 * 60 * 1000.0,
        ),
        retry=retry if retry is not None else RetryPolicy(attempts=2),
        seed=seed,
    )


def run_fault_study(
    world: World,
    rounds: int = 8,
    fault_seed: int = 20230919,
    plan_config: Optional[FaultPlanConfig] = None,
    retry: Optional[RetryPolicy] = None,
    vantage_names: Optional[Sequence[str]] = None,
    target_hostnames: Optional[Iterable[str]] = None,
    store: Optional[ResultStore] = None,
) -> Tuple[ResultStore, FaultPlan]:
    """Run the fault-injected campaign: EC2 vantages under a seeded FaultPlan.

    Generates a :class:`~repro.faults.FaultPlan` covering the campaign's
    whole span, arms a :class:`~repro.faults.FaultInjector` over the
    targeted deployments, then runs a retry-enabled campaign.  Returns the
    result store and the plan (so callers can correlate failures with the
    injected windows).  Everything is derived from ``fault_seed`` and the
    campaign seed, so identical inputs reproduce identical results.
    """
    store = store if store is not None else ResultStore()
    targets = world.targets(list(target_hostnames) if target_hostnames is not None else None)
    names = list(vantage_names) if vantage_names is not None else [
        name for name in EC2_VANTAGE_NAMES if name in world.vantages
    ]
    vantages = [world.vantage(name) for name in names]

    start_ms = world.network.loop.now
    config = fault_campaign_config(rounds=rounds, retry=retry, start_ms=start_ms)
    # Cover the full span plus one interval of slack so windows can still be
    # open while the last round's probes (and their retries) are in flight.
    horizon_ms = config.schedule.total_span_ms + config.schedule.interval_ms
    plan = FaultPlan.generate(
        [target.hostname for target in targets],
        horizon_ms=horizon_ms,
        seed=fault_seed,
        config=plan_config,
    )
    deployments = [world.deployments[target.hostname] for target in targets]
    # The schedule starts at the current virtual time, and arm() interprets
    # the plan relative to now — so plan-time 0 lines up with round 0.
    inject_faults(world.network, deployments, plan, offset_ms=0.0)

    Campaign(
        network=world.network,
        vantages=vantages,
        targets=targets,
        config=config,
        store=store,
    ).run()
    return store, plan


def diff_campaign_config(
    rounds: int = 2,
    seed: int = 505,
    domains: Optional[Sequence[str]] = None,
    transport: str = "doh",
) -> CampaignConfig:
    """The same-query fan-out campaign for answer differencing.

    Every deployment is asked the identical questions each round, raw
    response messages are captured on the records, and pings are skipped
    (latency is not the object here).  Two rounds at EC2 cadence keep the
    cells cheap while still exposing round-to-round transients.
    """
    return CampaignConfig(
        name="diff-fanout",
        domains=tuple(domains) if domains is not None else CampaignConfig.domains,
        schedule=PeriodicSchedule(
            rounds=rounds, interval_ms=6 * MS_PER_HOUR, stagger_ms=10 * 60 * 1000.0
        ),
        transport=transport,
        ping=False,
        seed=seed,
        capture_responses=True,
    )


def run_diff_campaign(
    world_seed: int = 0,
    rounds: int = 2,
    seed: int = 505,
    domains: Optional[Sequence[str]] = None,
    transport: str = "doh",
    vantage_names: Optional[Sequence[str]] = None,
    target_hostnames: Optional[Iterable[str]] = None,
    workers: int = 1,
    shard_by: str = "vantage",
    shards: Optional[int] = None,
    answer_fault_plan: Optional["AnswerFaultPlan"] = None,
    store_dir: Optional[str] = None,
    segment_records: int = 4096,
) -> ParallelRun:
    """Run the differencing fan-out, serial or sharded, RAM or warehouse.

    With ``answer_fault_plan`` set, every shard (and the serial path —
    the identity shard plan) arms the plan's response mutators on its
    own targets, so the injected disagreements are identical for any
    worker count.  The returned run's record source feeds
    :func:`repro.diff.build_diff_report`.
    """
    names = list(vantage_names) if vantage_names is not None else list(EC2_VANTAGE_NAMES)
    return run_campaign_parallel(
        diff_campaign_config(
            rounds=rounds, seed=seed, domains=domains, transport=transport
        ),
        names,
        target_hostnames,
        world_seed=world_seed,
        workers=workers,
        shard_by=shard_by,
        shards=shards,
        answer_fault_plan=answer_fault_plan,
        store_dir=store_dir,
        segment_records=segment_records,
    )


HOME_VANTAGE_NAMES = (
    "home-chicago-1",
    "home-chicago-2",
    "home-chicago-3",
    "home-chicago-4",
)
EC2_VANTAGE_NAMES = ("ec2-ohio", "ec2-frankfurt", "ec2-seoul")

#: Catalog deployments speaking every session transport (doh/dot/doq/doh3)
#: — the target set of the session-policy scenario matrix.
SESSION_TARGET_HOSTNAMES = (
    "anycast.dns.nextdns.io",
    "dns.nextdns.io",
    "dns.adguard.com",
    "dns-family.adguard.com",
    "dns-unfiltered.adguard.com",
)

#: Policy presets swept by :func:`run_sessions_study`, in report order.
SESSION_STUDY_POLICIES = ("cold", "keep-alive", "resumption", "zero-rtt")


def sessions_campaign_config(
    policy: "SessionPolicy",
    rounds: int = 3,
    seed: int = 606,
    transports: Sequence[str] = SESSION_TRANSPORTS,
    domains: Optional[Sequence[str]] = None,
) -> CampaignConfig:
    """One cell of the session scenario matrix: a transport sweep under
    ``policy``.

    Every policy cell shares the campaign name, seed, and schedule, so
    the derived per-measurement RNG streams are identical across
    policies — the only varying input is the session policy itself.
    That is what makes warm-vs-cold latency deltas attributable to the
    policy rather than to different random draws.
    """
    return CampaignConfig(
        name="sessions",
        domains=tuple(domains) if domains is not None else CampaignConfig.domains,
        schedule=PeriodicSchedule(
            rounds=rounds, interval_ms=1 * MS_PER_HOUR, stagger_ms=10 * 60 * 1000.0
        ),
        transports=tuple(transports),
        session_policy=policy,
        ping=False,
        seed=seed,
    )


def run_sessions_study(
    policies: Sequence[str] = SESSION_STUDY_POLICIES,
    world_seed: int = 0,
    rounds: int = 3,
    seed: int = 606,
    transports: Sequence[str] = SESSION_TRANSPORTS,
    domains: Optional[Sequence[str]] = None,
    vantage_names: Optional[Sequence[str]] = None,
    target_hostnames: Optional[Iterable[str]] = None,
    workers: int = 1,
    shard_by: str = "vantage",
    shards: Optional[int] = None,
    store_dir: Optional[str] = None,
    segment_records: int = 4096,
) -> "OrderedDictType[str, ParallelRun]":
    """Run the same campaign once per session policy, serial or sharded.

    Returns an ordered mapping of policy name → :class:`ParallelRun`
    (insertion order = ``policies`` order).  Each policy runs on its own
    fresh world built from ``world_seed``; with ``store_dir`` each run
    streams into a per-policy warehouse subdirectory.
    """
    from repro.session import policy_from_name

    names = list(vantage_names) if vantage_names is not None else list(EC2_VANTAGE_NAMES)
    hostnames = (
        list(target_hostnames)
        if target_hostnames is not None
        else list(SESSION_TARGET_HOSTNAMES)
    )
    runs: "OrderedDictType[str, ParallelRun]" = OrderedDict()
    for name in policies:
        policy = policy_from_name(name)
        runs[name] = run_campaign_parallel(
            sessions_campaign_config(
                policy, rounds=rounds, seed=seed, transports=transports, domains=domains
            ),
            names,
            hostnames,
            world_seed=world_seed,
            workers=workers,
            shard_by=shard_by,
            shards=shards,
            store_dir=(
                str(Path(store_dir) / name.replace("-", "_"))
                if store_dir is not None
                else None
            ),
            segment_records=segment_records,
        )
    return runs


def run_study(
    world: World,
    home_rounds: int = 20,
    ec2_rounds: int = 20,
    recheck_months: Sequence[str] = (),
    target_hostnames: Optional[Iterable[str]] = None,
    store: Optional[ResultStore] = None,
) -> ResultStore:
    """Run the full study (home + EC2 + optional re-checks) on ``world``.

    Round counts are scaled down from the paper's multi-month spans; the
    statistics of interest (per-resolver medians and spreads) stabilize
    within a few dozen rounds because the simulation is stationary.
    """
    store = store if store is not None else ResultStore()
    targets = world.targets(list(target_hostnames) if target_hostnames is not None else None)

    home_vantages = [world.vantage(name) for name in HOME_VANTAGE_NAMES if name in world.vantages]
    if home_vantages and home_rounds > 0:
        Campaign(
            network=world.network,
            vantages=home_vantages,
            targets=targets,
            config=home_campaign_config(rounds=home_rounds),
            store=store,
        ).run()

    ec2_vantages = [world.vantage(name) for name in EC2_VANTAGE_NAMES if name in world.vantages]
    if ec2_vantages and ec2_rounds > 0:
        Campaign(
            network=world.network,
            vantages=ec2_vantages,
            targets=targets,
            config=ec2_campaign_config(rounds=ec2_rounds),
            store=store,
        ).run()

    for index, month in enumerate(recheck_months):
        start_ms = world.network.loop.now + 30.0 * 24 * MS_PER_HOUR * (index + 1)
        Campaign(
            network=world.network,
            vantages=ec2_vantages or home_vantages,
            targets=targets,
            config=monthly_recheck_config(month, start_ms=start_ms, seed=303 + index),
            store=store,
        ).run()

    return store


# -- sharded parallel execution ------------------------------------------------


def _catalog_hostnames(target_hostnames: Optional[Iterable[str]]) -> List[str]:
    if target_hostnames is not None:
        return list(target_hostnames)
    from repro.catalog.resolvers import CATALOG

    return [entry.hostname for entry in CATALOG]


def run_campaign_parallel(
    config: CampaignConfig,
    vantage_names: Sequence[str],
    target_hostnames: Optional[Iterable[str]] = None,
    world_seed: int = 0,
    workers: int = 1,
    shard_by: str = "vantage",
    shards: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    answer_fault_plan: Optional["AnswerFaultPlan"] = None,
    collect_spans: bool = False,
    collect_metrics: bool = False,
    store_dir: Optional[str] = None,
    segment_records: int = 4096,
    slo_policy: Optional[object] = None,
    on_round_complete: Optional[Callable[[RoundProgress], None]] = None,
) -> ParallelRun:
    """Run one campaign sharded across workers and merge the artifacts.

    ``workers=1`` is the serial reference execution of the same shard
    plan; any higher worker count reproduces it byte for byte, and
    ``shards=1`` is the identity plan, the classic ``Campaign.run()``.  Each
    shard runs on a fresh world built from ``world_seed``, so results
    depend only on the plan — see :mod:`repro.parallel`.  With
    ``store_dir`` the run streams into a results warehouse instead of
    RAM (see :mod:`repro.store`); the warehouse is byte-identical for
    any worker count.  With ``slo_policy`` (a
    :class:`repro.monitor.SloPolicy`) the merged canonical stream is
    replayed through a monitor, and ``on_round_complete`` hears the
    rounds of a one-shard plan — see :func:`repro.parallel.run_parallel`.
    """
    tasks = plan_campaign(
        config,
        vantage_names,
        _catalog_hostnames(target_hostnames),
        world_seed=world_seed,
        shard_by=shard_by,
        shards=shards,
        fault_plan_json=fault_plan.to_json() if fault_plan is not None else None,
        answer_fault_plan_json=(
            answer_fault_plan.to_json() if answer_fault_plan is not None else None
        ),
        collect_spans=collect_spans,
        collect_metrics=collect_metrics,
    )
    return run_parallel(
        tasks,
        workers=workers,
        store_dir=store_dir,
        segment_records=segment_records,
        slo_policy=slo_policy,
        on_round_complete=on_round_complete,
    )


def run_study_parallel(
    world_seed: int = 0,
    home_rounds: int = 20,
    ec2_rounds: int = 20,
    target_hostnames: Optional[Iterable[str]] = None,
    workers: int = 1,
    shard_by: str = "vantage",
    shards: Optional[int] = None,
    collect_spans: bool = False,
    collect_metrics: bool = False,
    store_dir: Optional[str] = None,
    segment_records: int = 4096,
    slo_policy: Optional[object] = None,
) -> ParallelRun:
    """The home + EC2 study as one sharded run over a shared worker pool.

    Both campaigns are planned up front and their shards executed through
    one pool, so a long home campaign cannot serialize behind the EC2
    one.  The merged store holds both campaigns in canonical order.
    """
    hostnames = _catalog_hostnames(target_hostnames)
    plans = [
        plan_campaign(
            campaign_config(rounds=rounds),
            vantage_names,
            hostnames,
            world_seed=world_seed,
            shard_by=shard_by,
            shards=shards,
            collect_spans=collect_spans,
            collect_metrics=collect_metrics,
        )
        for rounds, campaign_config, vantage_names in (
            (home_rounds, home_campaign_config, HOME_VANTAGE_NAMES),
            (ec2_rounds, ec2_campaign_config, EC2_VANTAGE_NAMES),
        )
        if rounds > 0
    ]
    if not plans:
        raise CampaignConfigError("study needs home_rounds > 0 or ec2_rounds > 0")
    return run_parallel(
        chain_tasks(*plans),
        workers=workers,
        store_dir=store_dir,
        segment_records=segment_records,
        slo_policy=slo_policy,
    )


def run_fault_study_parallel(
    world_seed: int = 0,
    rounds: int = 8,
    fault_seed: int = 20230919,
    plan_config: Optional[FaultPlanConfig] = None,
    retry: Optional[RetryPolicy] = None,
    vantage_names: Optional[Sequence[str]] = None,
    target_hostnames: Optional[Iterable[str]] = None,
    workers: int = 1,
    shard_by: str = "vantage",
    shards: Optional[int] = None,
) -> Tuple[ParallelRun, FaultPlan]:
    """Sharded variant of :func:`run_fault_study`.

    The fault plan is generated once from ``fault_seed`` and shipped to
    every shard, which arms only the windows of its own targets.  Because
    plan generation derives an independent RNG per hostname, the armed
    windows inside a shard are identical to the ones the serial fault
    study arms for those resolvers.
    """
    hostnames = _catalog_hostnames(target_hostnames)
    names = list(vantage_names) if vantage_names is not None else list(EC2_VANTAGE_NAMES)
    config = fault_campaign_config(rounds=rounds, retry=retry)
    horizon_ms = config.schedule.total_span_ms + config.schedule.interval_ms
    plan = FaultPlan.generate(
        hostnames, horizon_ms=horizon_ms, seed=fault_seed, config=plan_config
    )
    run = run_campaign_parallel(
        config,
        names,
        hostnames,
        world_seed=world_seed,
        workers=workers,
        shard_by=shard_by,
        shards=shards,
        fault_plan=plan,
    )
    return run, plan
