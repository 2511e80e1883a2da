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

A study is data: :func:`study_legs` (and :func:`fault_study_legs` and
:func:`session_study_legs` beside it) returns its campaigns as legs, one
``(CampaignConfig, vantage names, target hostnames)`` triple each, and
:func:`repro.parallel.run_campaigns` runs them through one pool, each
campaign on a fresh world of its own.  The merged run is the input to
every analysis in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.session import SessionPolicy

from repro.catalog.resolvers import CATALOG_HOSTNAMES
from repro.core.runner import CampaignConfig, RetryPolicy
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.errors import CampaignConfigError
from repro.faults import FaultPlan, FaultPlanConfig
from repro.parallel.runner import Leg, ParallelRun, run_campaigns
from repro.transports import SESSION_TRANSPORTS


def home_campaign_config(rounds: int = 30) -> CampaignConfig:
    """Chicago home devices: a round every 6 hours."""
    return CampaignConfig(
        name="home-chicago",
        schedule=PeriodicSchedule(
            rounds=rounds, interval_ms=6 * MS_PER_HOUR, stagger_ms=10 * 60 * 1000.0
        ),
        seed=101,
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
    month_label: str, start_ms: float, seed: int = 303
) -> CampaignConfig:
    """A short re-measurement span months after the main campaign: 6 rounds."""
    return CampaignConfig(
        name=f"recheck-{month_label}",
        schedule=PeriodicSchedule(
            rounds=6,
            interval_ms=8 * MS_PER_HOUR,
            start_ms=start_ms,
            stagger_ms=10 * 60 * 1000.0,
        ),
        seed=seed,
    )


def fault_campaign_config(
    rounds: int = 8, retry: Optional[RetryPolicy] = None
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
            rounds=rounds, interval_ms=8 * MS_PER_HOUR, stagger_ms=10 * 60 * 1000.0
        ),
        retry=retry if retry is not None else RetryPolicy(attempts=2),
        seed=404,
    )


def diff_campaign_config(
    rounds: int = 2,
    seed: int = 505,
    domains: Optional[Sequence[str]] = None,
    transports: Sequence[str] = ("doh",),
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
        transports=tuple(transports),
        ping=False,
        seed=seed,
        capture_responses=True,
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

#: Policy presets swept by :func:`session_study_legs`, in report order.
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


def session_study_legs(
    policies: Sequence[str] = SESSION_STUDY_POLICIES,
    rounds: int = 3,
    seed: int = 606,
    transports: Sequence[str] = SESSION_TRANSPORTS,
    domains: Optional[Sequence[str]] = None,
    vantage_names: Sequence[str] = EC2_VANTAGE_NAMES,
    target_hostnames: Sequence[str] = SESSION_TARGET_HOSTNAMES,
) -> Dict[str, Leg]:
    """The same campaign once per session policy: policy name -> leg, in
    ``policies`` order.

    Each policy is a run of its own (:func:`repro.parallel.run_campaigns`
    of its one leg), on its own fresh world, so the policies' per-measurement
    RNG streams are identical and only the policy differs.
    """
    from repro.session import policy_from_name

    return {
        name: (
            sessions_campaign_config(
                policy_from_name(name),
                rounds=rounds,
                seed=seed,
                transports=transports,
                domains=domains,
            ),
            vantage_names,
            target_hostnames,
        )
        for name in policies
    }


def run_campaign_parallel(
    config: CampaignConfig,
    vantage_names: Sequence[str],
    target_hostnames: Sequence[str],
    **execution,
) -> ParallelRun:
    """One campaign through :func:`repro.parallel.run_campaigns`; the
    benchmark harness's entry point."""
    return run_campaigns([(config, vantage_names, target_hostnames)], **execution)


#: The gap between the end of the study and its first monthly re-check,
#: and between re-checks.
RECHECK_GAP_MS = 30.0 * 24 * MS_PER_HOUR


def study_legs(
    home_rounds: int = 20,
    ec2_rounds: int = 20,
    recheck_months: Sequence[str] = (),
    target_hostnames: Sequence[str] = CATALOG_HOSTNAMES,
) -> List[Leg]:
    """The full study: home, EC2 and optional monthly re-checks, as legs.

    Run through :func:`repro.parallel.run_campaigns`, every campaign's
    shards share one pool, so a long home campaign cannot serialize behind
    the EC2 one, and each keeps its own cadence from virtual time 0, as the
    paper's home and EC2 campaigns ran independently.  The re-checks
    measure from the EC2 vantages, a month apart, starting a month after
    the longer campaign ends.

    Round counts are scaled down from the paper's multi-month spans; the
    statistics of interest (per-resolver medians and spreads) stabilize
    within a few dozen rounds because the simulation is stationary.
    """
    campaigns = [
        (campaign_config(rounds=rounds), vantage_names)
        for rounds, campaign_config, vantage_names in (
            (home_rounds, home_campaign_config, HOME_VANTAGE_NAMES),
            (ec2_rounds, ec2_campaign_config, EC2_VANTAGE_NAMES),
        )
        if rounds > 0
    ]
    study_end_ms = max(
        (config.schedule.total_span_ms for config, _names in campaigns), default=0.0
    )
    campaigns += [
        (
            monthly_recheck_config(
                month, start_ms=study_end_ms + RECHECK_GAP_MS * (index + 1),
                seed=303 + index,
            ),
            EC2_VANTAGE_NAMES,
        )
        for index, month in enumerate(recheck_months)
    ]
    if not campaigns:
        raise CampaignConfigError(
            "study needs home_rounds > 0, ec2_rounds > 0 or a re-check month"
        )
    return [(config, names, target_hostnames) for config, names in campaigns]


def fault_study_legs(
    rounds: int = 8,
    fault_seed: int = 20230919,
    plan_config: Optional[FaultPlanConfig] = None,
    retry: Optional[RetryPolicy] = None,
    vantage_names: Sequence[str] = EC2_VANTAGE_NAMES,
    target_hostnames: Sequence[str] = CATALOG_HOSTNAMES,
) -> Tuple[List[Leg], FaultPlan]:
    """The fault-injected campaign: EC2 vantages under a seeded FaultPlan.

    Returns the one leg and a :class:`~repro.faults.FaultPlan` covering the
    campaign's whole span plus one interval of slack (windows can still be
    open while the last round's probes and their retries are in flight);
    :func:`repro.parallel.run_campaigns` ships it to every shard, which
    arms only the windows of its own targets.  Plan generation derives an
    independent RNG per hostname, so the windows a resolver sees do not
    depend on the shard plan, and callers can correlate failures with them.
    """
    config = fault_campaign_config(rounds=rounds, retry=retry)
    plan = FaultPlan.generate(
        target_hostnames, horizon_ms=config.schedule.horizon_ms, seed=fault_seed,
        config=plan_config,
    )
    return [(config, vantage_names, target_hostnames)], plan
