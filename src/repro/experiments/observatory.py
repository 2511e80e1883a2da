"""The observatory: a months-long campaign feeding the observer fleet.

The poster's longitudinal claim rests on monthly re-measurements spread
over most of a year.  The observatory compresses that shape into one
deterministic study: ``months`` measurement windows, 28 virtual days
apart, each a day of mixed DoH/DoQ rounds with raw responses captured —
exactly the stream the five built-in observers need (availability, p95
drift, establishment errors, DoQ adoption, answer disagreement).

Two longitudinal signals are built in:

* the **DoQ ramp** — each successive month shifts rounds from DoH to
  DoQ, so the adoption observer sees a genuine multi-month trend rather
  than stationary noise;
* an optional **fault plan** spanning the whole horizon, so availability
  and error-share observers have real dips to find.

:func:`observer_study_legs` returns the months as legs (one
``(CampaignConfig, vantage names, target hostnames)`` triple per campaign)
and the fault plan; :func:`repro.parallel.run_campaigns` runs them.
Everything is derived from explicit seeds; ``workers=1`` and any sharded
execution produce the same record multiset, and therefore (by the fleet's
order-independence) byte-identical events and index.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.catalog.resolvers import CATALOG, CATALOG_HOSTNAMES
from repro.core.runner import CampaignConfig
from repro.core.scheduler import MS_PER_DAY, MS_PER_HOUR, PeriodicSchedule
from repro.core.seeding import derive_seed
from repro.errors import CampaignConfigError
from repro.experiments.campaigns import EC2_VANTAGE_NAMES
from repro.faults import FaultPlan, FaultPlanConfig
from repro.observers import ObserverFleet, ObserverReport, ObserverSpec
from repro.parallel.runner import Leg, ParallelRun

#: Gap between successive measurement windows (the poster re-measured
#: roughly monthly).
MONTH_MS = 28.0 * MS_PER_DAY


def observer_campaign_configs(
    months: int = 4,
    rounds_per_month: int = 6,
    seed: int = 606,
) -> List[CampaignConfig]:
    """One or two campaigns per monthly window: a DoH leg and a DoQ leg.

    Month ``m`` (0-based) starts at ``m * MONTH_MS``.  The DoH leg runs
    a constant ``rounds_per_month`` cadence every month, so per-resolver
    latency and availability baselines stay stationary in a healthy
    world.  The DoQ leg is additive: it ramps linearly from zero rounds
    in month 0 up to ``rounds_per_month`` in the last month — the
    adoption trend the doq-adoption observer is built to notice, without
    starving the DoH stream the other observers baseline against.
    Rounds run at EC2 cadence (8 virtual hours apart), the DoQ leg
    offset by 4 hours so both legs land on the same virtual days.
    Responses are captured for the disagreement observer.
    """
    if months < 1:
        raise CampaignConfigError("observer study needs months >= 1")
    if rounds_per_month < 1:
        raise CampaignConfigError("observer study needs rounds_per_month >= 1")
    configs: List[CampaignConfig] = []
    for month in range(months):
        start_ms = month * MONTH_MS
        if months > 1:
            doq_rounds = (month * rounds_per_month) // (months - 1)
        else:
            doq_rounds = 0
        legs = (("doh", rounds_per_month, 0.0), ("doq", doq_rounds, 4 * MS_PER_HOUR))
        for transport, rounds, offset_ms in legs:
            if rounds <= 0:
                continue
            configs.append(
                CampaignConfig(
                    name=f"observe-m{month:02d}-{transport}",
                    schedule=PeriodicSchedule(
                        rounds=rounds,
                        interval_ms=8 * MS_PER_HOUR,
                        start_ms=start_ms + offset_ms,
                        stagger_ms=10 * 60 * 1000.0,
                    ),
                    transports=(transport,),
                    ping=False,
                    seed=derive_seed(seed, "observe", month, transport),
                    capture_responses=True,
                )
            )
    return configs


#: Hostnames whose catalog entry advertises DoQ support.  The DoQ leg is
#: planned only against these — probing DoQ at a resolver that does not
#: speak it measures nothing but connection refusals, which would drown
#: the error-share and availability observers in self-inflicted noise.
_DOQ_CAPABLE = frozenset(
    entry.hostname for entry in CATALOG if "doq" in entry.transports
)


def observer_study_horizon_ms(months: int) -> float:
    """The virtual span the study covers, plus one window of slack."""
    return months * MONTH_MS + MS_PER_DAY


def observer_study_legs(
    months: int = 4,
    rounds_per_month: int = 6,
    seed: int = 606,
    vantage_names: Sequence[str] = EC2_VANTAGE_NAMES,
    target_hostnames: Sequence[str] = CATALOG_HOSTNAMES,
    fault_seed: Optional[int] = None,
    fault_fraction: float = 0.10,
) -> Tuple[List[Leg], Optional[FaultPlan]]:
    """The whole multi-month observatory as legs, and its fault plan.

    Run through :func:`repro.parallel.run_campaigns`, the monthly
    campaigns' shards interleave freely in one pool, and the merged store
    (or warehouse) holds the full longitudinal stream in canonical order.
    The DoQ legs target only the DoQ-capable subset of the selected
    resolvers (and are dropped entirely when that subset is empty), so
    the ramp measures adoption rather than guaranteed refusals.
    With ``fault_seed`` set, the returned :class:`~repro.faults.FaultPlan`
    spans the entire horizon -- fresh shard worlds start at virtual time
    0, which is exactly the plan's origin, so the same windows are live
    for any worker count; without it the plan is ``None``.
    """
    doq_hostnames = [name for name in target_hostnames if name in _DOQ_CAPABLE]
    plan = None
    if fault_seed is not None:
        plan = FaultPlan.generate(
            target_hostnames,
            horizon_ms=observer_study_horizon_ms(months),
            seed=fault_seed,
            config=FaultPlanConfig(impaired_time_fraction=fault_fraction),
        )
    legs: List[Leg] = []
    for config in observer_campaign_configs(
        months=months,
        rounds_per_month=rounds_per_month,
        seed=seed,
    ):
        targets = doq_hostnames if config.transports == ("doq",) else target_hostnames
        if targets:  # no DoQ-capable resolver selected: skip the DoQ leg
            legs.append((config, vantage_names, targets))
    return legs, plan


def observe_run(
    run: ParallelRun,
    specs: Optional[Sequence[ObserverSpec]] = None,
) -> ObserverReport:
    """Replay a parallel run's merged stream through an observer fleet.

    Reads the warehouse's sorted stream when the run went to disk and the
    in-RAM store otherwise; the fleet is order-independent, so both paths
    yield identical reports.  Gauges land in the run's own registry under
    ``observer.*``.
    """
    fleet = ObserverFleet(specs)
    fleet.replay(run.records())
    return fleet.finalize(run.metrics)
