"""Standalone execution of one campaign shard.

:func:`execute_shard` is the unit of work the runner distributes.  It is
a module-level function taking one picklable :class:`ShardTask` and
returning one picklable :class:`ShardResult`, so it runs identically

* in-process (the ``workers=1`` sequential fallback),
* in a forked child, and
* in a spawned child on platforms without ``fork``.

A shard runs on a **fresh world** built from the campaign's world seed —
the exact world the serial campaign uses — restricted to the shard's
vantages, targets and round range.  Fresh means *never run on before*,
not *built here*: a forked child is handed the pristine world its parent
built and warmed once (see :func:`pristine_worlds`) and takes it instead
of building its own; every other caller builds one.  Both are the same
world, event for event, so the result depends only on the task, never on
the process that ran it or on what other shards are doing: every RNG
stream in the measurement path is derived from stable structural keys
(see :mod:`repro.core.seeding`).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.results import MeasurementRecord, ResultStore
from repro.core.runner import Campaign, CampaignConfig, RoundProgress
from repro.core.scheduler import MS_PER_HOUR
from repro.errors import CampaignConfigError
from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    Span,
    SpanCollector,
    tracing,
)
from repro.parallel.shard import Shard

if TYPE_CHECKING:
    from repro.experiments.world import World

#: What tells two shard worlds apart before a shard has touched them.
WorldKey = Tuple[int, bool]


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to run one shard, picklable.

    ``config`` is the *unsliced* campaign config; the executor slices its
    schedule to ``[round_start, round_stop)``.  ``network_seed`` (when not
    ``None``) reseeds the shard world's packet-jitter/loss stream;
    multi-shard plans use it to de-correlate shards, while the identity
    plan leaves the world untouched, reproducing the classic serial
    campaign exactly.
    """

    world_seed: int
    config: CampaignConfig
    vantage_names: Tuple[str, ...]
    target_hostnames: Tuple[str, ...]
    round_start: int
    round_stop: int
    shard_index: int
    shard_key: str
    shard_seed: int
    network_seed: Optional[int]
    fault_plan_json: Optional[str] = None
    #: Serialized :class:`repro.diff.faults.AnswerFaultPlan`; shards arm
    #: response mutators on their own targets exactly like the serial run.
    answer_fault_plan_json: Optional[str] = None
    collect_spans: bool = False
    collect_metrics: bool = False
    warm_caches: bool = True
    #: When set, the shard streams records into its own staging warehouse
    #: under this directory (``<store_staging_dir>/shard-NNNN``) instead of
    #: returning them in RAM; the merge step k-way merges the staging
    #: warehouses into the canonical store.
    store_staging_dir: Optional[str] = None
    segment_records: int = 4096

    @classmethod
    def from_shard(
        cls,
        shard: Shard,
        config: CampaignConfig,
        world_seed: int,
        fault_plan_json: Optional[str] = None,
        answer_fault_plan_json: Optional[str] = None,
        collect_spans: bool = False,
        collect_metrics: bool = False,
        warm_caches: bool = True,
        store_staging_dir: Optional[str] = None,
        segment_records: int = 4096,
    ) -> "ShardTask":
        if shard.round_stop > config.schedule.rounds:
            raise CampaignConfigError(
                f"shard {shard.key!r} rounds [{shard.round_start}, {shard.round_stop}) "
                f"exceed the schedule's {config.schedule.rounds} rounds"
            )
        return cls(
            world_seed=world_seed,
            config=config,
            vantage_names=shard.vantage_names,
            target_hostnames=shard.target_hostnames,
            round_start=shard.round_start,
            round_stop=shard.round_stop,
            shard_index=shard.index,
            shard_key=shard.key,
            shard_seed=shard.seed,
            network_seed=shard.network_seed,
            fault_plan_json=fault_plan_json,
            answer_fault_plan_json=answer_fault_plan_json,
            collect_spans=collect_spans,
            collect_metrics=collect_metrics,
            warm_caches=warm_caches,
            store_staging_dir=store_staging_dir,
            segment_records=segment_records,
        )


@dataclass
class ShardResult:
    """What one shard hands back to the merger."""

    shard_index: int
    shard_key: str
    records: List[MeasurementRecord]
    spans: List[Span]
    metrics_state: Optional[dict]
    wall_seconds: float
    #: Staging warehouse path when the shard streamed to disk; ``records``
    #: is empty in that mode.
    warehouse_path: Optional[str] = None
    record_count: int = -1
    #: The part of ``wall_seconds`` spent before ``Campaign.run``: getting
    #: the world (built here, or inherited) and arming faults on it.
    setup_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.record_count < 0:
            self.record_count = len(self.records)

    def describe(self) -> str:
        return (
            f"shard[{self.shard_index}] {self.shard_key}: "
            f"{self.record_count} records, {len(self.spans)} spans, "
            f"{self.wall_seconds:.2f}s ({self.setup_seconds:.2f}s setup)"
        )


def world_key(task: ShardTask) -> WorldKey:
    return (task.world_seed, task.warm_caches)


def pristine_worlds(tasks: Iterable[ShardTask]) -> Dict[WorldKey, "World"]:
    """One built (and warmed) world per distinct :func:`world_key` in ``tasks``.

    The runner calls this once, before it forks, so that every child
    starts from the same untouched world by copy-on-write instead of
    re-simulating the cache warm-up.  The build runs with tracing and
    metrics off, whatever the caller has installed: a child that built
    its own world reported the warm-up to nobody either.
    """
    from repro.experiments.world import build_world

    worlds: Dict[WorldKey, "World"] = {}
    with tracing(recorder=NULL_RECORDER, metrics=MetricsRegistry(enabled=False)):
        for task in tasks:
            key = world_key(task)
            if key not in worlds:
                worlds[key] = build_world(seed=key[0], warm_caches=key[1])
    return worlds


def execute_shard(
    task: ShardTask,
    inherited: Optional[Dict[WorldKey, "World"]] = None,
    on_round_complete: Optional[Callable[[RoundProgress], None]] = None,
) -> ShardResult:
    """Run one shard on a fresh world and collect its artifacts.

    ``inherited`` is this process's own copy of :func:`pristine_worlds`.
    A campaign changes the world it runs on, so the shard *pops* its
    world from the mapping: a second task in the same process finds none
    there and builds its own.  ``on_round_complete`` is the campaign's
    round callback; only a caller in this process can hand one over.
    """
    started = time.perf_counter()
    world = inherited.pop(world_key(task), None) if inherited else None
    if world is None:
        from repro.experiments.world import build_world

        world = build_world(seed=task.world_seed, warm_caches=task.warm_caches)
    if task.network_seed is not None:
        # De-correlate this shard's packet noise from its siblings.  The
        # reseed happens after cache warming, so all shards diverge from
        # the same warmed world state.
        world.network.rng = random.Random(task.network_seed)

    vantages = [world.vantage(name) for name in task.vantage_names]
    targets = world.targets(list(task.target_hostnames))

    if task.fault_plan_json:
        from repro.faults import FaultPlan, inject_faults

        plan = FaultPlan.from_json(task.fault_plan_json).restricted_to(
            task.target_hostnames
        )
        if len(plan):
            inject_faults(
                world.network,
                [world.deployments[hostname] for hostname in task.target_hostnames],
                plan,
            )

    if task.answer_fault_plan_json:
        from repro.diff.faults import AnswerFaultPlan

        answer_plan = AnswerFaultPlan.from_json(
            task.answer_fault_plan_json
        ).restricted_to(task.target_hostnames)
        if len(answer_plan):
            answer_plan.install(
                world.deployments[hostname] for hostname in task.target_hostnames
            )

    config = replace(
        task.config,
        schedule=task.config.schedule.slice_rounds(task.round_start, task.round_stop),
    )
    if task.warm_caches:
        # The build-time warm decays at the study-domain TTL; a campaign
        # scheduled deep into virtual time (the observatory's monthly
        # windows) re-warms just ahead of its first round so every month
        # measures the same always-cached steady state.
        refresh_at = config.schedule.start_ms - MS_PER_HOUR
        if refresh_at > world.network.loop.now:
            world.schedule_cache_refresh(refresh_at)
    recorder = SpanCollector() if task.collect_spans else NULL_RECORDER
    metrics = MetricsRegistry(enabled=task.collect_metrics)
    warehouse_path: Optional[str] = None
    if task.store_staging_dir is not None:
        # Stream records to a per-shard staging warehouse instead of
        # holding them in RAM; the merge step k-way merges the stagings.
        from pathlib import Path

        from repro.store import StoreSink, Warehouse

        staging_root = Path(task.store_staging_dir) / f"shard-{task.shard_index:04d}"
        store = StoreSink(
            Warehouse(staging_root),
            segment_records=task.segment_records,
            metrics=metrics,
        )
        warehouse_path = str(staging_root)
    else:
        store = ResultStore()
    setup_seconds = time.perf_counter() - started
    # Installed ambiently: the campaign and the protocol layers (netsim,
    # tlssim, httpsim, quicsim) all report into the shard's own pair; the
    # sequential fallback restores the previous ambient pair on exit.
    with tracing(recorder=recorder, metrics=metrics):
        Campaign(
            network=world.network,
            vantages=vantages,
            targets=targets,
            config=config,
            store=store,
            on_round_complete=on_round_complete,
        ).run()
    record_count = len(store)
    if warehouse_path is not None:
        store.close()

    return ShardResult(
        shard_index=task.shard_index,
        shard_key=task.shard_key,
        records=store.records if isinstance(store, ResultStore) else [],
        spans=recorder.spans if isinstance(recorder, SpanCollector) else [],
        metrics_state=metrics.to_state() if task.collect_metrics else None,
        wall_seconds=time.perf_counter() - started,
        warehouse_path=warehouse_path,
        record_count=record_count,
        setup_seconds=setup_seconds,
    )
