"""Orchestration: plan a sharded campaign and run it across workers.

:func:`plan_campaign` turns a campaign description into a list of
:class:`~repro.parallel.executor.ShardTask`; :func:`run_parallel`
executes the tasks — sequentially in-process for ``workers=1``, one child
process per shard with at most ``workers`` alive otherwise — and merges
the results deterministically.  Both paths run the *same* tasks through
the *same* :func:`~repro.parallel.executor.execute_shard`, which is why
``workers=4`` reproduces ``workers=1`` byte for byte.

Where the platform has ``fork``, the parent builds and warms one world
per run (:func:`~repro.parallel.executor.pristine_worlds`) before the
first child exists, and each child starts from it by copy-on-write: the
cache warm-up is simulated once, not once per shard, and the operating
system is the snapshot.  Elsewhere children are spawned and build their
own world, as the sequential path does.

If the platform cannot start a child process at all (restricted
environments), the run degrades to the sequential fallback instead of
failing, with a note on the result.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.results import MeasurementRecord, ResultStore
from repro.core.runner import CampaignConfig, RoundProgress
from repro.errors import CampaignConfigError, ShardWorkerError, StoreError
from repro.obs import MetricsRegistry, SpanCollector
from repro.parallel.executor import (
    ShardResult,
    ShardTask,
    execute_shard,
    pristine_worlds,
)
from repro.parallel.merge import merge_shard_results, merge_shard_warehouses
from repro.parallel.shard import Shard, partition

if TYPE_CHECKING:
    from repro.monitor import Monitor, SloPolicy


@dataclass
class ParallelRun:
    """Merged artifacts and execution metadata of one sharded campaign."""

    store: ResultStore
    spans: SpanCollector
    metrics: MetricsRegistry
    shard_results: List[ShardResult]
    workers: int
    pool_used: bool
    fallback_reason: Optional[str] = None
    wall_seconds: float = 0.0
    shard_wall_seconds: Dict[str, float] = field(default_factory=dict)
    #: What the parent spent, once, building and warming the world its
    #: children started from (0 when every shard built its own).
    warm_seconds: float = 0.0
    #: The canonical warehouse when the run streamed to disk (``store_dir``
    #: was set); ``store`` is empty in that mode.
    warehouse: Optional[object] = None
    #: A finalized monitor when the run was given an SLO policy; holds the
    #: alert ``EventLog``, the verdicts and the scoreboard.
    monitor: Optional["Monitor"] = None

    @property
    def record_count(self) -> int:
        if self.warehouse is not None:
            return len(self.warehouse)
        return len(self.store)

    def records(self) -> Iterable[MeasurementRecord]:
        """The merged records in canonical order, from disk or from RAM."""
        if self.warehouse is not None:
            return self.warehouse.iter_sorted()
        return self.store.records

    def describe(self) -> str:
        mode = (
            f"{self.workers} workers (process pool)"
            if self.pool_used
            else "sequential"
            + (f" [{self.fallback_reason}]" if self.fallback_reason else "")
        )
        sink = (
            f" -> warehouse {self.warehouse.root}" if self.warehouse is not None else ""
        )
        setup = sum(result.setup_seconds for result in self.shard_results)
        return (
            f"parallel run: {len(self.shard_results)} shards via {mode}, "
            f"{self.record_count} records, {len(self.spans)} spans, "
            f"{self.wall_seconds:.2f}s wall ({self.warm_seconds:.2f}s warming "
            f"the shared world, {setup:.2f}s shard setup){sink}"
        )


def plan_campaign(
    config: CampaignConfig,
    vantage_names: Sequence[str],
    target_hostnames: Sequence[str],
    world_seed: int = 0,
    shard_by: str = "vantage",
    shards: Optional[int] = None,
    fault_plan_json: Optional[str] = None,
    answer_fault_plan_json: Optional[str] = None,
    collect_spans: bool = False,
    collect_metrics: bool = False,
    warm_caches: bool = True,
    store_staging_dir: Optional[str] = None,
    segment_records: int = 4096,
) -> List[ShardTask]:
    """Shard one campaign into executable tasks.

    The shard plan is a pure function of the arguments, so every process
    that plans the same campaign derives the same tasks — the planner
    never needs to ship the plan to workers out of band.  When
    ``store_staging_dir`` is set every shard streams its records into a
    staging warehouse under it instead of returning them in RAM.
    """
    shard_list: List[Shard] = partition(
        vantage_names,
        target_hostnames,
        rounds=config.schedule.rounds,
        shard_by=shard_by,
        shards=shards,
        seed=config.seed,
    )
    return [
        ShardTask.from_shard(
            shard,
            config=config,
            world_seed=world_seed,
            fault_plan_json=fault_plan_json,
            answer_fault_plan_json=answer_fault_plan_json,
            collect_spans=collect_spans,
            collect_metrics=collect_metrics,
            warm_caches=warm_caches,
            store_staging_dir=store_staging_dir,
            segment_records=segment_records,
        )
        for shard in shard_list
    ]


def chain_tasks(*plans: Sequence[ShardTask]) -> List[ShardTask]:
    """Concatenate shard plans, renumbering indices to stay unique.

    Used to drive several campaigns (e.g. the home and EC2 studies)
    through one worker pool while keeping the merge order well-defined:
    plan order first, shard order within each plan second.
    """
    chained: List[ShardTask] = []
    for plan in plans:
        for task in plan:
            chained.append(replace(task, shard_index=len(chained)))
    return chained


class _NoChildren(Exception):
    """This platform cannot start a child process; nothing has run yet."""


def _shard_child(sender, task: ShardTask, worlds) -> None:
    """Child entry point: run one shard, send ``(result, error, traceback)``."""
    try:
        outcome = (execute_shard(task, worlds), None, "")
    except Exception as exc:
        remote_traceback = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            # It would not survive the pipe (a constructor that takes
            # other arguments than it stores): the traceback names it.
            exc = None
        outcome = (None, exc, remote_traceback)
    sender.send(outcome)
    sender.close()


def _run_children(
    tasks: Sequence[ShardTask], workers: int
) -> Tuple[List[ShardResult], float]:
    """Run each task in its own child, at most ``workers`` alive at a time.

    Returns the results in completion order (the merge sorts them) and
    the seconds the parent spent on the world the children inherited.  A
    failed shard ends the run: the other children are terminated and
    joined, and the failure raises here — the shard's own exception, or
    :class:`~repro.errors.ShardWorkerError` for a child that died.
    """
    try:
        import multiprocessing
        from multiprocessing.connection import wait
    except ImportError as exc:
        raise _NoChildren(str(exc)) from exc

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    started = time.perf_counter()
    # Forked children share these pages until they write to them; a
    # spawned child could not be sent a world (closures do not pickle).
    worlds = pristine_worlds(tasks) if fork else None
    warm_seconds = time.perf_counter() - started

    pending = deque(tasks)
    live = []  # (process, receiver, task)
    results: List[ShardResult] = []
    try:
        while pending or live:
            while pending and len(live) < workers:
                task = pending.popleft()
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_shard_child, args=(sender, task, worlds)
                )
                try:
                    process.start()
                except OSError as exc:
                    receiver.close()
                    if live or results:
                        raise
                    raise _NoChildren(str(exc)) from exc
                finally:
                    sender.close()
                live.append((process, receiver, task))
            # A result is read before its child is joined (a child blocks
            # in ``send`` until the pipe is drained), and the sentinels are
            # watched beside the pipes so a killed child wakes the parent.
            wait(
                [
                    waitable
                    for process, receiver, _task in live
                    for waitable in (receiver, process.sentinel)
                ]
            )
            for child in list(live):
                process, receiver, task = child
                # Asked before the poll: a child seen exited here has sent
                # all it ever will, so an empty pipe means no result.
                exited = not process.is_alive()
                if receiver.poll():
                    try:
                        outcome = receiver.recv()
                    except EOFError:
                        outcome = None
                elif exited:
                    outcome = None
                else:
                    continue
                process.join()
                receiver.close()
                live.remove(child)
                if outcome is None:
                    raise ShardWorkerError(
                        f"shard {task.shard_key!r} lost its child process "
                        f"(exit code {process.exitcode}) before a result",
                        task.shard_key,
                        process.exitcode,
                    )
                result, error, remote_traceback = outcome
                if result is None:
                    cause = ShardWorkerError(
                        f"shard {task.shard_key!r} raised in its child "
                        f"process:\n{remote_traceback}",
                        task.shard_key,
                    )
                    if error is None:
                        raise cause
                    raise error from cause
                results.append(result)
    finally:
        for process, receiver, _task in live:
            process.terminate()
            process.join()
            receiver.close()
    return results, warm_seconds


def run_parallel(
    tasks: Sequence[ShardTask],
    workers: int = 1,
    store_dir: Optional[str] = None,
    segment_records: int = 4096,
    slo_policy: Optional["SloPolicy"] = None,
    on_round_complete: Optional[Callable[[RoundProgress], None]] = None,
) -> ParallelRun:
    """Execute shard tasks and merge their results.

    ``workers=1`` (or a single task) runs everything in-process; higher
    counts run each shard in a child process of its own (at most
    ``workers`` at a time), falling back to sequential execution — with
    the reason recorded on the result — when no child process can be
    started on this platform.

    With ``store_dir`` set, every shard streams its records into a
    staging warehouse under ``<store_dir>/.staging`` (tasks are rewritten
    accordingly) and the merge step k-way merges the stagings into a
    canonical warehouse at ``store_dir`` — byte-identical for any worker
    count, since the output depends only on the record multiset.

    With ``slo_policy`` set (a :class:`repro.monitor.SloPolicy`), the
    merged canonical record stream is replayed through a
    :class:`repro.monitor.Monitor` after the merge, so the alert log
    depends only on the record multiset and is byte-identical for any
    worker count given a fixed shard plan, and identical to feeding the
    monitor a serial execution's records in arrival order (per group,
    arrival order equals canonical order).  The finalized monitor lands on
    ``ParallelRun.monitor`` and its detector gauges in the merged metrics.

    ``on_round_complete`` is called as each round of a one-shard plan
    finishes: such a plan always runs in this process, and its rounds are
    the campaign's.  The shards of a larger plan each see a slice, possibly
    in a child, so there it is not called.
    """
    if not tasks:
        raise CampaignConfigError("no shard tasks to run")
    if workers < 1:
        raise CampaignConfigError(f"worker count {workers!r} must be >= 1")
    staging: Optional[Path] = None
    if store_dir is not None:
        staging = Path(store_dir) / ".staging"
        if staging.exists():
            raise StoreError(
                f"shard staging left behind at {staging} (a run into "
                f"{store_dir} was killed, or is still going): remove it first"
            )
        tasks = [
            replace(
                task,
                store_staging_dir=str(staging),
                segment_records=segment_records,
            )
            for task in tasks
        ]

    started = time.perf_counter()
    pool_used = False
    fallback_reason: Optional[str] = None
    warm_seconds = 0.0
    warehouse = None
    try:
        if workers > 1 and len(tasks) > 1:
            try:
                results, warm_seconds = _run_children(tasks, workers)
                pool_used = True
            except _NoChildren as exc:
                # Sandboxes that forbid new processes still complete the run.
                fallback_reason = f"process pool unavailable: {exc}"
        if not pool_used:
            callback = on_round_complete if len(tasks) == 1 else None
            results = [
                execute_shard(task, on_round_complete=callback) for task in tasks
            ]
        if store_dir is not None:
            warehouse = merge_shard_warehouses(
                results, store_dir, segment_records=segment_records
            )
    finally:
        # Also after a failed shard or merge: what is left would make the
        # next run into this directory refuse to start.
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
    # A store run's results carry no records: its merged store is empty.
    store, spans, metrics = merge_shard_results(results)

    run = ParallelRun(
        store=store,
        spans=spans,
        metrics=metrics,
        shard_results=sorted(results, key=lambda result: result.shard_index),
        workers=workers,
        pool_used=pool_used,
        fallback_reason=fallback_reason,
        shard_wall_seconds={
            result.shard_key: result.wall_seconds for result in results
        },
        warm_seconds=warm_seconds,
        warehouse=warehouse,
    )
    if slo_policy is not None:
        from repro.monitor import Monitor, SloPolicy

        if not isinstance(slo_policy, SloPolicy):
            raise CampaignConfigError(
                f"slo_policy must be a SloPolicy, got {type(slo_policy).__name__}"
            )
        run.monitor = Monitor(slo_policy)
        run.monitor.replay(run.records())
        run.monitor.finalize(metrics)
    run.wall_seconds = time.perf_counter() - started
    return run


def default_worker_count() -> int:
    """A sensible default worker count for this machine."""
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        available = os.cpu_count() or 1
    return max(1, available)
