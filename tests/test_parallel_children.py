"""The child-per-shard runner: one warmed world, named failures, no residue.

``run_parallel(workers>1)`` builds and warms one world in the parent and
runs every shard in a forked child that inherits it.  These tests pin the
mechanism (who builds a world, and how often), what a failing or killed
child turns into, and that no run leaves ``.staging`` behind.  The
byte-equivalence of serial and pooled runs is the golden masters' job
(``test_parallel_equivalence`` and friends), not repeated here.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import time

import pytest

import repro.dnswire.message as message_module
import repro.experiments.world as world_module
import repro.httpsim.h2 as h2_module
import repro.parallel.runner as runner_module
from repro.core.probes import DohProbeConfig
from repro.core.runner import CampaignConfig
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.errors import CampaignConfigError, ShardWorkerError, StoreError
from repro.obs import MetricsRegistry, tracing
from repro.parallel import execute_shard, plan_campaign, run_parallel
from repro.parallel.executor import pristine_worlds
from repro.store import StoreSink, Warehouse

from tests.conftest import MINI_CATALOG_HOSTNAMES

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="children inherit the parent's world (and these patches) by fork",
)

SHARDS = 3


def _plan(hostnames=tuple(MINI_CATALOG_HOSTNAMES[:6]), **kwargs):
    config = CampaignConfig(
        name="children",
        schedule=PeriodicSchedule(rounds=1, interval_ms=1 * MS_PER_HOUR),
        probe_config=DohProbeConfig(),
        seed=5,
    )
    return plan_campaign(
        config, ("ec2-ohio",), hostnames, world_seed=5,
        shard_by="resolver", shards=SHARDS, **kwargs,
    )


def _artifacts(results):
    ordered = sorted(results, key=lambda result: result.shard_index)
    return [
        (
            "".join(record.to_json() + "\n" for record in result.records),
            json.dumps(result.metrics_state, sort_keys=True),
        )
        for result in ordered
    ]


@pytest.fixture
def count_builds(monkeypatch, tmp_path):
    """Count ``build_world`` calls: in this process, and in any child."""
    parent = os.getpid()
    calls = {"parent": 0}
    real = world_module.build_world

    def counting(*args, **kwargs):
        if os.getpid() == parent:
            calls["parent"] += 1
        else:
            (tmp_path / f"child-built-{os.getpid()}-{time.monotonic_ns()}").touch()
        return real(*args, **kwargs)

    monkeypatch.setattr(world_module, "build_world", counting)
    calls["children"] = lambda: len(list(tmp_path.glob("child-built-*")))
    return calls


# -- warm once ---------------------------------------------------------------


@needs_fork
def test_pooled_run_builds_one_world_in_the_parent_and_none_in_children(count_builds):
    run = run_parallel(_plan(), workers=2)
    assert run.pool_used
    assert count_builds["parent"] == 1
    assert count_builds["children"]() == 0
    assert run.warm_seconds > 0
    # The children's setup is what is left once the world is inherited.
    assert sum(r.setup_seconds for r in run.shard_results) < run.warm_seconds
    assert all(0 <= r.setup_seconds <= r.wall_seconds for r in run.shard_results)


@needs_fork
def test_children_inheriting_warm_codec_memos_match_the_sequential_run():
    sequential = run_parallel(_plan(), workers=1)  # fills this process's memos
    assert message_module._PARSED and h2_module._ENCODED_BLOCKS
    pooled = run_parallel(_plan(), workers=2)  # forked with them
    assert pooled.pool_used
    assert _artifacts(pooled.shard_results) == _artifacts(sequential.shard_results)


def test_sequential_run_builds_one_world_per_shard_and_reports_it(count_builds):
    run = run_parallel(_plan(), workers=1)
    assert not run.pool_used and run.warm_seconds == 0.0
    assert count_builds["parent"] == SHARDS
    assert "shard setup" in run.describe() and "setup" in run.shard_results[0].describe()


def test_an_inherited_world_is_taken_once_then_built(count_builds):
    first, second, _ = _plan(collect_metrics=True)
    built = [execute_shard(first), execute_shard(second)]
    assert count_builds["parent"] == 2

    worlds = pristine_worlds([first, second])
    assert count_builds["parent"] == 3 and len(worlds) == 1
    inherited = [execute_shard(first, worlds), execute_shard(second, worlds)]
    # The first task took the world, the second found none and built one.
    assert worlds == {}
    assert count_builds["parent"] == 4
    assert _artifacts(inherited) == _artifacts(built)


def test_pristine_world_is_built_outside_the_ambient_registry():
    (task, *_rest) = _plan()
    untouched = MetricsRegistry(enabled=True).snapshot()
    with tracing() as (recorder, metrics):
        pristine_worlds([task])
        assert len(recorder) == 0
        assert metrics.snapshot() == untouched
        # The same build under the ambient registry does report to it:
        world_module.build_world(seed=task.world_seed)
        assert metrics.snapshot() != untouched


# -- failures ----------------------------------------------------------------


@needs_fork
def test_exception_inside_a_shard_reraises_as_its_own_type():
    tasks = _plan(hostnames=tuple(MINI_CATALOG_HOSTNAMES[:5]) + ("no.such.resolver",))
    with pytest.raises(CampaignConfigError, match="no.such.resolver") as caught:
        run_parallel(tasks, workers=2)
    cause = caught.value.__cause__
    assert isinstance(cause, ShardWorkerError) and cause.exitcode is None
    assert cause.shard_key in {task.shard_key for task in tasks}
    assert "Traceback" in str(cause)
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __init__(self, first, second):
        super().__init__(f"{first} {second}")


@needs_fork
@pytest.mark.parametrize(
    "die, exitcode",
    [
        (lambda: os._exit(7), 7),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    ],
    ids=["os._exit", "kill -9"],
)
def test_killed_child_names_its_shard_and_the_run_does_not_hang(
    monkeypatch, die, exitcode
):
    tasks = _plan()
    doomed = tasks[1]

    def shard(task, worlds=None):
        if task.shard_key == doomed.shard_key:
            die()
        time.sleep(60)  # the survivors: must be terminated, not waited for

    monkeypatch.setattr(runner_module, "execute_shard", shard)
    started = time.monotonic()
    with pytest.raises(ShardWorkerError, match=re.escape(doomed.shard_key)) as caught:
        run_parallel(tasks, workers=SHARDS)
    assert time.monotonic() - started < 30
    assert caught.value.shard_key == doomed.shard_key
    assert caught.value.exitcode == exitcode
    assert multiprocessing.active_children() == []


@needs_fork
def test_exception_that_does_not_pickle_still_names_the_shard(monkeypatch):
    def shard(task, worlds=None):
        raise _Unpicklable("does not", "round-trip")

    monkeypatch.setattr(runner_module, "execute_shard", shard)
    with pytest.raises(ShardWorkerError, match="_Unpicklable: does not round-trip"):
        run_parallel(_plan(), workers=2)


def test_sequential_fallback_when_no_child_can_be_started(monkeypatch):
    def no_fork():
        raise PermissionError("fork is not permitted here")

    monkeypatch.setattr(os, "fork", no_fork)
    tasks = _plan(collect_metrics=True)
    run = run_parallel(tasks, workers=2)
    assert not run.pool_used
    assert "fork is not permitted here" in run.fallback_reason
    assert _artifacts(run.shard_results) == _artifacts(
        run_parallel(tasks, workers=1).shard_results
    )


# -- staging residue ---------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_store_run_leaves_no_staging_behind(tmp_path, workers):
    store_dir = tmp_path / "wh"
    bad = _plan(hostnames=tuple(MINI_CATALOG_HOSTNAMES[:5]) + ("no.such.resolver",))
    with pytest.raises(CampaignConfigError):
        run_parallel(bad, workers=workers, store_dir=str(store_dir))
    assert not (store_dir / ".staging").exists()
    # ... so the same directory takes the next run.
    run = run_parallel(_plan(), workers=workers, store_dir=str(store_dir))
    assert run.record_count == len(run.warehouse) > 0
    assert not (store_dir / ".staging").exists()


def test_store_run_refuses_stale_staging_up_front(tmp_path, count_builds):
    store_dir = tmp_path / "wh"
    residue = store_dir / ".staging" / "shard-0000"
    StoreSink(Warehouse(residue)).close()
    with pytest.raises(StoreError, match=r"\.staging"):
        run_parallel(_plan(), workers=1, store_dir=str(store_dir))
    # Refused before any shard ran, and somebody else's files are kept.
    assert count_builds["parent"] == 0
    assert Warehouse(residue).exists()
