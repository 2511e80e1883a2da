"""Golden-master equivalence: sharded runs reproduce the serial run.

The contract of :mod:`repro.parallel` is byte-equivalence — for the same
seed, ``run_parallel(plan, workers=N)`` writes exactly the bytes that
``workers=1`` writes, for any ``N``, any shard strategy, and any shard
completion order.  These tests pin that contract on the paper's EC2
campaign (full 91-resolver catalog, three seeds) and on smaller worlds
for the per-strategy and fault-study variants, comparing

* the exported ResultStore JSONL,
* the merged span JSONL (rebased ids, untouched virtual timestamps),
* the merged metrics snapshot, and
* downstream analysis tables built from the merged store,

plus the anchor that makes "serial reference" meaningful: a one-shard
plan reproduces the classic ``Campaign.run()`` on a fresh world.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.export import figure_rows_to_csv
from repro.analysis.figures import paper_figure
from repro.catalog.browsers import mainstream_hostnames
from repro.catalog.resolvers import CATALOG
from repro.core.runner import Campaign
from repro.experiments.campaigns import (
    EC2_VANTAGE_NAMES,
    ec2_campaign_config,
    fault_study_legs,
    study_legs,
)
from repro.experiments.world import build_world
from repro.parallel import ParallelRun, run_campaigns

from tests.conftest import MINI_CATALOG_HOSTNAMES

FULL_HOSTNAMES = tuple(entry.hostname for entry in CATALOG)
MINI = tuple(MINI_CATALOG_HOSTNAMES)

#: Worker count the pooled side of the golden-master comparison uses.
#: CI's workers matrix re-runs this suite with REPRO_TEST_WORKERS=4.
POOLED_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))


def _artifacts(run: ParallelRun):
    """The three byte-level artifacts of a merged run."""
    return (
        run.store.to_jsonl(),
        run.spans.to_jsonl(),
        json.dumps(run.metrics.snapshot(), sort_keys=True),
    )


def _run(seed: int, workers: int, hostnames=MINI, shard_by: str = "vantage",
         shards=None, rounds: int = 2) -> ParallelRun:
    return run_campaigns(
        [(
            ec2_campaign_config(rounds=rounds, seed=seed),
            EC2_VANTAGE_NAMES,
            hostnames,
        )],
        world_seed=seed,
        workers=workers,
        shard_by=shard_by,
        shards=shards,
        collect_spans=True,
        collect_metrics=True,
    )


# ---------------------------------------------------------------------------
# The anchor: a one-shard plan IS the classic serial campaign
# ---------------------------------------------------------------------------


def test_identity_plan_reproduces_classic_run():
    config = ec2_campaign_config(rounds=2, seed=11)
    world = build_world(seed=11)
    classic = Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in EC2_VANTAGE_NAMES],
        targets=world.targets(list(MINI)),
        config=config,
    ).run()
    classic.canonical_sort()

    sharded = run_campaigns(
        [(config, EC2_VANTAGE_NAMES, MINI)], world_seed=11, workers=1, shards=1
    )
    assert sharded.store.to_jsonl() == classic.to_jsonl()


# ---------------------------------------------------------------------------
# The paper EC2 campaign: serial vs pooled, three seeds
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 17, 2023])
def test_ec2_campaign_workers_byte_identical(seed):
    serial = _run(seed, workers=1, hostnames=FULL_HOSTNAMES)
    pooled = _run(seed, workers=POOLED_WORKERS, hostnames=FULL_HOSTNAMES)
    assert not serial.pool_used
    assert _artifacts(serial) == _artifacts(pooled)

    # Downstream analysis sees identical inputs, so identical tables.
    mainstream = mainstream_hostnames()
    serial_csv = figure_rows_to_csv(
        paper_figure(serial.store, "figure2", mainstream)
    )
    pooled_csv = figure_rows_to_csv(
        paper_figure(pooled.store, "figure2", mainstream)
    )
    assert serial_csv == pooled_csv


@pytest.mark.slow
def test_worker_counts_two_three_four_agree():
    serial = _run(5, workers=1, shard_by="resolver", shards=4)
    arts = _artifacts(serial)
    for workers in (2, 3, 4):
        assert _artifacts(_run(5, workers=workers, shard_by="resolver",
                                shards=4)) == arts


@pytest.mark.slow
@pytest.mark.parametrize("shard_by,shards", [("resolver", 3), ("round", 2)])
def test_other_strategies_byte_identical(shard_by, shards):
    serial = _run(23, workers=1, shard_by=shard_by, shards=shards)
    pooled = _run(23, workers=3, shard_by=shard_by, shards=shards)
    assert _artifacts(serial) == _artifacts(pooled)


# ---------------------------------------------------------------------------
# Composite runs: the study and the fault study
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_study_parallel_byte_identical():
    legs = study_legs(home_rounds=1, ec2_rounds=1, target_hostnames=MINI)
    kwargs = dict(world_seed=3, collect_spans=True, collect_metrics=True)
    serial = run_campaigns(legs, workers=1, **kwargs)
    pooled = run_campaigns(legs, workers=3, **kwargs)
    assert _artifacts(serial) == _artifacts(pooled)
    # Both campaigns landed in the one merged store.
    assert {r.campaign for r in serial.store} == {"home-chicago", "ec2-global"}


@pytest.mark.slow
def test_fault_study_parallel_byte_identical():
    legs, serial_plan = fault_study_legs(rounds=2, target_hostnames=MINI)
    serial = run_campaigns(legs, world_seed=9, fault_plan=serial_plan, workers=1)
    legs, pooled_plan = fault_study_legs(rounds=2, target_hostnames=MINI)
    pooled = run_campaigns(legs, world_seed=9, fault_plan=pooled_plan, workers=2)
    assert serial_plan.to_json() == pooled_plan.to_json()
    assert serial.store.to_jsonl() == pooled.store.to_jsonl()
    # The injected plan has to bite identically too: same error breakdown.
    errors = sorted(
        (r.error_class or "") for r in serial.store if not r.success
    )
    assert errors == sorted(
        (r.error_class or "") for r in pooled.store if not r.success
    )
