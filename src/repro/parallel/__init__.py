"""Sharded parallel campaign execution with deterministic merge.

The serial :class:`~repro.core.runner.Campaign` drives every round of
every vantage on one virtual clock.  This package opens the same workload
to a worker pool:

* :mod:`repro.parallel.shard` partitions a campaign's
  (vantage × resolver × round) space into disjoint, covering shards and
  derives each shard's network seed from the campaign seed;
* :mod:`repro.parallel.executor` runs one shard standalone — a fresh
  world for the campaign's world seed (inherited from the parent by a
  forked child, built on the spot otherwise), the campaign restricted
  to the shard's slice — and returns records, spans and metrics state;
* :mod:`repro.parallel.merge` folds shard results back into a single
  :class:`~repro.core.results.ResultStore`, span collector and metrics
  registry, deterministically: the merged artifacts are byte-identical
  no matter how many workers ran or which shard finished first;
* :mod:`repro.parallel.runner` orchestrates the whole thing:
  :func:`~repro.parallel.runner.run_campaigns` plans a study's legs (one
  ``(config, vantages, targets)`` triple per campaign) and chains them
  into one plan; the runner warms one world, then runs each shard in a
  child process forked from it, at most ``workers`` at a time (with an
  in-process sequential path for ``workers=1`` and for platforms that
  cannot start a child).

The execution model is *shard-decomposed*: each shard runs on a world no
other shard has touched, so shard results depend only on the shard spec —
never on co-scheduled traffic from other shards or on which process ran
them.  ``run_campaigns(legs, workers=1)`` is the serial reference run;
any ``workers=N`` of the same legs reproduces it byte for byte.
"""

from repro.core.seeding import derive_rng, derive_seed, stable_hash64
from repro.parallel.executor import ShardResult, ShardTask, execute_shard
from repro.parallel.merge import merge_shard_results, merge_shard_warehouses
from repro.parallel.runner import (
    ParallelRun,
    default_worker_count,
    plan_campaign,
    run_campaigns,
    run_parallel,
)
from repro.parallel.shard import SHARD_STRATEGIES, Shard, partition

__all__ = [
    "SHARD_STRATEGIES",
    "ParallelRun",
    "Shard",
    "ShardResult",
    "ShardTask",
    "default_worker_count",
    "derive_rng",
    "derive_seed",
    "execute_shard",
    "merge_shard_results",
    "merge_shard_warehouses",
    "partition",
    "plan_campaign",
    "run_campaigns",
    "run_parallel",
    "stable_hash64",
]
