"""Property-based tests for the campaign sharder and the merge.

Three invariants carry the whole parallel subsystem:

* **coverage** — every strategy partitions the (vantage, resolver, round)
  space exactly: each triple appears in exactly one shard;
* **seed stability** — shard seeds are a pure function of the campaign
  seed and the shard key, pairwise distinct across a plan, and unmoved
  by re-planning;
* **merge order-independence** — folding shard results in any completion
  order yields byte-identical merged artifacts.

Hypothesis drives the shapes (axis sizes, shard counts, strategies,
permutations); the merge property runs real shard executions once per
module and shuffles the results.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.core.runner import CampaignConfig
from repro.core.probes import DohProbeConfig
from repro.errors import CampaignConfigError
from repro.parallel import (
    SHARD_STRATEGIES,
    execute_shard,
    merge_shard_results,
    partition,
    plan_campaign,
)

from tests.conftest import MINI_CATALOG_HOSTNAMES

_settings = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Plausible axis shapes: names stand in for vantages/resolvers.
_vantages = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6),
    min_size=1, max_size=7, unique=True,
)
_targets = st.lists(
    st.text(alphabet="nopqrstu", min_size=1, max_size=8),
    min_size=1, max_size=25, unique=True,
)
_rounds = st.integers(min_value=1, max_value=40)
_strategy = st.sampled_from(SHARD_STRATEGIES)
_shards = st.one_of(st.none(), st.integers(min_value=1, max_value=12))
_seed = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Coverage: exact partition of the triple space
# ---------------------------------------------------------------------------


@_settings
@given(_vantages, _targets, _rounds, _strategy, _shards, _seed)
def test_every_triple_covered_exactly_once(vantages, targets, rounds,
                                           strategy, shards, seed):
    plan = partition(vantages, targets, rounds, shard_by=strategy,
                     shards=shards, seed=seed)
    counted = Counter(
        triple for shard in plan for triple in shard.triples()
    )
    expected = {
        (v, t, r) for v in vantages for t in targets for r in range(rounds)
    }
    assert set(counted) == expected
    assert all(count == 1 for count in counted.values())
    # Indices are the merge order: dense, zero-based, unique.
    assert [shard.index for shard in plan] == list(range(len(plan)))


# ---------------------------------------------------------------------------
# Seeds: stable, distinct, key-derived
# ---------------------------------------------------------------------------


@_settings
@given(_vantages, _targets, _rounds, _strategy, _shards, _seed)
def test_shard_seeds_distinct_and_stable(vantages, targets, rounds,
                                         strategy, shards, seed):
    plan = partition(vantages, targets, rounds, shard_by=strategy,
                     shards=shards, seed=seed)
    replan = partition(vantages, targets, rounds, shard_by=strategy,
                       shards=shards, seed=seed)
    assert [s.network_seed for s in plan] == [s.network_seed for s in replan]

    if len(plan) == 1:
        # Identity plan: the world's own network stream is kept.
        assert plan[0].network_seed is None
    else:
        net_seeds = [s.network_seed for s in plan]
        assert None not in net_seeds
        assert len(set(net_seeds)) == len(net_seeds)


@_settings
@given(_vantages, _targets, _rounds, _strategy, _shards,
       _seed, _seed)
def test_campaign_seed_moves_every_shard_seed(vantages, targets, rounds,
                                              strategy, shards, seed_a, seed_b):
    if seed_a == seed_b:
        return
    plan_a = partition(vantages, targets, rounds, shard_by=strategy,
                       shards=shards, seed=seed_a)
    plan_b = partition(vantages, targets, rounds, shard_by=strategy,
                       shards=shards, seed=seed_b)
    if len(plan_a) == 1:
        # The identity plan has no seed to move.
        assert plan_a[0].network_seed is plan_b[0].network_seed is None
    else:
        assert all(a.network_seed != b.network_seed for a, b in zip(plan_a, plan_b))


def test_partition_rejects_bad_inputs():
    with pytest.raises(CampaignConfigError):
        partition([], ["t"], 1)
    with pytest.raises(CampaignConfigError):
        partition(["v"], [], 1)
    with pytest.raises(CampaignConfigError):
        partition(["v"], ["t"], 0)
    with pytest.raises(CampaignConfigError):
        partition(["v"], ["t"], 1, shard_by="host")
    with pytest.raises(CampaignConfigError):
        partition(["v"], ["t"], 1, shards=0)


# ---------------------------------------------------------------------------
# Merge: order-independent fold over real shard results
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def executed_shards():
    """Run a small sharded campaign once; properties shuffle the results."""
    config = CampaignConfig(
        name="merge-prop",
        schedule=PeriodicSchedule(rounds=2, interval_ms=1 * MS_PER_HOUR),
        probe_config=DohProbeConfig(),
        seed=77,
    )
    tasks = plan_campaign(
        config,
        ("ec2-ohio", "ec2-frankfurt"),
        MINI_CATALOG_HOSTNAMES[:6],
        world_seed=77,
        shard_by="resolver",
        shards=4,
        collect_spans=True,
        collect_metrics=True,
    )
    return [execute_shard(task) for task in tasks]


def _merged_bytes(results):
    store, spans, metrics = merge_shard_results(results)
    return (
        store.to_jsonl(),
        spans.to_jsonl(),
        json.dumps(metrics.snapshot(), sort_keys=True),
    )


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(shuffled=st.permutations(list(range(4))))
def test_merge_is_order_independent(executed_shards, shuffled):
    assert len(executed_shards) == 4
    reference = _merged_bytes(executed_shards)
    assert _merged_bytes([executed_shards[i] for i in shuffled]) == reference


def test_merge_rejects_duplicate_shard_indices(executed_shards):
    with pytest.raises(CampaignConfigError):
        merge_shard_results([executed_shards[0], executed_shards[0]])
