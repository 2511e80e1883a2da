"""Golden-master equivalence for the session-policy scenario matrix.

Session policies add cross-query state (live connections, ticket caches)
to campaigns, which is exactly the kind of state that could break the
repo's byte-equivalence contracts.  These tests pin that it does not:

* per policy × transport cell, the serial run and the pooled run are
  byte-identical, and a warehouse-streamed run yields exactly the RAM
  store's records;
* a ``cold``-policy run is byte-identical to the legacy (pre-session)
  output for the pre-existing transports, so old campaigns are frozen;
* session state is shard-local: sharding by round re-establishes every
  session per round (fresh world, fresh broker — nothing leaks across
  shard boundaries), while the per-vantage plan carries tickets across
  rounds within a shard.
"""

from __future__ import annotations

import os

import pytest

from repro.core.runner import Campaign, CampaignConfig
from repro.experiments.campaigns import (
    EC2_VANTAGE_NAMES,
    SESSION_TARGET_HOSTNAMES,
    session_study_legs,
    sessions_campaign_config,
)
from repro.experiments.world import build_world
from repro.parallel import run_campaigns
from repro.session import SessionPolicy, policy_from_name

#: Worker count for the pooled side (CI re-runs with REPRO_TEST_WORKERS=4).
POOLED_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

#: A small matrix slice that still exercises every transport family:
#: one TCP transport (doh or dot) plus one QUIC transport (doq or doh3).
FAST_VANTAGES = ("ec2-ohio", "ec2-frankfurt")
FAST_TARGETS = ("dns.adguard.com", "anycast.dns.nextdns.io")

ALL_POLICIES = ("cold", "keep-alive", "resumption", "zero-rtt")
ALL_TRANSPORTS = ("doh", "dot", "doq", "doh3")


def _study(policy, workers=1, transports=ALL_TRANSPORTS, rounds=2,
           shard_by="vantage", shards=None, store_dir=None,
           vantages=FAST_VANTAGES, targets=FAST_TARGETS):
    legs = session_study_legs(
        policies=(policy,),
        rounds=rounds,
        transports=transports,
        vantage_names=vantages,
        target_hostnames=targets,
    )
    return run_campaigns(
        [legs[policy]],
        workers=workers,
        shard_by=shard_by,
        shards=shards,
        store_dir=store_dir,
    )


def _jsonl(run):
    if run.warehouse is not None:
        return "\n".join(r.to_json() for r in run.warehouse.iter_sorted())
    return "\n".join(r.to_json() for r in run.store.records)


# ---------------------------------------------------------------------------
# Serial vs pooled, per policy cell
# ---------------------------------------------------------------------------


#: Matrix slices pairing one TCP transport with one QUIC transport per
#: cell.  One cell (the new transports under keep-alive) stays in the
#: fast lane; the remaining cells and the full policy × transport grid
#: run in the slow lane.
FAST_CELLS = [
    pytest.param("cold", ("doh", "doq"), marks=pytest.mark.slow),
    ("keep-alive", ("dot", "doh3")),
    pytest.param("resumption", ("dot", "doq"), marks=pytest.mark.slow),
    pytest.param("zero-rtt", ("doh", "doh3"), marks=pytest.mark.slow),
]


@pytest.mark.parametrize("policy,transports", FAST_CELLS)
def test_policy_cell_workers_byte_identical(policy, transports):
    serial = _study(policy, workers=1, transports=transports)
    pooled = _study(policy, workers=POOLED_WORKERS, transports=transports)
    assert len(serial.store) > 0
    assert serial.store.to_jsonl() == pooled.store.to_jsonl()


@pytest.mark.slow
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_full_matrix_workers4_byte_identical(policy):
    full = dict(vantages=EC2_VANTAGE_NAMES, targets=SESSION_TARGET_HOSTNAMES)
    serial = _study(policy, workers=1, **full)
    pooled = _study(policy, workers=4, **full)
    assert serial.store.to_jsonl() == pooled.store.to_jsonl()


@pytest.mark.slow
def test_ram_store_vs_warehouse_byte_identical(tmp_path):
    ram = _study("keep-alive", workers=1)
    stored = _study("keep-alive", workers=1, store_dir=str(tmp_path / "wh"))
    assert stored.warehouse is not None and len(ram.store) > 0
    assert _jsonl(stored) == _jsonl(ram)


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["keep-alive", "resumption", "zero-rtt"])
def test_pooled_warehouse_vs_ram_byte_identical(policy, tmp_path):
    ram = _study(policy, workers=1)
    pooled = _study(policy, workers=POOLED_WORKERS,
                    store_dir=str(tmp_path / "wh"))
    assert _jsonl(pooled) == _jsonl(ram)


# ---------------------------------------------------------------------------
# The cold policy IS the legacy behaviour, byte for byte
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "transport",
    [
        "doh",
        pytest.param("dot", marks=pytest.mark.slow),
        pytest.param("doq", marks=pytest.mark.slow),
        pytest.param("do53", marks=pytest.mark.slow),
    ],
)
def test_cold_policy_matches_legacy_output(transport):
    base = sessions_campaign_config(policy_from_name("cold"), rounds=2)

    legacy_config = CampaignConfig(
        name=base.name,
        domains=base.domains,
        schedule=base.schedule,
        transports=(transport,),
        ping=False,
        seed=base.seed,
    )
    cold_config = CampaignConfig(
        name=base.name,
        domains=base.domains,
        schedule=base.schedule,
        transports=(transport,),
        session_policy=policy_from_name("cold"),
        ping=False,
        seed=base.seed,
    )

    outputs = []
    for config in (legacy_config, cold_config):
        world = build_world(seed=0, warm_caches=True)
        store = Campaign(
            network=world.network,
            vantages=[world.vantage(name) for name in FAST_VANTAGES],
            targets=world.targets(list(FAST_TARGETS)),
            config=config,
        ).run()
        store.canonical_sort()
        outputs.append(store.to_jsonl())
    assert outputs[0] == outputs[1]
    # Neither carries session fields: legacy output is frozen.
    assert '"session_state"' not in outputs[0]


# ---------------------------------------------------------------------------
# Shard isolation: session state never leaks across shards
# ---------------------------------------------------------------------------


def _cold_count(run):
    return sum(
        1
        for r in run.store.records
        if r.kind == "dns_query" and r.session_state == "cold"
    )


@pytest.mark.slow
def test_round_shards_reestablish_sessions_per_shard():
    """Sharding by round gives every round a fresh broker: each round's
    first query per (vantage, resolver, transport) cell pays a full
    handshake, proving ticket caches cannot leak across shards."""
    rounds = 2
    cells = len(FAST_VANTAGES) * len(FAST_TARGETS) * len(ALL_TRANSPORTS)

    per_vantage = _study("resumption", rounds=rounds, shard_by="vantage")
    per_round = _study("resumption", rounds=rounds, shard_by="round",
                       shards=rounds)

    # Per-vantage shards span all rounds, so only round 0 is cold ...
    assert _cold_count(per_vantage) == cells
    # ... while per-round shards re-establish once per round.
    assert _cold_count(per_round) == cells * rounds

    # Shard isolation is a plan property, not a worker-count property:
    # the pooled run reproduces the same per-plan bytes.
    pooled = _study("resumption", rounds=rounds, workers=POOLED_WORKERS,
                    shard_by="round", shards=rounds)
    assert pooled.store.to_jsonl() == per_round.store.to_jsonl()


def test_parallel_with_policy_equals_serial_campaign():
    """A one-shard parallel run with a session policy reproduces the
    classic serial :class:`Campaign` on a fresh world exactly."""
    config = sessions_campaign_config(
        SessionPolicy(mode="keep_alive"), rounds=2, transports=("doh", "doq")
    )
    world = build_world(seed=0, warm_caches=True)
    classic = Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in FAST_VANTAGES],
        targets=world.targets(list(FAST_TARGETS)),
        config=config,
    ).run()
    classic.canonical_sort()

    sharded = run_campaigns(
        [(config, FAST_VANTAGES, FAST_TARGETS)], world_seed=0, workers=1, shards=1
    )
    assert sharded.store.to_jsonl() == classic.to_jsonl()
