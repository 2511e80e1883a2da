"""The session-policy scenario matrix against the legacy output and
across shards.

Session policies add cross-query state (live connections, ticket caches)
to campaigns.  These tests pin what that state must not change:

* a ``cold``-policy run is byte-identical to the legacy (pre-session)
  output for the pre-existing transports, so old campaigns are frozen;
* session state is shard-local: sharding by round re-establishes every
  session per round (fresh world, fresh broker — nothing leaks across
  shard boundaries), while the per-vantage plan carries tickets across
  rounds within a shard.

That every policy's run is the same bytes pooled, serial and through a
warehouse is the sessions row of ``test_plan_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.runner import Campaign, CampaignConfig
from repro.experiments.campaigns import session_study_legs, sessions_campaign_config
from repro.experiments.world import build_world
from repro.parallel import run_campaigns
from repro.session import policy_from_name

#: A small matrix slice that still exercises every transport family.
FAST_VANTAGES = ("ec2-ohio", "ec2-frankfurt")
FAST_TARGETS = ("dns.adguard.com", "anycast.dns.nextdns.io")

ALL_TRANSPORTS = ("doh", "dot", "doq", "doh3")


def _study(policy, rounds, shard_by, shards=None):
    legs = session_study_legs(policies=(policy,), rounds=rounds, transports=ALL_TRANSPORTS,
                              vantage_names=FAST_VANTAGES, target_hostnames=FAST_TARGETS)
    return run_campaigns([legs[policy]], shard_by=shard_by, shards=shards)


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
    cold_config = replace(legacy_config, session_policy=policy_from_name("cold"))

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


def _cold_count(run):
    return sum(r.kind == "dns_query" and r.session_state == "cold" for r in run.store)


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
