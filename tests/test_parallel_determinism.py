"""Regression tests for the determinism the parallel subsystem rests on.

The sharded executor only reproduces the serial run because three things
hold:

* the per-measurement RNG stream — and with it the probe stagger offset —
  is derived from ``(seed, campaign, round, vantage, resolver)`` alone,
  never from global draw order or Python's salted ``hash()``;
* a sliced schedule preserves global round indices and absolute start
  times;
* a fault plan restricted to a shard's targets arms exactly the windows
  the full plan holds for those targets.

Each was a real coupling before this subsystem landed (probe offsets used
to come from one campaign-wide RNG consumed in sweep order, and ``hash``
salting made offsets differ between worker processes); these tests pin
the fixes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.probes import DohProbeConfig
from repro.core.runner import Campaign, CampaignConfig
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.core.seeding import derive_rng, derive_seed, stable_hash64
from repro.faults import FaultPlan
from repro.parallel import execute_shard, plan_campaign

from tests.conftest import MINI_CATALOG_HOSTNAMES, make_mini_world

SRC = str(Path(__file__).resolve().parent.parent / "src")


# ---------------------------------------------------------------------------
# Probe offsets: per-(round, vantage, target) streams, no draw-order coupling
# ---------------------------------------------------------------------------


def _config(rounds: int = 2, seed: int = 42) -> CampaignConfig:
    return CampaignConfig(
        name="det-check",
        schedule=PeriodicSchedule(
            rounds=rounds, interval_ms=1 * MS_PER_HOUR, stagger_ms=10 * 60 * 1000.0
        ),
        probe_config=DohProbeConfig(),
        seed=seed,
    )


def _ping_starts(store):
    """(vantage, resolver, round) -> measurement start time (the stagger)."""
    return {
        (r.vantage, r.resolver, r.round_index): r.started_at_ms
        for r in store
        if r.kind == "ping"
    }


def test_probe_offsets_independent_of_cohort():
    """A target's stagger is the same alone as inside the full sweep.

    Before per-measurement seed derivation, offsets came from one
    campaign RNG consumed in (vantage, target) sweep order — removing
    targets from the campaign shifted every later draw.
    """
    config = _config()
    full_world = make_mini_world(seed=4)
    full = Campaign(
        network=full_world.network,
        vantages=[full_world.vantage("ec2-ohio"), full_world.vantage("ec2-seoul")],
        targets=full_world.targets(list(MINI_CATALOG_HOSTNAMES)),
        config=config,
    ).run()

    solo_world = make_mini_world(seed=4)
    solo = Campaign(
        network=solo_world.network,
        vantages=[solo_world.vantage("ec2-seoul")],
        targets=solo_world.targets(["dns.brahma.world"]),
        config=config,
    ).run()

    full_starts = _ping_starts(full)
    for key, started in _ping_starts(solo).items():
        assert full_starts[key] == started


def test_probe_offsets_vary_across_rounds_and_targets():
    schedule = _config().schedule
    offsets = {
        (round_index, hostname): schedule.probe_offset(
            derive_rng(42, "measurement", "det-check", round_index, "v", hostname)
        )
        for round_index in range(4)
        for hostname in MINI_CATALOG_HOSTNAMES
    }
    # Derived streams are independent: collisions would mean the round or
    # the target failed to reach the derivation.
    assert len(set(offsets.values())) > len(offsets) // 2
    assert all(0.0 <= value < schedule.stagger_ms for value in offsets.values())


def test_stable_hash_is_cross_process_stable():
    """The derived seeds must not move with PYTHONHASHSEED.

    Worker processes inherit fresh interpreter hash salts; if seeding
    went through ``hash()``, every worker would stagger differently.
    """
    probe = (
        "from repro.core.seeding import derive_seed, stable_hash64\n"
        "from repro.core.scheduler import PeriodicSchedule\n"
        "from repro.core.seeding import derive_rng\n"
        "s = PeriodicSchedule(rounds=1, interval_ms=3.6e6, stagger_ms=6e5)\n"
        "print(stable_hash64('dns.google', 3, 'ec2-ohio'))\n"
        "print(derive_seed(7, 'shard', 'vantage=ec2-seoul'))\n"
        "print(s.probe_offset(derive_rng(7, 'measurement', 'm', 0, 'v', 't')))\n"
    )
    outputs = set()
    for hash_seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1
    assert stable_hash64("dns.google", 3, "ec2-ohio") == int(
        outputs.pop().splitlines()[0]
    )


# ---------------------------------------------------------------------------
# Schedule slicing: absolute times; the shard carries the global indices
# ---------------------------------------------------------------------------


def test_slice_rounds_preserves_times():
    schedule = PeriodicSchedule(
        rounds=10, interval_ms=2 * MS_PER_HOUR, start_ms=500.0, stagger_ms=60_000.0
    )
    starts = schedule.round_starts()
    for start, stop in ((0, 10), (0, 3), (3, 7), (9, 10)):
        assert schedule.slice_rounds(start, stop).round_starts() == starts[start:stop]
    # Chaining slices composes.
    assert schedule.slice_rounds(2, 8).slice_rounds(1, 3).round_starts() == starts[3:5]


def test_sharded_round_slice_records_global_indices():
    config = _config(rounds=4)
    tasks = plan_campaign(
        config,
        ("ec2-ohio",),
        MINI_CATALOG_HOSTNAMES[:3],
        world_seed=4,
        shard_by="round",
        shards=2,
    )
    seen = set()
    for task in tasks:
        result = execute_shard(task)
        seen |= {record.round_index for record in result.records}
        assert {record.round_index for record in result.records} == set(
            range(task.round_start, task.round_stop)
        )
    assert seen == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Fault plans: restriction == per-host regeneration
# ---------------------------------------------------------------------------


def test_fault_plan_restriction_matches_full_plan():
    hostnames = list(MINI_CATALOG_HOSTNAMES)
    full = FaultPlan.generate(hostnames, horizon_ms=48 * MS_PER_HOUR, seed=99)
    subset = hostnames[2:5]
    restricted = full.restricted_to(subset)
    assert set(restricted.hostnames) <= set(subset)
    for hostname in subset:
        assert restricted.events_for(hostname) == full.events_for(hostname)
    # Round-tripping through JSON (how plans ship to workers) is lossless.
    assert FaultPlan.from_json(restricted.to_json()) == restricted


def test_fault_plan_per_host_windows_independent_of_cohort():
    """Each host's windows depend only on (seed, hostname) — generating a
    plan over any cohort containing the host yields the same windows."""
    hostnames = list(MINI_CATALOG_HOSTNAMES)
    full = FaultPlan.generate(hostnames, horizon_ms=48 * MS_PER_HOUR, seed=99)
    solo = FaultPlan.generate([hostnames[4]], horizon_ms=48 * MS_PER_HOUR, seed=99)
    assert solo.events_for(hostnames[4]) == full.events_for(hostnames[4])
