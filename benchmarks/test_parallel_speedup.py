"""PARALLEL — wall-clock speedup of the sharded executor.

Runs the full 91-resolver EC2 campaign twice over the same shard plan —
``workers=1`` (the serial reference) and ``workers=min(cores, 4)`` —
verifies the merged artifacts are byte-identical, and records both
wall-clocks plus the speedup in ``BENCH_parallel.json`` at the repo root
(CI uploads it).

The speedup floor is 0.6 x workers (1.2x on two cores, 2.4x on four) and
is enforced at the core count available, whenever the machine can run
two workers side by side and the child processes were used (a sandbox
that forces the sequential fallback measures nothing).  The serial side
pays one cache warm-up per shard and the pooled side one per run, which
is part of what the pooled path is for.

Timing uses ``time.perf_counter`` directly so this file runs under a
plain pytest install.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.conftest import print_artifact
from repro.catalog.resolvers import CATALOG
from repro.experiments.campaigns import (
    EC2_VANTAGE_NAMES,
    ec2_campaign_config,
    run_campaign_parallel,
)
from repro.parallel import default_worker_count

BENCH_ROUNDS = 6
MAX_WORKERS = 4
BENCH_SHARDS = 8
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: Speedup floor per worker, enforced from two cores up.
MIN_SPEEDUP_PER_WORKER = 0.6


def _run(workers: int):
    return run_campaign_parallel(
        ec2_campaign_config(rounds=BENCH_ROUNDS),
        EC2_VANTAGE_NAMES,
        [entry.hostname for entry in CATALOG],
        world_seed=0,
        workers=workers,
        shard_by="resolver",
        shards=BENCH_SHARDS,
    )


def test_parallel_speedup_full_ec2_campaign():
    cores = default_worker_count()
    workers = min(cores, MAX_WORKERS)
    serial = _run(1)
    sharded = _run(workers)

    # The benchmark is only meaningful because the outputs agree.
    assert serial.store.to_jsonl() == sharded.store.to_jsonl()

    speedup = serial.wall_seconds / max(sharded.wall_seconds, 1e-9)
    enforced = cores >= 2 and sharded.pool_used
    min_speedup = MIN_SPEEDUP_PER_WORKER * workers
    report = {
        "campaign": "ec2-global",
        "resolvers": len(CATALOG),
        "rounds": BENCH_ROUNDS,
        "shards": len(serial.shard_results),
        "workers": workers,
        "cores_available": cores,
        "pool_used": sharded.pool_used,
        "fallback_reason": sharded.fallback_reason,
        "serial_wall_seconds": round(serial.wall_seconds, 3),
        "parallel_wall_seconds": round(sharded.wall_seconds, 3),
        "speedup": round(speedup, 3),
        "warm_seconds": round(sharded.warm_seconds, 3),
        "min_speedup_enforced": min_speedup if enforced else None,
        "records": len(serial.store),
    }
    BENCH_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print_artifact(
        "Parallel speedup (full EC2 campaign)",
        "\n".join(
            [
                f"shards:   {report['shards']} (by resolver cohort)",
                f"serial:   {report['serial_wall_seconds']:.2f}s (workers=1)",
                f"pooled:   {report['parallel_wall_seconds']:.2f}s "
                f"(workers={workers}, pool_used={sharded.pool_used}, "
                f"{sharded.warm_seconds:.2f}s warming one world)",
                f"speedup:  {speedup:.2f}x on {cores} cores"
                + ("" if enforced else "  [not enforced on this machine]"),
                f"report:   {BENCH_PATH.name}",
            ]
        ),
    )

    if enforced:
        assert speedup >= min_speedup, (
            f"sharded run only {speedup:.2f}x faster (floor {min_speedup:.1f}x) "
            f"(serial {serial.wall_seconds:.2f}s vs "
            f"pooled {sharded.wall_seconds:.2f}s on {cores} cores)"
        )
