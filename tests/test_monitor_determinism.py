"""Alert-pipeline determinism across worker counts and execution modes.

The monitor's exported artifacts — the alert JSONL, the verdicts, the
rendered scoreboard — must be byte-identical for the same shard plan no
matter how many workers executed it, whether records were merged in RAM
or streamed through a warehouse, and whether the monitor ran live during
a serial run of the same plan or replayed the merged stream afterwards.
"""

from __future__ import annotations

import json
import os

import pytest

# Every test here replays at least one full campaign (the module
# fixture runs the serial reference); the whole file rides the slow lane.
pytestmark = pytest.mark.slow

from repro.experiments.campaigns import (
    EC2_VANTAGE_NAMES,
    ec2_campaign_config,
    run_campaign_parallel,
)
from repro.monitor import Monitor, default_policy

#: Worker count used for the pooled runs (override: REPRO_TEST_WORKERS=4).
POOLED_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

HOSTNAMES = (
    "dns.google",
    "dns.quad9.net",
    "dns.brahma.world",
    "doh.ffmuc.net",
    "dns.pumplex.com",
)

ROUNDS = 6  # enough for every group to clear min_samples=12


def _run(seed: int, workers: int, store_dir=None, shard_by: str = "vantage"):
    return run_campaign_parallel(
        ec2_campaign_config(rounds=ROUNDS, seed=seed),
        EC2_VANTAGE_NAMES,
        HOSTNAMES,
        world_seed=seed,
        workers=workers,
        shard_by=shard_by,
        collect_metrics=True,
        store_dir=None if store_dir is None else str(store_dir),
        slo_policy=default_policy(),
    )


def _artifacts(run):
    return (
        run.monitor.alerts.to_jsonl(),
        json.dumps([v.to_dict() for v in run.monitor.verdicts()]),
        run.monitor.scoreboard().render(),
    )


@pytest.fixture(scope="module")
def serial_run():
    return _run(seed=23, workers=1)


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("workers", [POOLED_WORKERS, POOLED_WORKERS + 1])
    def test_pooled_alerts_match_serial(self, serial_run, workers):
        pooled = _run(seed=23, workers=workers)
        assert _artifacts(pooled) == _artifacts(serial_run)

    def test_alert_log_is_non_trivial(self, serial_run):
        # The dead resolver guarantees the equality above is not vacuous.
        assert len(serial_run.monitor.alerts) > 0
        resolvers = {e.group["resolver"] for e in serial_run.monitor.alerts}
        assert "dns.pumplex.com" in resolvers

    def test_scoreboard_states_cover_the_fleet(self, serial_run):
        scoreboard = serial_run.monitor.scoreboard()
        assert scoreboard.worst_state() == "FAILING"
        assert scoreboard.counts()["OK"] > 0

    def test_other_shard_axis_is_deterministic_too(self):
        # A resolver-sharded plan is a *different* plan (each shard runs on
        # a fresh world), so its records — and alerts — differ from the
        # vantage-sharded run; but it is equally reproducible across
        # worker counts.
        serial = _run(seed=23, workers=1, shard_by="resolver")
        pooled = _run(seed=23, workers=POOLED_WORKERS, shard_by="resolver")
        assert _artifacts(pooled) == _artifacts(serial)


class TestWarehouseMode:
    def test_warehouse_replay_matches_in_memory(self, serial_run, tmp_path):
        pooled = _run(seed=23, workers=POOLED_WORKERS, store_dir=tmp_path / "wh")
        assert pooled.warehouse is not None
        assert _artifacts(pooled) == _artifacts(serial_run)


class TestLiveVsReplay:
    def test_serial_live_monitor_matches_plan_replay(self, serial_run):
        """A live monitor fed record-by-record during a serial execution of
        the same plan produces the same alert bytes as the post-merge
        replay."""
        live = Monitor(default_policy())
        bare = _run(seed=23, workers=1)
        live.replay(bare.store.records)
        live.finalize()
        assert live.alerts.to_jsonl() == serial_run.monitor.alerts.to_jsonl()
        assert [v.to_dict() for v in live.verdicts()] == [
            v.to_dict() for v in serial_run.monitor.verdicts()
        ]

    def test_different_seed_changes_alerts(self):
        a = _run(seed=23, workers=1)
        b = _run(seed=24, workers=1)
        assert a.monitor.alerts.to_jsonl() != b.monitor.alerts.to_jsonl()


class TestMonitorGauges:
    def test_detector_gauges_land_in_merged_metrics(self, serial_run):
        metrics = serial_run.metrics
        groups = metrics.gauge_value("monitor.groups")
        assert groups is not None and groups > 0
        assert metrics.gauge_value("monitor.records_seen") == float(
            serial_run.monitor.records_seen
        )
        assert metrics.gauge_value("monitor.alerts") == float(
            len(serial_run.monitor.alerts)
        )

    def test_gauges_identical_across_workers(self, serial_run):
        pooled = _run(seed=23, workers=POOLED_WORKERS)
        serial_gauges = {
            k: v
            for k, v in serial_run.metrics.to_state()["gauges"].items()
            if k.startswith("monitor.")
        }
        pooled_gauges = {
            k: v
            for k, v in pooled.metrics.to_state()["gauges"].items()
            if k.startswith("monitor.")
        }
        assert serial_gauges == pooled_gauges
        assert serial_gauges
