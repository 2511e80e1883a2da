"""The monitor's gauges in a run's merged registry.

That the monitor's alert JSONL, verdicts and scoreboard are the same bytes
for any worker count, shard plan and record source, and whether it
finalizes into a registry or not, is the campaign-file row of
``test_plan_equivalence.py``.
"""

from __future__ import annotations

import pytest

# The test replays a full campaign; the file rides the slow lane.
pytestmark = pytest.mark.slow

from repro.experiments.campaigns import EC2_VANTAGE_NAMES, ec2_campaign_config
from repro.monitor import Monitor, default_policy
from repro.parallel import run_campaigns

HOSTNAMES = ("dns.google", "dns.quad9.net", "dns.brahma.world", "doh.ffmuc.net",
             "dns.pumplex.com")

ROUNDS = 6  # enough for every group to clear min_samples=12


class TestMonitorGauges:
    def test_detector_gauges_land_in_merged_metrics(self):
        """A monitor that replayed a run's merged stream (as ``measure``
        does) and finalized into its registry leaves its gauges there."""
        run = run_campaigns(
            [(ec2_campaign_config(rounds=ROUNDS, seed=23), EC2_VANTAGE_NAMES, HOSTNAMES)],
            world_seed=23,
            collect_metrics=True,
        )
        monitor = Monitor(default_policy())
        monitor.replay(run.records())
        monitor.finalize(run.metrics)
        groups = run.metrics.gauge_value("monitor.groups")
        assert groups is not None and groups > 0
        assert run.metrics.gauge_value("monitor.records_seen") == float(
            monitor.records_seen
        )
        assert run.metrics.gauge_value("monitor.alerts") == float(len(monitor.alerts))
