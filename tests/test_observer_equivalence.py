"""The observer fleet's gauges in a run's registry.

That the fleet's events and world-health index are the same bytes for any
worker count, shard plan and record source (live store, warehouse, JSONL
file) is the observatory row of ``test_plan_equivalence.py``.
"""

from __future__ import annotations

import pytest

# The test replays a multi-month observatory campaign.
pytestmark = pytest.mark.slow

from repro.experiments.observatory import observe_run, observer_study_legs
from repro.observers import scaled_registry
from repro.parallel import run_campaigns

HOSTNAMES = ("dns.google", "dns.quad9.net", "dns.adguard.com", "dns.pumplex.com")


class TestObserverGauges:
    def test_observer_gauges_land_next_to_monitor_series(self):
        legs, _plan = observer_study_legs(
            months=2, rounds_per_month=4, seed=707, target_hostnames=HOSTNAMES
        )
        run = run_campaigns(legs, world_seed=11, shards=1, collect_metrics=True)
        observe_run(run, scaled_registry(0.25).specs())  # defaults to the run's registry
        gauges = run.metrics.gauges_matching("observer.")
        assert gauges
        assert run.metrics.gauge_value("observer.records_seen") == float(
            run.record_count
        )
        score = run.metrics.gauge_value("observer.health_score")
        assert score is not None and 0.0 <= score <= 100.0
