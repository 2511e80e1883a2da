"""Observer-fleet determinism across workers, record sources, and faults.

The acceptance bar for the fleet: ``repro-dns observe`` must emit
byte-identical significance-event and world-health JSONL for serial vs
any ``--workers N`` execution of the same plan, and for live-store vs
warehouse vs JSONL-file record sources — the golden-master equivalence
this suite pins down.  A fault-injected study guarantees the equality is
not vacuous (real events fire and still match).
"""

from __future__ import annotations

import os

import pytest

# Every test replays at least one multi-month observatory campaign.
pytestmark = pytest.mark.slow

from repro.experiments.observatory import observe_run, observer_study_legs
from repro.observers import scaled_registry
from repro.parallel import run_campaigns

#: Worker count used for the pooled runs (override: REPRO_TEST_WORKERS=4).
POOLED_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

HOSTNAMES = (
    "dns.google",
    "dns.quad9.net",
    "security.cloudflare-dns.com",
    "ordns.he.net",
    "dns.brahma.world",
    "dns.twnic.tw",
    "doh.ffmuc.net",
    "dns.pumplex.com",  # dead: keeps availability groups honest
    "dns.adguard.com",  # DoQ-capable: keeps the adoption ramp non-empty
)

MONTHS = 4
ROUNDS = 4
#: Demo-scale gates (a few rounds per measured day, eight resolvers).
SPECS = scaled_registry(0.25).specs()


def _run(workers: int, store_dir=None, fault_seed=None):
    legs, plan = observer_study_legs(
        months=MONTHS,
        rounds_per_month=ROUNDS,
        seed=707,
        target_hostnames=HOSTNAMES,
        fault_seed=fault_seed,
        fault_fraction=0.25,
    )
    return run_campaigns(
        legs,
        world_seed=11,
        fault_plan=plan,
        workers=workers,
        store_dir=None if store_dir is None else str(store_dir),
    )


def _artifacts(run):
    report = observe_run(run, SPECS)
    return report.events.to_jsonl(), report.index.to_jsonl()


@pytest.fixture(scope="module")
def serial_artifacts():
    return _artifacts(_run(workers=1))


class TestWorkerCountInvariance:
    def test_pooled_matches_serial(self, serial_artifacts):
        assert _artifacts(_run(workers=POOLED_WORKERS)) == serial_artifacts

    def test_stream_is_non_trivial(self, serial_artifacts):
        events_jsonl, index_jsonl = serial_artifacts
        assert events_jsonl.count("\n") > 0
        assert index_jsonl.count("\n") > 0

    def test_fault_study_fires_and_still_matches(self):
        serial = _artifacts(_run(workers=1, fault_seed=42))
        pooled = _artifacts(_run(workers=POOLED_WORKERS, fault_seed=42))
        assert pooled == serial
        # The injected dips must actually produce significance events,
        # otherwise the equality above proves nothing about the debounce
        # and severity paths.
        assert '"status":"significant"' in serial[0]


class TestRecordSourceInvariance:
    def test_warehouse_scan_matches_live_store(self, serial_artifacts, tmp_path):
        run = _run(workers=POOLED_WORKERS, store_dir=tmp_path / "wh")
        assert run.warehouse is not None
        assert _artifacts(run) == serial_artifacts

    def test_jsonl_file_replay_matches(self, serial_artifacts, tmp_path):
        from repro.core.results import ResultStore
        from repro.observers import ObserverFleet

        run = _run(workers=1)
        path = tmp_path / "records.jsonl"
        run.store.save_jsonl(path)
        fleet = ObserverFleet(SPECS)
        fleet.replay(ResultStore.iter_jsonl(path))
        report = fleet.finalize()
        assert (report.events.to_jsonl(), report.index.to_jsonl()) == serial_artifacts


class TestObserverGauges:
    def test_observer_gauges_land_next_to_monitor_series(self):
        legs, _plan = observer_study_legs(
            months=MONTHS, rounds_per_month=ROUNDS, seed=707, target_hostnames=HOSTNAMES
        )
        run = run_campaigns(legs, world_seed=11, workers=1, collect_metrics=True)
        observe_run(run, SPECS)  # defaults to the run's registry
        gauges = run.metrics.gauges_matching("observer.")
        assert gauges
        assert run.metrics.gauge_value("observer.records_seen") == float(
            run.record_count
        )
        score = run.metrics.gauge_value("observer.health_score")
        assert score is not None and 0.0 <= score <= 100.0

    def test_different_seed_changes_the_stream(self, serial_artifacts):
        legs, _plan = observer_study_legs(
            months=MONTHS, rounds_per_month=ROUNDS, seed=708, target_hostnames=HOSTNAMES
        )
        other = run_campaigns(legs, world_seed=12, workers=1)
        assert _artifacts(other) != serial_artifacts
