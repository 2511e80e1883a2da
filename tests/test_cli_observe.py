"""CLI coverage for ``repro-dns observe``: saved-input replay, artifact
writing, stdout purity, the health gate, observer selection, and the
``metrics export`` integration for ``observer.*`` gauges."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.results import ResultStore
from repro.observers import ObserverFleet, ObserverRegistry

from tests.test_observers import AVAIL_SPEC, day_batch

SPEC_FILE_CONTENT = {
    "observers": [
        {
            "name": "avail",
            "kind": "availability",
            "scope": "resolver",
            "min_samples": 5,
            "baseline": {
                "alpha": 0.2,
                "min_days": 3,
                "min_delta": 0.05,
                "std_floor": 0.02,
            },
        }
    ]
}


def _dip_records(dip_day=6, days=10):
    records = []
    for day in range(days):
        records.extend(day_batch(day, failures=8 if day == dip_day else 0))
    return records


def _quiet_records(days=6):
    records = []
    for day in range(days):
        records.extend(day_batch(day))
    return records


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Synthetic streams (dip + quiet) as JSONL file, warehouse, spec file."""
    from repro.store import Warehouse

    root = tmp_path_factory.mktemp("observe-cli")
    dip_store = ResultStore()
    dip_store.extend(_dip_records())
    dip_store.canonical_sort()
    dip_jsonl = root / "dip.jsonl"
    dip_store.save_jsonl(dip_jsonl)
    warehouse_dir = root / "wh"
    Warehouse.from_records(dip_store.records, warehouse_dir)

    quiet_jsonl = root / "quiet.jsonl"
    quiet_store = ResultStore()
    quiet_store.extend(_quiet_records())
    quiet_store.save_jsonl(quiet_jsonl)

    spec_path = root / "fleet.json"
    spec_path.write_text(json.dumps(SPEC_FILE_CONTENT), encoding="utf-8")
    return dip_store, dip_jsonl, warehouse_dir, quiet_jsonl, spec_path


def _expected(store):
    fleet = ObserverFleet([AVAIL_SPEC])
    fleet.replay(store.records)
    report = fleet.finalize()
    return report.events.to_jsonl(), report.index.to_jsonl()


class TestParserRegistration:
    @pytest.mark.parametrize(
        "argv",
        [
            ["observe", "--input", "results.jsonl"],
            ["observe", "--months", "6", "--rounds", "4", "--workers", "2"],
            ["observe", "--events", "-", "--index", "i.jsonl", "--gate"],
            ["observe", "--spec", "fleet.toml", "--observers", "avail"],
            ["observe", "--faults", "--fault-fraction", "0.2", "--store", "wh"],
        ],
    )
    def test_observe_surface_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)


class TestObserveInput:
    def test_replay_writes_events_and_index(self, inputs, tmp_path, capsys):
        store, jsonl, _, _, spec = inputs
        events, index = tmp_path / "events.jsonl", tmp_path / "index.jsonl"
        rc = main(
            ["observe", "--input", str(jsonl), "--spec", str(spec),
             "--events", str(events), "--index", str(index)]
        )
        assert rc == 0
        expected_events, expected_index = _expected(store)
        assert events.read_text(encoding="utf-8") == expected_events
        assert index.read_text(encoding="utf-8") == expected_index
        out, err = capsys.readouterr()
        assert "# Observer fleet" in out and "# World health" in out
        assert "observed" in err

    def test_warehouse_input_equals_jsonl_input(self, inputs, tmp_path, capsys):
        _, jsonl, warehouse_dir, _, spec = inputs
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["observe", "--input", str(jsonl), "--spec", str(spec),
                     "--events", str(a)]) == 0
        assert main(["observe", "--input", str(warehouse_dir), "--spec", str(spec),
                     "--events", str(b)]) == 0
        capsys.readouterr()
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")

    def test_events_dash_keeps_stdout_pure_jsonl(self, inputs, capsys):
        store, jsonl, _, _, spec = inputs
        rc = main(["observe", "--input", str(jsonl), "--spec", str(spec),
                   "--events", "-"])
        assert rc == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines, "expected event lines on stdout"
        parsed = [json.loads(line) for line in lines]
        assert all(event["v"] == 2 and event["source"] == "observer" for event in parsed)
        assert out == _expected(store)[0]
        # the summary tables moved to stderr
        assert "# Observer fleet" in err and "# Observer fleet" not in out

    def test_both_dashes_rejected(self, inputs, capsys):
        _, jsonl, _, _, spec = inputs
        rc = main(["observe", "--input", str(jsonl), "--spec", str(spec),
                   "--events", "-", "--index", "-"])
        assert rc == 2
        capsys.readouterr()

    def test_unknown_observer_rejected(self, inputs, capsys):
        _, jsonl, _, _, spec = inputs
        rc = main(["observe", "--input", str(jsonl), "--spec", str(spec),
                   "--observers", "nope"])
        assert rc == 2
        _, err = capsys.readouterr()
        assert "unknown observer" in err

    def test_observers_subset_restricts_fleet(self, inputs, tmp_path, capsys):
        _, jsonl, _, _, _ = inputs
        events = tmp_path / "events.jsonl"
        rc = main(["observe", "--input", str(jsonl),
                   "--observers", "region-availability",
                   "--min-samples-scale", "0.5",
                   "--events", str(events)])
        assert rc == 0
        capsys.readouterr()
        names = {
            json.loads(line)["name"]
            for line in events.read_text(encoding="utf-8").splitlines()
        }
        assert names <= {"region-availability"}


class TestGate:
    def test_gate_fails_on_the_dip(self, inputs, capsys):
        _, jsonl, _, _, spec = inputs
        assert main(["observe", "--input", str(jsonl), "--spec", str(spec)]) == 0
        rc = main(["observe", "--input", str(jsonl), "--spec", str(spec),
                   "--gate"])
        assert rc == 1
        _, err = capsys.readouterr()
        assert "gate: world-health index dipped" in err

    def test_gate_passes_on_quiet_stream(self, inputs, capsys):
        _, _, _, quiet_jsonl, spec = inputs
        rc = main(["observe", "--input", str(quiet_jsonl), "--spec", str(spec),
                   "--gate"])
        assert rc == 0
        capsys.readouterr()


class TestMetricsIntegration:
    def test_observer_gauges_reach_metrics_export(self, inputs, tmp_path, capsys):
        _, jsonl, _, _, spec = inputs
        metrics_path = tmp_path / "metrics.json"
        rc = main(["observe", "--input", str(jsonl), "--spec", str(spec),
                   "--metrics", str(metrics_path)])
        assert rc == 0
        assert main(["metrics", "export", "--input", str(metrics_path)]) == 0
        out, _ = capsys.readouterr()
        assert "observer_health_score" in out
        assert "observer_records_seen" in out

    def test_spec_file_round_trips_through_registry(self, inputs):
        *_, spec = inputs
        registry = ObserverRegistry.load(spec)
        assert registry.names() == ["avail"]
        assert registry.get("avail").baseline.min_days == 3
