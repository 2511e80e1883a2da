"""Smoke tests of the benchmark harness (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py`` from the
repo root.  They run the ``--quick`` size through the real command, so
they take about half a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import cli, profile_buckets  # noqa: E402

SPEC = cli.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_quick(*extra: str) -> list:
    """The contract lines (one per workload) of a ``--quick`` run."""
    proc = subprocess.run(
        [sys.executable, str(cli.RUN_PY), "--quick", *extra],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def test_spec_limits_and_names():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"]]
    names += [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert SPEC["paths"] == ["benchmarks/perf"]


def test_quick_end_to_end_prints_exactly_the_spec_names():
    lines = run_quick()
    assert len(lines) == len(SPEC["workloads"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {k: v["unit"] for k, v in line["metrics"].items()} == units
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_quick_trace_prints_exactly_the_per_layer_names():
    (line,) = run_quick("--trace", "1", "--workload", "session_matrix")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert profile_buckets.share_sum(values) == pytest.approx(1.0, abs=0.01)
    assert values["trace.quicsim.calls_per_record"] > 0
    assert values["session.zero_rtt.records_per_s"] > 0
    assert values["experiments.world.warm_events"] > 0


def test_unknown_workload_is_refused():
    proc = subprocess.run(
        [sys.executable, str(cli.RUN_PY), "--workload", "nope"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and not proc.stdout


def test_checks_trip_on_a_truncated_record_list():
    from benchmarks.perf.layers import sample_records
    from benchmarks.perf.workloads import check_records, session_world

    records = sample_records(session_world(0), 0, rounds=1)
    assert check_records(records, len(records)) == []
    assert check_records(records[:-1], len(records))
    unclassified = list(records)
    failed = next(r for r in unclassified if r.success)
    unclassified[unclassified.index(failed)] = type(failed)(
        **{**failed.__dict__, "success": False, "error_class": None}
    )
    assert check_records(unclassified, len(records))


def test_bucketer_charges_stdlib_time_to_the_calling_layer():
    tls = ("/x/src/repro/tlssim/handshake.py", 63, "_encode_handshake")
    name = ("/x/src/repro/dnswire/name.py", 136, "encode")
    world = ("/x/src/repro/experiments/world.py", 1, "build_world")
    dumps = ("/usr/lib/python3.11/json/__init__.py", 183, "dumps")
    encode = ("/usr/lib/python3.11/json/encoder.py", 183, "encode")
    harness = ("/x/benchmarks/perf/workloads.py", 1, "run")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        tls: (3, 3, 1.0, 4.0, {harness: (3, 3, 1.0, 4.0)}),
        name: (1, 1, 2.0, 3.0, {world: (1, 1, 2.0, 3.0)}),
        # A repro package outside the table: foreign, charged to its caller.
        world: (1, 1, 0.5, 3.5, {tls: (1, 1, 0.5, 3.5)}),
        dumps: (4, 4, 1.0, 4.0, {tls: (3, 3, 0.75, 3.0), name: (1, 1, 0.25, 1.0)}),
        encode: (4, 4, 3.0, 3.0, {dumps: (4, 4, 3.0, 3.0)}),
    }
    buckets = profile_buckets.bucket_stats(stats)
    seconds = buckets["seconds"]
    # dumps' self time is exact per caller; encode's is split 3:1 like
    # dumps' cumulative time; build_world's goes to tlssim.
    assert seconds["tlssim"] == pytest.approx(1.0 + 0.75 + 3.0 * 0.75 + 0.5)
    assert seconds["dnswire.name"] == pytest.approx(2.0 + 0.25 + 3.0 * 0.25)
    assert seconds[profile_buckets.UNATTRIBUTED] == pytest.approx(0.5)
    assert sum(seconds.values()) == pytest.approx(buckets["total_s"])
    assert buckets["json_calls"] == 4
    assert buckets["calls"] == {"tlssim": 3, "dnswire.name": 1}
    metrics = profile_buckets.trace_metrics(buckets, records=2)
    assert profile_buckets.share_sum(metrics) == pytest.approx(1.0)
    assert metrics["trace.json_calls_per_record"] == 2.0
    assert metrics["trace.calls_per_record"] == 7.0


def test_compare_verdicts():
    def entry(*values):
        ordered = sorted(values)
        return {"median": ordered[len(ordered) // 2], "min": ordered[0], "max": ordered[-1]}

    steady = entry(100, 101, 102)
    assert cli.compare_metric(steady, entry(103, 104, 105), "lower", 0.10) == "ok"
    assert cli.compare_metric(steady, entry(120, 121, 122), "lower", 0.10) == "worse"
    assert cli.compare_metric(steady, entry(80, 81, 82), "higher", 0.10) == "worse"
    assert cli.compare_metric(steady, entry(80, 125, 140), "lower", 0.10) == "unresolved"
    assert cli.compare_metric(entry(100, 130, 160), entry(60, 70, 80), "lower", 0.10) == "ok"
