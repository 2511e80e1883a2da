"""The benchmark's command line: run, report, compare.

The parent process here never imports ``repro``.  It starts one fresh
interpreter per repeat (``PYTHONHASHSEED=0``), interleaves repeats
round-robin across workloads, reduces each end-to-end metric to the
median over repeats, checks outputs, and prints every metric by name
with its unit.  Metric names, units, directions and bounds come from
``BENCHMARK.json``; a value measured under a name that file does not
list is an error, so the file and the harness cannot drift apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.perf.profile_buckets import share_sum

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = HERE / ".work"
RUN_PY = HERE / "run.py"

CHILD_TIMEOUT_S = 170.0
MIN_REPEATS = 2
MAX_REPEATS = 9
#: The direct-call layer table times ~50 operations in ``LAYER_BATCHES``
#: batches of ``--seconds`` / ``LAYER_BATCH_DIVISOR`` each (48 ms at 24 s).
LAYER_BATCHES = 3
LAYER_BATCH_DIVISOR = 500.0
QUICK_BATCH_SECONDS = 0.02

#: Values that must be identical in every repeat of a workload.
EXACT_METRICS = ("availability", "bytes_per_record")


class HarnessError(Exception):
    """The harness itself failed (a child crashed, a name is unknown)."""


# -- BENCHMARK.json ---------------------------------------------------------------


def load_spec(path: Path = SPEC_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def metric_table(spec: dict, section: str) -> Dict[str, dict]:
    return {entry["name"]: entry for entry in spec[section]}


# -- children -----------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(spec: dict) -> dict:
    """Run one repeat in a fresh interpreter; return its JSON result.

    The child gets its own session so a timeout or a crash takes its pool
    workers down with it; nothing this function starts outlives it.
    """
    spec = dict(spec, spawned_at=time.perf_counter())
    proc = subprocess.Popen(
        [sys.executable, str(RUN_PY), "--child", json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=_child_env(),
        cwd=str(ROOT),
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    wall = time.perf_counter() - spec["spawned_at"]
    if proc.returncode != 0:
        raise HarnessError(
            f"{spec['workload'] or spec['mode']} child exited {proc.returncode}"
        )
    result = json.loads(out.decode("utf-8").strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def child_main(spec_json: str) -> int:
    """Entry point inside the child: one repeat, one JSON line on stdout."""
    spec = json.loads(spec_json)
    if spec["mode"] == "layers":
        from benchmarks.perf.layers import measure_layers

        result = {
            "layers": measure_layers(
                spec["seed"], Path(spec["workdir"]), spec["batch_seconds"],
                spec["batches"], spec["quick"],
            )
        }
    else:
        # Set-up is lapped like any timed region: a reading before the
        # imports, one after, and more inside the workload's own set-up.
        from benchmarks.perf.hostspeed import ReferenceKernel, Stopwatch

        setup = Stopwatch(ReferenceKernel()).start(opened_at=spec["spawned_at"])
        from benchmarks.perf.workloads import run_repeat

        setup.lap()
        result = run_repeat(spec, setup)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


# -- measuring ------------------------------------------------------------------------


class WorkloadRun:
    """Repeats of one workload and what they reduce to."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.repeats: List[dict] = []
        self.traced: Optional[dict] = None
        self.elapsed_s = 0.0

    def wants_more(self, seconds: float, quick: bool) -> bool:
        if not self.repeats:
            return True
        if quick or len(self.repeats) >= MAX_REPEATS:
            return False
        if len(self.repeats) < MIN_REPEATS:
            return True
        # Stop when less than half of another repeat fits the budget.
        mean = self.elapsed_s / len(self.repeats)
        return self.elapsed_s + mean / 2 <= seconds

    def add(self, result: dict) -> None:
        self.repeats.append(result)
        self.elapsed_s += result["wall_s"]

    @property
    def records(self) -> int:
        return self.repeats[0]["records"]

    def failures(self) -> List[str]:
        """Failed checks of every repeat, plus disagreement between repeats."""
        out = [
            f"repeat {index}: {message}"
            for index, repeat in enumerate(self.repeats)
            for message in repeat["failures"]
        ]
        first = self.repeats[0]
        for index, repeat in enumerate(self.repeats[1:], start=1):
            if repeat["output_sha256"] != first["output_sha256"]:
                out.append(f"repeat {index}: output_sha256 differs from repeat 0")
            for name in EXACT_METRICS:
                if repeat["metrics"][name] != first["metrics"][name]:
                    out.append(f"repeat {index}: {name} differs from repeat 0")
            for name, value in first["layer"].items():
                if name.startswith("sim.") and repeat["layer"][name] != value:
                    out.append(f"repeat {index}: {name} differs from repeat 0")
        return out

    def end_to_end(self) -> Dict[str, dict]:
        out = {}
        for name in self.repeats[0]["metrics"]:
            values = [repeat["metrics"][name] for repeat in self.repeats]
            out[name] = {
                "median": median(values),
                "min": min(values),
                "max": max(values),
                "values": values,
            }
            # Timing metrics also keep their unscaled readings.
            if name in self.repeats[0]["raw"]:
                out[name]["raw_median"] = median(
                    repeat["raw"][name] for repeat in self.repeats
                )
        return out

    def per_layer(self, layers: Dict[str, float]) -> Dict[str, float]:
        """Layer metrics of a traced invocation: table + run + trace."""
        out = dict(layers)
        for name in self.repeats[0]["layer"]:
            out[name] = median(repeat["layer"][name] for repeat in self.repeats)
        if self.traced is not None:
            out.update(self.traced["layer"])
            out.update(self.traced["trace"]["metrics"])
            untraced = median(repeat["timed_s"] for repeat in self.repeats)
            out["trace.overhead_ratio"] = self.traced["timed_s"] / untraced
        return out


def measure(
    names: Sequence[str], seed: int, seconds: float, trace: bool, quick: bool
) -> Tuple[Dict[str, WorkloadRun], Dict[str, float]]:
    """Run the repeats (and, traced, the traced pass and the layer table).

    Returns the runs by workload and the direct-call layer table (empty
    unless traced).
    """
    workdir = WORK_ROOT / f"run-{os.getpid()}"
    counter = [0]

    def child_spec(workload: str, mode: str) -> dict:
        counter[0] += 1
        return {
            "workload": workload, "mode": mode, "seed": seed, "quick": quick,
            "workdir": str(workdir / f"{mode}-{counter[0]}"),
        }

    runs = {name: WorkloadRun(name) for name in names}
    layers: Dict[str, float] = {}
    try:
        if trace:
            # The traced invocation needs one untraced repeat per workload
            # (run-derived layer metrics, the overhead ratio's base).
            for run in runs.values():
                run.add(run_child(child_spec(run.name, "timed")))
                run.traced = run_child(child_spec(run.name, "traced"))
            layer_spec = child_spec("", "layers")
            layer_spec["batches"] = 1 if quick else LAYER_BATCHES
            layer_spec["batch_seconds"] = (
                QUICK_BATCH_SECONDS if quick
                else max(QUICK_BATCH_SECONDS, seconds / LAYER_BATCH_DIVISOR)
            )
            layers = run_child(layer_spec)["layers"]
        else:
            active = list(runs.values())
            while active:
                for run in active:
                    run.add(run_child(child_spec(run.name, "timed")))
                active = [run for run in active if run.wants_more(seconds, quick)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return runs, layers


# -- reporting ------------------------------------------------------------------------


def _git_head() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def build_report(
    spec: dict, runs: Dict[str, WorkloadRun], layers: Dict[str, float],
    seed: int, seconds: float, trace: bool, quick: bool,
) -> dict:
    from benchmarks.perf.workloads import describe_sizes

    section = "per_layer" if trace else "end_to_end"
    known = metric_table(spec, section)
    report = {
        "header": {
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "quick": quick,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_head": _git_head(),
            "sizes": describe_sizes(quick),
            "repeats": {name: len(run.repeats) for name, run in runs.items()},
        },
        "workloads": {},
    }
    for name, run in runs.items():
        failures = run.failures()
        if trace:
            values = run.per_layer(layers)
            metrics = {
                metric: {"value": values.get(metric, 0.0), "unit": entry["unit"]}
                for metric, entry in known.items()
            }
            share = share_sum(values)
            if abs(share - 1.0) > 0.01:
                failures.append(f"trace self shares sum to {share:.4f}")
        else:
            values = run.end_to_end()
            metrics = {
                metric: dict(values[metric], unit=entry["unit"])
                for metric, entry in known.items()
                if metric in values
            }
        unknown = sorted(set(values) - set(known))
        missing = sorted(set(known) - set(values)) if not trace else []
        if unknown or missing:
            raise HarnessError(
                f"{name}: names not in BENCHMARK.json {unknown}, not measured {missing}"
            )
        report["workloads"][name] = {
            "records": run.records,
            "repeats": len(run.repeats),
            "output_sha256": run.repeats[0]["output_sha256"],
            "extra": dict(
                run.repeats[0]["extra"],
                **(
                    {"unattributed_share": run.traced["trace"]["unattributed_share"]}
                    if run.traced is not None else {}
                ),
            ),
            "failures": failures,
            section: metrics,
        }
    return report


def print_report(report: dict, out=sys.stdout) -> None:
    header = report["header"]
    print(
        f"# seed={header['seed']} nproc={header['nproc']} python={header['python']} "
        f"git={header['git_head']} quick={header['quick']}",
        file=out,
    )
    for name, body in report["workloads"].items():
        size = header["sizes"][name]
        print(
            f"\n## {name}: {body['records']} records, {body['repeats']} repeat(s), "
            f"size {size}, sha256 {body['output_sha256'][:16]}",
            file=out,
        )
        if body["extra"]:
            print(f"   {body['extra']}", file=out)
        for metric, entry in body.get("end_to_end", {}).items():
            raw = entry.get("raw_median")
            print(
                f"{metric:24s} {entry['median']:14.4f} {entry['unit']:6s} "
                f"min {entry['min']:.4f}  max {entry['max']:.4f}  "
                f"n={len(entry['values'])}"
                + (f"  raw {raw:.4f}" if raw is not None else ""),
                file=out,
            )
        for metric, entry in body.get("per_layer", {}).items():
            print(f"{metric:44s} {entry['value']:14.4f} {entry['unit']}", file=out)
        for failure in body["failures"]:
            print(f"FAILED CHECK: {failure}", file=out)


def contract_line(body: dict, section: str) -> str:
    """The one-line result the benchmark contract asks for."""
    metrics = {
        name: {
            "value": entry["median"] if section == "end_to_end" else entry["value"],
            "unit": entry["unit"],
        }
        for name, entry in body[section].items()
    }
    attempted = body["records"] * body["repeats"]
    return json.dumps(
        {
            "correct": not body["failures"],
            "attempted": attempted,
            "failed": min(len(body["failures"]), attempted),
            "metrics": metrics,
        }
    )


# -- compare --------------------------------------------------------------------------


def _spread(entry: dict) -> float:
    return (entry["max"] - entry["min"]) / entry["median"] if entry["median"] else 0.0


def compare_metric(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one (workload, metric) pair."""
    lower = better == "lower"
    all_better = b["max"] <= a["min"] if lower else b["min"] >= a["max"]
    all_worse = b["min"] > a["max"] if lower else b["max"] < a["min"]
    # Spread wider than the bound: the medians cannot decide, only ranges
    # that do not overlap can.
    noisy = max(_spread(a), _spread(b)) > bound
    if noisy and all_better:
        return "ok"
    if noisy and not all_worse:
        return "unresolved"
    worse_by = (b["median"] - a["median"]) / a["median"]
    if not lower:
        worse_by = -worse_by
    return "worse" if worse_by > bound else "ok"


def compare_reports(spec: dict, a: dict, b: dict, out=sys.stdout) -> int:
    """Print one row per (workload, end-to-end metric); 1 if any is worse."""
    table = metric_table(spec, "end_to_end")
    status = 0
    print(
        f"{'workload':18s} {'metric':24s} {'A median':>14s} {'B median':>14s} "
        f"{'B/A':>8s} {'bound':>6s}  verdict",
        file=out,
    )
    for name, body_a in a["workloads"].items():
        body_b = b["workloads"].get(name)
        if body_b is None:
            continue
        for metric, entry in table.items():
            ea = body_a.get("end_to_end", {}).get(metric)
            eb = body_b.get("end_to_end", {}).get(metric)
            if ea is None or eb is None:
                continue
            verdict = compare_metric(ea, eb, entry["better"], entry["bound"])
            if verdict == "worse":
                status = 1
            print(
                f"{name:18s} {metric:24s} {ea['median']:14.4f} {eb['median']:14.4f} "
                f"{eb['median'] / ea['median']:8.4f} {entry['bound']:6.2f}  "
                f"{verdict} ({entry['better']} is better; ratio base A)",
                file=out,
            )
        for key in ("records", "output_sha256"):
            same = body_a[key] == body_b[key]
            print(f"{name:18s} {key:24s} {'same' if same else 'changed'}", file=out)
        for metric, ea in body_a.get("per_layer", {}).items():
            eb = body_b.get("per_layer", {}).get(metric)
            exact = metric.startswith("sim.") or metric.endswith(
                ("calls_per_record", "warm_events")
            )
            if exact and eb is not None:
                same = ea["value"] == eb["value"]
                print(
                    f"{name:18s} {metric:44s} {'same' if same else 'changed'}",
                    file=out,
                )
    return status


# -- entry ----------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/perf/run.py",
        description="Host-time benchmark of the repro simulator.",
    )
    parser.add_argument("--workload", action="append", help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=None, help="measuring budget per workload")
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="1: the traced pass (per-layer metrics) in place of the end-to-end pass",
    )
    parser.add_argument("--quick", action="store_true", help="smoke size: 1-2 rounds, 1 repeat")
    parser.add_argument("--report", metavar="PATH", help="also write the report as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", metavar="SPEC", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args.child)
    if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
        print(f"error: {ROOT} holds no src/repro or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        reports = [json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare]
        return compare_reports(spec, reports[0], reports[1])

    known = [entry["name"] for entry in spec["workloads"]]
    names = args.workload or known
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    trace = bool(args.trace)
    try:
        runs, layers = measure(names, args.seed, seconds, trace, args.quick)
        report = build_report(
            spec, runs, layers, args.seed, seconds, trace, args.quick
        )
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print_report(report)
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    section = "per_layer" if trace else "end_to_end"
    for body in report["workloads"].values():
        print(contract_line(body, section))
    failed = any(body["failures"] for body in report["workloads"].values())
    return 1 if failed else 0
