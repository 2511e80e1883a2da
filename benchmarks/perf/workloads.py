"""The four workloads, as one repeat inside one fresh interpreter.

Every function here runs in a child process started by
:mod:`benchmarks.perf.cli` (``PYTHONHASHSEED=0``, one repeat per process,
because campaigns run inside one interpreter drift slower as the heap
grows).  A repeat is: set-up (imports, world build, cache warm-up; for
``store_fanout`` also input generation), the timed producer region, the
output checks, and the consumer pass (ingest into a warehouse, scan,
pushdown, aggregate-served tables, monitor + observer + aggregate-book
fan-out).  The consumer pass is what lets every workload report every
end-to-end metric on its own records; ``store_fanout`` is the workload
that repeats it enough to carry tight numbers.

``--seed N`` reaches ``src/repro`` as ``build_world(seed=N)`` /
``world_seed=N`` and as the campaign seed (shipped default + N) and in no
other way: nothing below reads an environment variable, and no workload
name is passed into the library.
"""

from __future__ import annotations

import cProfile
import hashlib
import resource
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.catalog.resolvers import CATALOG
from repro.core.errors_taxonomy import ErrorClass
from repro.core.results import MeasurementRecord, ResultStore
from repro.core.runner import Campaign, CampaignConfig
from repro.experiments.campaigns import (
    EC2_VANTAGE_NAMES,
    SESSION_STUDY_POLICIES,
    SESSION_TARGET_HOSTNAMES,
    ec2_campaign_config,
    run_campaign_parallel,
    sessions_campaign_config,
)
from repro.experiments.world import World, build_world
from repro.monitor import Monitor, default_policy
from repro.observers import ObserverFleet
from repro.parallel import (
    default_worker_count,
    execute_shard,
    merge_shard_warehouses,
    plan_campaign,
)
from repro.session import policy_from_name
from repro.store import (
    AggregateBook,
    StoreSink,
    Warehouse,
    availability_from_aggregates,
    per_resolver_availability_from_aggregates,
    response_time_summaries,
)

from benchmarks.perf.hostspeed import (
    BesideSampler,
    ReferenceKernel,
    Stopwatch,
)
from benchmarks.perf.profile_buckets import bucket_profile

WORKLOADS = ("ec2_doh_cold", "session_matrix", "ec2_sharded_store", "store_fanout")

SEGMENT_RECORDS = 4096
SHARDS = 8
#: A campaign's stopwatch closes a chunk (and reads the host's speed) every
#: this many records: ~60 ms of work per ~1.2 ms reading.
LAP_RECORDS = 100
#: The consumer phases stream records far faster than a campaign makes them.
LAP_STREAMED = 1000
EC2_SEED = 202  # ec2_campaign_config's shipped default
SESSIONS_SEED = 606  # sessions_campaign_config's shipped default
_ERROR_CLASSES = frozenset(item.value for item in ErrorClass)


@dataclass(frozen=True)
class ConsumerReps:
    """How often each consumer phase runs inside one repeat."""

    write: int
    scan: int
    pushdown: int
    aggregate: int
    fanout: int


LIGHT = ConsumerReps(write=1, scan=5, pushdown=10, aggregate=10, fanout=5)
HEAVY = ConsumerReps(write=2, scan=8, pushdown=30, aggregate=30, fanout=5)
SMOKE = ConsumerReps(write=1, scan=1, pushdown=2, aggregate=2, fanout=1)


@dataclass(frozen=True)
class Size:
    rounds: int
    consumer: ConsumerReps


SIZES: Dict[str, Size] = {
    "ec2_doh_cold": Size(rounds=6, consumer=LIGHT),
    "session_matrix": Size(rounds=10, consumer=LIGHT),
    "ec2_sharded_store": Size(rounds=6, consumer=LIGHT),
    "store_fanout": Size(rounds=6, consumer=HEAVY),
}
QUICK_SIZES: Dict[str, Size] = {
    "ec2_doh_cold": Size(rounds=1, consumer=SMOKE),
    "session_matrix": Size(rounds=2, consumer=SMOKE),
    "ec2_sharded_store": Size(rounds=1, consumer=SMOKE),
    "store_fanout": Size(rounds=1, consumer=SMOKE),
}


def size_of(workload: str, quick: bool) -> Size:
    return (QUICK_SIZES if quick else SIZES)[workload]


def pool_workers() -> int:
    return min(default_worker_count(), 4)


# -- the plan: how many records a campaign must produce ------------------------


def planned_records(
    config: CampaignConfig, vantages: int, targets: int
) -> int:
    per_set = len(config.domains) * len(config.transport_list)
    if config.ping:
        per_set += 1
    return vantages * targets * config.schedule.rounds * per_set


# -- output checks ---------------------------------------------------------------


def check_records(
    records: Sequence[MeasurementRecord], expected: int
) -> List[str]:
    """Failures of the record-level invariants (empty when all hold)."""
    failures = []
    if len(records) != expected:
        failures.append(f"record count {len(records)} != planned {expected}")
    successes = sum(1 for record in records if record.success)
    classified = sum(
        1
        for record in records
        if not record.success and record.error_class in _ERROR_CLASSES
    )
    if successes + classified != len(records):
        failures.append(
            f"attempts {len(records)} != successes {successes} + "
            f"classified errors {classified}"
        )
    broken = sum(
        1
        for record in records
        if MeasurementRecord.from_json(record.to_json()) != record
    )
    if broken:
        failures.append(f"{broken} records change across to_json -> from_json")
    return failures


def summary_tables(book: AggregateBook) -> tuple:
    """The three tables ``repro-dns store summarize`` prints."""
    overall = availability_from_aggregates(book)
    latencies = response_time_summaries(book)
    return (
        (overall.successes, overall.errors, sorted(overall.error_breakdown.items())),
        sorted(per_resolver_availability_from_aggregates(book).items()),
        [
            (name, s.count, s.mean_ms, s.p50_ms, s.p95_ms, s.p99_ms)
            for name, s in latencies.items()
        ],
    )


def jsonl_sha256(records: Iterable[MeasurementRecord]) -> str:
    digest = hashlib.sha256()
    for record in sorted(records, key=ResultStore.canonical_key):
        digest.update(record.to_json().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def warehouse_sha256(warehouse: Warehouse) -> str:
    digest = hashlib.sha256()
    for filename in warehouse.manifest()["segments"]:
        digest.update((warehouse.segments_dir / filename).read_bytes())
    return digest.hexdigest()


def warehouse_bytes(warehouse: Warehouse) -> int:
    return sum(p.stat().st_size for p in warehouse.root.rglob("*") if p.is_file())


# -- simulated statistics (exact for a seed) -----------------------------------------


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def sim_stats(
    records: Sequence[MeasurementRecord], events: Optional[int]
) -> Dict[str, float]:
    durations = sorted(
        record.duration_ms
        for record in records
        if record.kind == "dns_query" and record.success
    )
    return {
        "sim.events_per_record": events / len(records) if events else 0.0,
        "sim.response_p50_ms": _nearest_rank(durations, 0.50),
        "sim.response_p95_ms": _nearest_rank(durations, 0.95),
        "sim.error_share": sum(1 for r in records if not r.success) / len(records),
    }


# -- the consumer pass ------------------------------------------------------------


class Phase:
    """Median host seconds of one consumer phase, raw and at reference speed.

    ``fn`` gets the sample's stopwatch, so a phase that streams records can
    close chunks as it goes (``watch.ticking``); a short one is one chunk.
    """

    def __init__(
        self, kernel: ReferenceKernel, fn: Callable[[Stopwatch], object], reps: int
    ) -> None:
        raws, scaleds = [], []
        self.result: object = None
        for _ in range(reps):
            watch = Stopwatch(kernel).start()
            self.result = fn(watch)
            raw, at_reference = watch.stop()
            raws.append(raw)
            scaleds.append(at_reference)
        self.raw_s = median(raws)
        self.s = median(scaleds)


class TickingSource:
    """A warehouse as ``build_canonical`` sees it, closing chunks as it reads."""

    def __init__(self, warehouse: Warehouse, watch: Stopwatch) -> None:
        self._warehouse = warehouse
        self._watch = watch

    def iter_sorted(self) -> Iterable[MeasurementRecord]:
        return self._watch.ticking(self._warehouse.iter_sorted(), LAP_STREAMED)


def _pushdown_criteria(records: Sequence[MeasurementRecord]) -> Dict[str, str]:
    resolvers = {record.resolver for record in records}
    resolver = "dns.google" if "dns.google" in resolvers else "dns.adguard.com"
    return {"vantage": "ec2-seoul", "resolver": resolver}


def _fan_out(records: Sequence[MeasurementRecord], watch: Stopwatch) -> tuple:
    monitor = Monitor(default_policy())
    monitor.replay(watch.ticking(records, LAP_STREAMED))
    alerts = monitor.finalize()
    fleet = ObserverFleet()
    fleet.replay(watch.ticking(records, LAP_STREAMED))
    report = fleet.finalize()
    book = AggregateBook.from_records(watch.ticking(records, LAP_STREAMED))
    return len(alerts), len(report.summary_rows()), book.total_records


class ConsumerResult:
    """What one consumer pass measured and found."""

    def __init__(self) -> None:
        #: End-to-end metrics at reference host speed, and the same raw.
        self.metrics: Dict[str, float] = {}
        self.raw: Dict[str, float] = {}
        self.failures: List[str] = []
        self.warehouse: Optional[Warehouse] = None
        #: Sum of the five phase medians: one pass of the consumer pipeline.
        self.pipeline_s = 0.0
        self.pipeline_raw_s = 0.0


def consumer_pass(
    records: Sequence[MeasurementRecord],
    workdir: Path,
    reps: ConsumerReps,
    kernel: ReferenceKernel,
) -> ConsumerResult:
    """Land ``records`` in a warehouse, query it, fan out; time each phase."""
    count = len(records)
    out = ConsumerResult()
    failures = out.failures
    written = [0]

    def write(watch: Stopwatch) -> Warehouse:
        written[0] += 1
        sink = StoreSink(
            Warehouse(workdir / f"staging-{written[0]}"),
            segment_records=SEGMENT_RECORDS,
        )
        sink.extend(watch.ticking(records, LAP_STREAMED))
        staging = TickingSource(sink.close(), watch)
        return Warehouse.build_canonical(
            [staging], workdir / f"warehouse-{written[0]}", SEGMENT_RECORDS
        )

    writing = Phase(kernel, write, reps.write)
    warehouse: Warehouse = writing.result  # type: ignore[assignment]
    out.warehouse = warehouse
    scanning = Phase(
        kernel,
        lambda watch: sum(
            1 for _ in watch.ticking(warehouse.iter_records(), LAP_STREAMED)
        ),
        reps.scan,
    )
    if scanning.result != count or len(warehouse) != count:
        failures.append(
            f"warehouse holds {len(warehouse)} / scans {scanning.result} "
            f"of {count} records"
        )

    stored = list(warehouse.iter_records())  # one scan feeds every check below
    criteria = _pushdown_criteria(records)
    pushing = Phase(
        kernel, lambda _watch: warehouse.filter(**criteria), reps.pushdown
    )
    pushed: List[MeasurementRecord] = pushing.result  # type: ignore[assignment]
    full_scan = [
        record
        for record in stored
        if record.vantage == criteria["vantage"]
        and record.resolver == criteria["resolver"]
    ]
    if not pushed or pushed != full_scan:
        failures.append(
            f"pushdown returned {len(pushed)} records, filtered scan {len(full_scan)}"
        )

    aggregating = Phase(
        kernel, lambda _watch: summary_tables(warehouse.aggregates()), reps.aggregate
    )
    served: tuple = aggregating.result  # type: ignore[assignment]
    scanned_book = AggregateBook.from_records(stored)
    if served != summary_tables(scanned_book):
        failures.append("aggregate-served tables differ from full-scan tables")
    if warehouse.aggregates().to_dict() != scanned_book.to_dict():
        failures.append("persisted aggregates differ from a rebuilt aggregate book")

    ordered = sorted(records, key=ResultStore.canonical_key)
    fanning = Phase(kernel, lambda watch: _fan_out(ordered, watch), reps.fanout)
    if fanning.result[2] != count:  # type: ignore[index]
        failures.append(
            f"fan-out aggregate book saw {fanning.result[2]} of {count} records"  # type: ignore[index]
        )

    (successes, errors, _breakdown), _, _ = served
    queries = sum(1 for record in records if record.kind == "dns_query")
    if successes + errors != queries:
        failures.append(
            f"aggregates count {successes + errors} queries, records hold {queries}"
        )

    def timing(seconds: Callable[[Phase], float]) -> Dict[str, float]:
        return {
            "ingest_records_per_s": count / seconds(writing),
            "scan_records_per_s": count / seconds(scanning),
            "pushdown_query_ms": seconds(pushing) * 1e3,
            "aggregate_query_ms": seconds(aggregating) * 1e3,
            "fanout_records_per_s": count / seconds(fanning),
        }

    phases = (writing, scanning, pushing, aggregating, fanning)
    out.pipeline_s = sum(phase.s for phase in phases)
    out.pipeline_raw_s = sum(phase.raw_s for phase in phases)
    out.metrics = {
        "availability": successes / queries,
        "bytes_per_record": warehouse_bytes(warehouse) / count,
        **timing(lambda phase: phase.s),
    }
    out.raw = timing(lambda phase: phase.raw_s)
    return out


# -- producers -----------------------------------------------------------------------


class LappingStore(ResultStore):
    """A ``ResultStore`` that closes a stopwatch chunk every ``LAP_RECORDS``."""

    def __init__(self, watch: Stopwatch) -> None:
        super().__init__()
        self._watch = watch

    def add(self, record: MeasurementRecord) -> None:
        super().add(record)
        if not len(self) % LAP_RECORDS:
            self._watch.lap()


def ec2_campaign(
    world: World, rounds: int, seed: int, store: Optional[ResultStore] = None
) -> Campaign:
    """The EC2 campaign (3 vantages, every target of ``world``) at ``rounds``."""
    return Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in EC2_VANTAGE_NAMES],
        targets=world.targets(),
        config=ec2_campaign_config(rounds=rounds, seed=EC2_SEED + seed),
        store=store,
    )


def session_world(seed: int) -> World:
    """A world holding only the ``SESSION_TARGET_HOSTNAMES`` deployments."""
    catalog = [e for e in CATALOG if e.hostname in SESSION_TARGET_HOSTNAMES]
    return build_world(seed=seed, catalog=catalog)


def _session_campaigns(
    seed: int, rounds: int, watch: Stopwatch
) -> List[Tuple[str, Campaign]]:
    """One fresh session-target world and campaign per policy."""
    campaigns = []
    for name in SESSION_STUDY_POLICIES:
        world = session_world(seed)
        campaigns.append(
            (
                name,
                Campaign(
                    network=world.network,
                    vantages=[world.vantage(v) for v in EC2_VANTAGE_NAMES],
                    targets=world.targets(list(SESSION_TARGET_HOSTNAMES)),
                    config=sessions_campaign_config(
                        policy_from_name(name),
                        rounds=rounds,
                        seed=SESSIONS_SEED + seed,
                    ),
                    store=LappingStore(watch),
                ),
            )
        )
    return campaigns


def _events(campaign: Campaign) -> int:
    return campaign.network.loop.events_processed


class Repeat:
    """One repeat of one workload: set-up, timed region, checks, consumer pass.

    ``metrics`` holds the end-to-end values with every time taken at
    reference host speed (see :mod:`benchmarks.perf.hostspeed`); ``raw``
    holds the same timing metrics unscaled.
    """

    def __init__(self, spec: dict, setup: Stopwatch) -> None:
        self.workload: str = spec["workload"]
        self.seed: int = spec["seed"]
        self.size = size_of(self.workload, spec["quick"])
        self.traced: bool = spec["mode"] == "traced"
        self.workdir = Path(spec["workdir"])
        self.profile = cProfile.Profile() if self.traced else None
        #: Open since the parent started this process; ``_enter`` closes it.
        self.setup = setup
        self.kernel = setup.kernel
        self.watch = Stopwatch(
            self.kernel, around=self._unprofiled if self.traced else None
        )
        self.records: List[MeasurementRecord] = []
        self.expected = 0
        self.failures: List[str] = []
        self.layer: Dict[str, float] = {}
        self.metrics: Dict[str, float] = {}
        self.raw: Dict[str, float] = {}
        self.timed_s = 0.0
        self.digest = ""
        self.extra: Dict[str, object] = {}

    def _unprofiled(self, run_kernel: Callable[[], float]) -> float:
        self.profile.disable()
        try:
            return run_kernel()
        finally:
            self.profile.enable()

    # The timed region: everything between enter and leave counts, and in
    # the traced pass is profiled.
    def _enter(self) -> None:
        """Close set-up and open the timed region."""
        self.raw["setup_s"], self.metrics["setup_s"] = self.setup.stop()
        if self.profile is not None:
            self.profile.enable()
        self.watch.start()

    def _leave(self) -> None:
        raw, self.timed_s = self.watch.stop()
        if self.profile is not None:
            self.profile.disable()
        self.raw["timed_s"] = raw

    def _rate(self, seconds: float, raw_seconds: float) -> None:
        self.metrics["records_per_s"] = len(self.records) / seconds
        self.raw["records_per_s"] = len(self.records) / raw_seconds

    def run(self) -> dict:
        getattr(self, "_run_" + self.workload)()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.metrics["peak_rss_mb"] = rss_kib / 1024.0
        result = {
            "workload": self.workload,
            "records": len(self.records),
            "timed_s": self.timed_s,
            "metrics": self.metrics,
            "raw": self.raw,
            "layer": self.layer,
            "output_sha256": self.digest,
            "failures": self.failures,
            "extra": self.extra,
        }
        if self.profile is not None:
            result["trace"] = bucket_profile(self.profile, len(self.records))
        return result

    def _consume(self) -> Optional[ConsumerResult]:
        """Record checks plus (untraced repeats only) the consumer pass."""
        self.failures += check_records(self.records, self.expected)
        if self.traced:
            return None
        consumed = consumer_pass(
            self.records, self.workdir, self.size.consumer, self.kernel
        )
        self.metrics.update(consumed.metrics)
        self.raw.update(consumed.raw)
        self.failures += consumed.failures
        return consumed

    # -- ec2_doh_cold -------------------------------------------------------------

    def _run_ec2_doh_cold(self) -> None:
        world = build_world(seed=self.seed)
        self.setup.lap()
        campaign = ec2_campaign(
            world, self.size.rounds, self.seed, LappingStore(self.watch)
        )
        self.expected = planned_records(
            campaign.config, len(campaign.vantages), len(campaign.targets)
        )
        events = _events(campaign)
        self._enter()
        store = campaign.run()
        self._leave()
        self.records = store.records
        self.layer.update(sim_stats(self.records, _events(campaign) - events))
        self._rate(self.timed_s, self.raw["timed_s"])
        self.digest = jsonl_sha256(self.records)
        self._consume()

    # -- session_matrix -----------------------------------------------------------

    def _run_session_matrix(self) -> None:
        campaigns = _session_campaigns(self.seed, self.size.rounds, self.watch)
        self.expected = sum(
            planned_records(c.config, len(c.vantages), len(c.targets))
            for _, c in campaigns
        )
        events = sum(_events(c) for _, c in campaigns)
        self._enter()
        cell_seconds = {}
        for name, campaign in campaigns:
            before = self.watch.scaled_s
            campaign.run()
            self.watch.lap()
            cell_seconds[name] = self.watch.scaled_s - before
        self._leave()
        for name, campaign in campaigns:
            cell = campaign.store.records
            self.records += cell
            key = name.replace("-", "_")
            self.layer[f"session.{key}.records_per_s"] = len(cell) / cell_seconds[name]
        self.layer.update(
            sim_stats(self.records, sum(_events(c) for _, c in campaigns) - events)
        )
        self._rate(self.timed_s, self.raw["timed_s"])
        self.digest = jsonl_sha256(self.records)
        self._consume()

    # -- ec2_sharded_store ---------------------------------------------------------

    def _run_ec2_sharded_store(self) -> None:
        config = ec2_campaign_config(
            rounds=self.size.rounds, seed=EC2_SEED + self.seed
        )
        hostnames = [entry.hostname for entry in CATALOG]
        self.expected = planned_records(config, len(EC2_VANTAGE_NAMES), len(hostnames))
        store_dir = self.workdir / "pooled"
        tasks = plan_campaign(
            config, EC2_VANTAGE_NAMES, hostnames, world_seed=self.seed,
            shard_by="resolver", shards=SHARDS,
            store_staging_dir=str(store_dir / ".staging"),
            segment_records=SEGMENT_RECORDS,
        )
        workers = pool_workers()
        self._enter()
        if self.traced:
            # The pool cannot be profiled from here, so the traced pass runs
            # the same tasks in sequence and times the merge on its own.
            results = []
            for task in tasks:
                results.append(execute_shard(task))
                self.watch.lap()
            before = self.watch.scaled_s
            warehouse = merge_shard_warehouses(results, store_dir, SEGMENT_RECORDS)
            self.watch.lap()
            self.layer["parallel.merge_s"] = self.watch.scaled_s - before
        else:
            # The workers are other processes, so no lap can be put inside
            # the pooled run: a thread here reads the host's speed beside it.
            sampler = BesideSampler(self.kernel).start()
            try:
                run = run_campaign_parallel(
                    config, EC2_VANTAGE_NAMES, hostnames, world_seed=self.seed,
                    workers=workers, shard_by="resolver", shards=SHARDS,
                    store_dir=str(store_dir), segment_records=SEGMENT_RECORDS,
                )
            finally:
                to_reference = sampler.stop()
            warehouse = run.warehouse
        self._leave()

        if not self.traced:
            raw_s = self.raw["timed_s"]
            self.timed_s = raw_s * to_reference
            walls = list(run.shard_wall_seconds.values())
            self.layer.update(
                {
                    "parallel.shard_wall_sum_s": sum(walls),
                    "parallel.shard_wall_max_s": max(walls),
                    "parallel.efficiency": sum(walls) / (workers * raw_s),
                    "parallel.pool_used": 1.0 if run.pool_used else 0.0,
                }
            )
            self.extra = {
                "workers": workers,
                "shards": len(tasks),
                "fallback_reason": run.fallback_reason,
            }
            # A sequential fallback measures another program: fail the run.
            if workers > 1 and not run.pool_used:
                self.failures.append(
                    f"process pool not used: {run.fallback_reason}"
                )
        if len(warehouse) != self.expected:
            self.failures.append(
                f"warehouse holds {len(warehouse)} records, plan has {self.expected}"
            )
        self.records = list(warehouse.iter_records())
        self.layer.update(sim_stats(self.records, None))
        self._rate(self.timed_s, self.raw["timed_s"])
        self.digest = warehouse_sha256(warehouse)
        consumed = self._consume()
        if consumed is None:
            return
        # The pooled warehouse is the one users keep: report its size, and
        # require the single-sink rebuild of the same records to match it
        # byte for byte (the store's any-partitioning guarantee).
        self.metrics["bytes_per_record"] = warehouse_bytes(warehouse) / len(self.records)
        if warehouse_sha256(consumed.warehouse) != self.digest:
            self.failures.append("pooled warehouse differs from a single-sink rebuild")

    # -- store_fanout ---------------------------------------------------------------

    def _run_store_fanout(self) -> None:
        world = build_world(seed=self.seed)
        self.setup.lap()
        campaign = ec2_campaign(
            world, self.size.rounds, self.seed, LappingStore(self.setup)
        )
        self.expected = planned_records(
            campaign.config, len(campaign.vantages), len(campaign.targets)
        )
        events = _events(campaign)
        self.records = campaign.run().records
        self.setup.lap()
        self.layer.update(sim_stats(self.records, _events(campaign) - events))
        self.digest = jsonl_sha256(self.records)
        self.setup.lap()
        self.failures += check_records(self.records, self.expected)
        self._enter()
        consumed = consumer_pass(
            self.records, self.workdir, self.size.consumer, self.kernel
        )
        self._leave()
        self.metrics.update(consumed.metrics)
        self.raw.update(consumed.raw)
        self.failures += consumed.failures
        # One pass of the consumer pipeline, from the phase medians.
        self._rate(consumed.pipeline_s, consumed.pipeline_raw_s)


def run_repeat(spec: dict, setup: Stopwatch) -> dict:
    """Child entry point: one repeat, result as a JSON-ready dict.

    ``setup`` is the stopwatch the child opened at the instant its parent
    started it.
    """
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return Repeat(spec, setup).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def describe_sizes(quick: bool) -> Dict[str, dict]:
    """Per-workload input sizes for the report header."""
    out = {}
    for name in WORKLOADS:
        size = size_of(name, quick)
        out[name] = {"rounds": size.rounds, **asdict(size.consumer)}
    out["ec2_sharded_store"].update(shards=SHARDS, workers=pool_workers())
    return out
