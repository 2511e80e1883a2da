"""``repro-dns`` — command-line front end for the measurement platform.

Subcommands:

* ``list``    — show the resolver catalog (filter by region/mainstream);
* ``measure`` — run a measurement campaign over the simulated world and
  write JSONL results;
* ``report``  — run the full study and print the paper-vs-measured claim
  table plus Tables 2/3;
* ``figure``  — render one of the paper's figures as ASCII boxplots;
* ``monitor`` — evaluate SLOs over saved results (JSONL or warehouse),
  emitting alerts, verdicts and a resolver health scoreboard;
* ``diff``    — cross-resolver answer differencing: fan the same queries
  out to every deployment (or read saved captures), diff each response
  against the consensus and classify the disagreements;
* ``observe`` — run the longitudinal observer fleet over saved results or
  a months-long observatory campaign, emitting significance events and
  the world-health index;
* ``sessions`` — run the session-policy scenario matrix (cold /
  keep-alive / resumption / 0-RTT across DoH, DoT, DoQ, DoH/3) and print
  the per-policy state, warm-vs-cold p95 and 0-RTT acceptance tables;
* ``metrics`` — export a saved metrics JSON file as Prometheus text;
* ``trace``   — run a small traced campaign and export phase-level spans
  (JSONL) and/or a text span tree;
* ``query``   — issue a single DoH query from a vantage point and print a
  dig-style response.

Interactive chatter (progress lines, fault-plan notes, monitor status)
goes to stderr; stdout carries only the primary output of each command,
so pipelines like ``repro-dns monitor wh/ --alerts - | jq .`` stay clean.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from typing import Iterator, List, Optional

from repro.analysis.render import render_boxplot_rows, render_table
from repro.catalog.browsers import mainstream_hostnames
from repro.catalog.resolvers import CATALOG
from repro.core.probes import ProbeConfig, make_probe
from repro.core.results import ResultStore
from repro.core.runner import Campaign, CampaignConfig
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.transports import SESSION_TRANSPORTS, TRANSPORT_NAMES


def _record_stream(path: str) -> Iterator:
    """Stream records from a JSONL file or a warehouse directory.

    Commands taking ``--input`` accept either; both paths stream — the
    whole file is never loaded into memory.
    """
    if Path(path).is_dir():
        from repro.store import Warehouse

        return Warehouse.open(path).iter_records()
    from repro.core.results import ResultStore

    return ResultStore.iter_jsonl(path)


def _status(message: str) -> None:
    """Interactive chatter: stderr, never stdout."""
    print(message, file=sys.stderr)


def _load_policy(spec: Optional[str]):
    """An SLO policy from ``--slo``: a TOML/JSON path, or ``default``."""
    from repro.monitor import SloPolicy, default_policy

    if spec is None or spec == "default":
        return default_policy()
    return SloPolicy.load(spec)


def _write_alert_artifacts(monitor, alerts_dir: str) -> None:
    """Write alerts.jsonl + scoreboard.txt + verdicts.json under a directory."""
    import json as _json

    directory = Path(alerts_dir)
    directory.mkdir(parents=True, exist_ok=True)
    monitor.alerts.save_jsonl(directory / "alerts.jsonl")
    (directory / "scoreboard.txt").write_text(
        monitor.scoreboard().render() + "\n", encoding="utf-8"
    )
    (directory / "verdicts.json").write_text(
        _json.dumps(
            [verdict.to_dict() for verdict in monitor.verdicts()],
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    _status(
        f"wrote {len(monitor.alerts)} alerts, scoreboard and "
        f"{len(monitor.verdicts())} verdicts to {directory}"
    )


def _cmd_list(args: argparse.Namespace) -> int:
    entries = CATALOG
    if args.region:
        entries = [e for e in entries if e.region == args.region]
    if args.mainstream:
        entries = [e for e in entries if e.mainstream]
    header = ("hostname", "region", "operator", "sites", "anycast", "mainstream")
    rows = [
        (
            e.hostname,
            e.region or "(unlocatable)",
            e.operator,
            ",".join(e.cities),
            "yes" if e.anycast else "",
            "yes" if e.mainstream else "",
        )
        for e in entries
    ]
    print(render_table(header, rows))
    print(f"{len(rows)} resolvers")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    from repro.core.runner import RetryPolicy, RoundProgress
    from repro.experiments.world import build_world
    from repro.obs import MetricsRegistry, SpanCollector

    if args.workers is not None:
        return _measure_parallel(args)

    world = build_world(seed=args.seed)
    vantages = [world.vantage(name) for name in args.vantage]
    schedule = PeriodicSchedule(
        rounds=args.rounds, interval_ms=args.interval_hours * MS_PER_HOUR
    )
    config = CampaignConfig(
        name=args.name,
        schedule=schedule,
        probe_config=ProbeConfig(method=args.method),
        retry=RetryPolicy(attempts=args.attempts),
        seed=args.seed,
    )
    targets = world.targets(args.resolver or None)
    if args.faults:
        from repro.faults import FaultPlan, FaultPlanConfig, inject_faults

        plan = FaultPlan.generate(
            [target.hostname for target in targets],
            horizon_ms=schedule.total_span_ms + schedule.interval_ms,
            seed=args.fault_seed,
            config=FaultPlanConfig(impaired_time_fraction=args.fault_fraction),
        )
        injector = inject_faults(
            world.network,
            [world.deployments[target.hostname] for target in targets],
            plan,
        )
        _status(f"armed fault plan: {plan.describe()}")
        _status(f"injector: {injector.describe()}")
    recorder = SpanCollector() if args.trace else None
    metrics = (
        MetricsRegistry(enabled=True) if (args.metrics or args.progress) else None
    )
    on_round = (
        (lambda progress: _status(progress.describe())) if args.progress else None
    )
    monitor = None
    if args.slo or args.alerts:
        from repro.monitor import Monitor

        monitor = Monitor(_load_policy(args.slo))
    sink = None
    if args.store:
        import shutil

        from repro.store import StoreSink, Warehouse

        staging = Path(args.store) / ".staging" / "serial"
        sink = StoreSink(
            Warehouse(staging),
            segment_records=args.segment_records,
            metrics=metrics,
        )
    store = _run_instrumented(
        Campaign(
            network=world.network,
            vantages=vantages,
            targets=targets,
            config=config,
            store=sink,
            recorder=recorder,
            monitor=monitor,
            on_round_complete=on_round,
        ),
        metrics,
    )
    if monitor is not None:
        monitor.finalize(metrics)
    if sink is not None:
        warehouse = Warehouse.build_canonical(
            [sink.close()], args.store, segment_records=args.segment_records
        )
        shutil.rmtree(Path(args.store) / ".staging", ignore_errors=True)
        print(f"wrote {len(warehouse)} records to warehouse {args.store}")
        print(warehouse.describe())
    else:
        count = store.save_jsonl(args.output)
        print(f"wrote {count} records to {args.output}")
    if recorder is not None:
        spans = recorder.save_jsonl(args.trace)
        print(f"wrote {spans} spans to {args.trace}")
    if args.metrics and metrics is not None:
        metrics.save_json(args.metrics)
        print(f"wrote metrics to {args.metrics}")
    if monitor is not None:
        if args.alerts:
            _write_alert_artifacts(monitor, args.alerts)
        print(monitor.scoreboard().render())
    if args.faults:
        if sink is not None:
            from repro.store import availability_from_aggregates

            availability = availability_from_aggregates(warehouse.aggregates())
        else:
            from repro.analysis.availability import availability_report

            availability = availability_report(store)
        print(availability.describe())
    return 0


def _measure_parallel(args: argparse.Namespace) -> int:
    """``measure --workers N``: the sharded execution path.

    Both ``--workers 1`` and ``--workers 4`` run the same shard plan
    through :func:`repro.parallel.run_parallel`, so the written artifacts
    are byte-identical across worker counts for the same seed.
    """
    from repro.analysis.export import export_parallel_run
    from repro.core.runner import RetryPolicy
    from repro.experiments.campaigns import _catalog_hostnames, run_campaign_parallel
    from repro.parallel import SHARD_STRATEGIES

    if args.workers < 1:
        print(f"--workers must be >= 1 (got {args.workers})", file=sys.stderr)
        return 2
    if args.shard_by not in SHARD_STRATEGIES:
        print(
            f"--shard-by must be one of {sorted(SHARD_STRATEGIES)}",
            file=sys.stderr,
        )
        return 2

    schedule = PeriodicSchedule(
        rounds=args.rounds, interval_ms=args.interval_hours * MS_PER_HOUR
    )
    config = CampaignConfig(
        name=args.name,
        schedule=schedule,
        probe_config=ProbeConfig(method=args.method),
        retry=RetryPolicy(attempts=args.attempts),
        seed=args.seed,
    )
    hostnames = _catalog_hostnames(args.resolver or None)

    fault_plan = None
    if args.faults:
        from repro.faults import FaultPlan, FaultPlanConfig

        fault_plan = FaultPlan.generate(
            hostnames,
            horizon_ms=schedule.total_span_ms + schedule.interval_ms,
            seed=args.fault_seed,
            config=FaultPlanConfig(impaired_time_fraction=args.fault_fraction),
        )
        _status(f"armed fault plan: {fault_plan.describe()}")

    slo_policy = _load_policy(args.slo) if (args.slo or args.alerts) else None
    run = run_campaign_parallel(
        config,
        args.vantage,
        hostnames,
        world_seed=args.seed,
        workers=args.workers,
        shard_by=args.shard_by,
        shards=args.shards,
        fault_plan=fault_plan,
        collect_spans=bool(args.trace),
        collect_metrics=bool(args.metrics),
        store_dir=args.store or None,
        segment_records=args.segment_records,
        slo_policy=slo_policy,
    )
    _status(run.describe())
    if args.progress:
        for result in run.shard_results:
            _status(
                f"  shard {result.shard_index} [{result.shard_key}]: "
                f"{result.record_count} records, {result.wall_seconds:.2f}s"
            )
    if run.warehouse is not None:
        print(f"wrote {len(run.warehouse)} records to warehouse {args.store}")
        if args.trace:
            spans = run.spans.save_jsonl(args.trace)
            print(f"wrote {spans} spans to {args.trace}")
        if args.metrics:
            run.metrics.save_json(args.metrics)
            print(f"wrote metrics to {args.metrics}")
    else:
        written = export_parallel_run(
            run,
            args.output,
            spans_path=args.trace or None,
            metrics_path=args.metrics or None,
        )
        print(f"wrote {written['records']} records to {args.output}")
        if args.trace:
            print(f"wrote {written['spans']} spans to {args.trace}")
        if args.metrics:
            print(f"wrote metrics to {args.metrics}")
    if run.monitor is not None:
        if args.alerts:
            _write_alert_artifacts(run.monitor, args.alerts)
        print(run.monitor.scoreboard().render())
    if args.faults:
        if run.warehouse is not None:
            from repro.store import availability_from_aggregates

            print(availability_from_aggregates(run.warehouse.aggregates()).describe())
        else:
            from repro.analysis.availability import availability_report

            print(availability_report(run.store).describe())
    return 0


def _run_instrumented(campaign: Campaign, metrics) -> ResultStore:
    """Run a campaign, installing ``metrics`` ambiently if given.

    The registry must be ambient (not just passed to the campaign) so the
    protocol layers — TLS, HTTP, QUIC, the network fabric — report into it.
    """
    if metrics is None:
        return campaign.run()
    from repro.obs import NULL_RECORDER, tracing

    # The campaign's explicit recorder (if any) already wins over the
    # ambient one; install NULL ambiently so spans stay off unless asked.
    ambient_recorder = campaign._recorder if campaign._recorder is not None else NULL_RECORDER
    with tracing(recorder=ambient_recorder, metrics=metrics):
        return campaign.run()


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.paper import generate_report
    from repro.obs import NULL_RECORDER, MetricsRegistry, SpanCollector, tracing

    recorder = SpanCollector() if args.trace else NULL_RECORDER
    metrics = MetricsRegistry(enabled=bool(args.metrics))
    with tracing(recorder=recorder, metrics=metrics):
        report = generate_report(
            home_rounds=args.home_rounds, ec2_rounds=args.ec2_rounds, seed=args.seed
        )
    print(report.describe())
    print()
    for table in ("table1", "table2", "table3"):
        print(report.rendered_tables[table])
        print()
    if args.phases and report.store is not None:
        _print_phase_tables(report.store)
    if args.trace:
        spans = recorder.save_jsonl(args.trace)
        print(f"wrote {spans} spans to {args.trace}")
    if args.metrics:
        metrics.save_json(args.metrics)
        print(f"wrote metrics to {args.metrics}")
    if args.output and report.store is not None:
        out = Path(args.output)
        if out.is_dir() or args.output.endswith(("/", "\\")):
            from repro.store import Warehouse

            warehouse = Warehouse.from_records(report.store.records, out)
            print(f"wrote {len(warehouse)} records to warehouse {out}")
        else:
            report.store.save_jsonl(args.output)
            print(f"wrote {len(report.store)} records to {args.output}")
    return 0 if report.holds_count == len(report.claims) else 1


def _print_phase_tables(store: ResultStore, near: str = "ec2-frankfurt",
                        far: str = "ec2-seoul") -> None:
    """Phase attribution: far-vs-near deltas plus error breakdown."""
    from repro.analysis.phases import (
        error_phases,
        phase_deltas,
        render_error_phases,
        render_phase_delta_table,
    )

    non_mainstream_unicast = [
        e.hostname for e in CATALOG
        if not e.mainstream and not e.anycast and e.region == "EU"
    ]
    deltas = phase_deltas(store, non_mainstream_unicast, near, far)
    if deltas:
        print(render_phase_delta_table(
            deltas,
            title=f"Phase attribution: non-mainstream unicast EU resolvers, "
                  f"{far} vs {near}",
        ))
        print()
    errors = error_phases(store)
    if errors:
        print(render_error_phases(errors))
        print()


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis.figures import paper_figure
    from repro.experiments.campaigns import HOME_VANTAGE_NAMES, run_study
    from repro.experiments.world import build_world

    if args.input and Path(args.input).is_dir():
        from repro.store import Warehouse

        store = Warehouse.open(args.input)
    elif args.input:
        store = ResultStore.load_jsonl(args.input)
    else:
        world = build_world(seed=args.seed)
        store = run_study(world, home_rounds=args.rounds, ec2_rounds=args.rounds)
    panels = paper_figure(
        store, args.figure, mainstream_hostnames(), home_vantages=HOME_VANTAGE_NAMES
    )
    for vantage, rows in panels.items():
        print(f"=== {args.figure} / {vantage} ===")
        print(render_boxplot_rows(rows, include_ping=args.ping))
        print()
    if args.csv:
        from repro.analysis.export import figure_rows_to_csv, write_csv

        path = write_csv(figure_rows_to_csv(panels), args.csv)
        print(f"wrote CSV to {path}")
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    from repro.analysis.correlation import latency_correlations_from_records

    # One streaming pass: the input (JSONL file or warehouse directory) is
    # never loaded whole into memory.
    correlations = latency_correlations_from_records(
        _record_stream(args.input), vantages=args.vantage or None
    )
    for vantage, outcome in correlations.items():
        if isinstance(outcome, Exception):  # thin data for this vantage
            print(f"{vantage}: {outcome}")
        else:
            print(outcome.describe())
    return 0


def _cmd_drift(args: argparse.Namespace) -> int:
    from repro.analysis.longitudinal import drift_reports_from_records

    reports = drift_reports_from_records(
        _record_stream(args.input), vantage=args.vantage
    )
    stable = True
    for report in reports:
        print(report.describe())
        stable = stable and not report.drifted
    return 0 if stable else 1


def _cmd_diff(args: argparse.Namespace) -> int:
    """``diff`` — cross-resolver answer differencing (respdiff-style).

    Two modes: with ``--input`` the report is built from saved records
    (JSONL file or warehouse directory, streamed); without it a
    same-query fan-out campaign runs first, serial or sharded.  The
    report text on stdout is deterministic — byte-identical across
    worker counts and record sources for a fixed seed.
    """
    from repro.diff import AnswerFaultPlan, build_diff_report, verify_reproducibility
    from repro.errors import DiffInputError
    from repro.experiments.campaigns import (
        _catalog_hostnames,
        diff_campaign_config,
        run_diff_campaign,
    )

    if args.workers < 1:
        print(f"--workers must be >= 1 (got {args.workers})", file=sys.stderr)
        return 2
    if args.verify < 0:
        print(f"--verify must be >= 0 (got {args.verify})", file=sys.stderr)
        return 2

    hostnames = _catalog_hostnames(args.resolver or None)
    config = diff_campaign_config(
        rounds=args.rounds,
        seed=args.seed,
        domains=args.domain or None,
        transport=args.transport,
    )
    fault_plan = None
    if args.faults:
        fault_plan = AnswerFaultPlan.generate(
            hostnames,
            list(config.domains),
            seed=args.fault_seed,
            per_kind=args.faults_per_kind,
        )
        _status(f"armed answer faults:\n{fault_plan.describe()}")

    if args.input:
        records = _record_stream(args.input)
    else:
        run = run_diff_campaign(
            world_seed=args.world_seed,
            rounds=args.rounds,
            seed=args.seed,
            domains=args.domain or None,
            transport=args.transport,
            vantage_names=args.vantage or None,
            target_hostnames=hostnames,
            workers=args.workers,
            shard_by=args.shard_by,
            shards=args.shards,
            answer_fault_plan=fault_plan,
            store_dir=args.store or None,
            segment_records=args.segment_records,
        )
        _status(run.describe())
        records = (
            run.warehouse.iter_records()
            if run.warehouse is not None
            else run.store.records
        )

    try:
        report = build_diff_report(records)
    except DiffInputError as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2

    if args.verify:
        from repro.experiments.world import build_world

        world = build_world(seed=args.world_seed, warm_caches=True)
        if fault_plan is not None:
            # The verify world must serve the same (faulted) answers the
            # campaign world did, or injected faults would read transient.
            fault_plan.install(
                world.deployments[hostname]
                for hostname in hostnames
                if hostname in world.deployments
            )
        verify_reproducibility(world, report, attempts=args.verify, seed=args.verify_seed)
        _status(f"verified {len(report.disagreements())} disagreements "
                f"x{args.verify} re-queries")

    if args.output:
        Path(args.output).write_text(report.to_jsonl(), encoding="utf-8")
        _status(f"wrote {len(report)} diff records to {args.output}")
    print(report.render(), end="")
    return 0


def _cmd_sessions(args: argparse.Namespace) -> int:
    """``sessions`` — the transport × session-policy scenario matrix.

    Runs the same campaign once per policy (same seed, schedule and
    world, so per-measurement RNG streams are identical across policies)
    and prints the study tables.  With ``--gate`` the exit status
    becomes a regression check: 0 only if the warm-path p95 beats the
    within-run cold-path p95 for both DoH and DoQ under every policy
    that produced a warm path.
    """
    from repro.analysis.sessions import session_report, warm_cold_deltas
    from repro.experiments.campaigns import SESSION_STUDY_POLICIES, run_sessions_study

    if args.workers < 1:
        print(f"--workers must be >= 1 (got {args.workers})", file=sys.stderr)
        return 2

    runs = run_sessions_study(
        policies=tuple(args.policy) if args.policy else SESSION_STUDY_POLICIES,
        world_seed=args.world_seed,
        rounds=args.rounds,
        seed=args.seed,
        transports=tuple(args.transport),
        domains=args.domain or None,
        vantage_names=args.vantage or None,
        target_hostnames=args.resolver or None,
        workers=args.workers,
        shard_by=args.shard_by,
        shards=args.shards,
        store_dir=args.store or None,
        segment_records=args.segment_records,
    )
    for name, run in runs.items():
        _status(f"{name}: {run.describe()}")

    report = session_report(runs, per_vantage=args.per_vantage)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        _status(f"wrote session report to {args.output}")
    print(report)

    if not args.gate:
        return 0
    deltas = warm_cold_deltas(runs)
    gated = tuple(args.gate_transport)
    failed = False
    for transport in gated:
        rows = [d for d in deltas if d.transport == transport]
        if not rows:
            _status(f"gate: {transport}: FAIL (no warm-path records)")
            failed = True
            continue
        for row in rows:
            verdict = "ok" if row.warm_faster else "FAIL"
            _status(
                f"gate: {transport}/{row.policy}: {verdict} "
                f"(warm p95 {row.warm_p95_ms:.1f} ms vs "
                f"cold p95 {row.cold_p95_ms:.1f} ms)"
            )
            failed = failed or not row.warm_faster
    return 1 if failed else 0


def _cmd_store(args: argparse.Namespace) -> int:
    """``store`` — inspect, compact or summarize a results warehouse."""
    from repro.store import Warehouse, response_time_summaries

    warehouse = Warehouse.open(args.store_dir)
    if args.action == "info":
        info = warehouse.info()
        print(warehouse.describe())
        print(f"  segment size: {info['segment_records']} records")
        print(f"  groups: {info['groups']} (vantage x resolver x transport)")
        print(f"  vantages: {', '.join(info['vantages'])}")
        return 0
    if args.action == "compact":
        before = warehouse.info()
        warehouse.compact(segment_records=args.segment_records)
        after = warehouse.info()
        print(
            f"compacted {after['records']} records: "
            f"{before['segments']} -> {after['segments']} segments, "
            f"canonical={after['canonical']}"
        )
        return 0
    # summarize: availability + response-time tables straight from the
    # persisted aggregates — no record scan.
    from repro.store import (
        availability_from_aggregates,
        per_resolver_availability_from_aggregates,
    )

    book = warehouse.aggregates()
    availability = availability_from_aggregates(book, vantage=args.vantage)
    print(availability.describe())
    print()
    rates = per_resolver_availability_from_aggregates(book, vantage=args.vantage)
    summaries = response_time_summaries(book, vantage=args.vantage)
    header = ("resolver", "avail", "n", "mean", "p50", "p95", "p99")
    rows = []
    for resolver in sorted(rates):
        summary = summaries.get(resolver)
        rows.append(
            (
                resolver,
                f"{rates[resolver]:.1%}",
                str(summary.count) if summary else "0",
                f"{summary.mean_ms:.1f}" if summary else "-",
                f"{summary.p50_ms:.1f}" if summary else "-",
                f"{summary.p95_ms:.1f}" if summary else "-",
                f"{summary.p99_ms:.1f}" if summary else "-",
            )
        )
    print(render_table(header, rows))
    print(f"{len(rows)} resolvers (served from aggregates, no record scan)")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """``monitor`` — SLO evaluation over saved results.

    Replays the input (JSONL file or warehouse directory) through the
    streaming monitor, reproducing exactly the alerts a live-monitored
    run of those records would have raised, and prints the health
    scoreboard.  ``--from-aggregates`` skips the record replay and
    evaluates final verdicts straight from the warehouse's persisted
    aggregates (no alerts in that mode — windows need the record stream).
    """
    import json as _json

    from repro.monitor import Monitor, Scoreboard, verdicts_from_book

    policy = _load_policy(args.slo)

    if args.from_aggregates:
        if not Path(args.input).is_dir():
            print(
                "--from-aggregates needs a warehouse directory input",
                file=sys.stderr,
            )
            return 2
        from repro.store import Warehouse

        book = Warehouse.open(args.input).aggregates()
        verdicts = verdicts_from_book(book, policy)
        scoreboard = Scoreboard.from_verdicts(verdicts)
        monitor = None
        _status(
            f"evaluated {len(verdicts)} verdicts from persisted aggregates "
            f"({len(book)} groups, no record scan)"
        )
    else:
        monitor = Monitor(policy)
        monitor.replay(_record_stream(args.input))
        monitor.finalize()
        verdicts = monitor.verdicts()
        scoreboard = monitor.scoreboard()
        _status(
            f"replayed {monitor.records_seen} records: "
            f"{len(monitor.alerts)} alerts, {len(verdicts)} verdicts"
        )

    if args.alerts and monitor is not None:
        if args.alerts == "-":
            # Alert JSONL owns stdout; the scoreboard moves to stderr.
            sys.stdout.write(monitor.alerts.to_jsonl())
        else:
            monitor.alerts.save_jsonl(args.alerts)
            _status(f"wrote {len(monitor.alerts)} alerts to {args.alerts}")
    if args.verdicts:
        Path(args.verdicts).parent.mkdir(parents=True, exist_ok=True)
        Path(args.verdicts).write_text(
            _json.dumps([v.to_dict() for v in verdicts], indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        _status(f"wrote {len(verdicts)} verdicts to {args.verdicts}")

    table = scoreboard.render()
    if args.alerts == "-":
        _status(table)
    else:
        print(table)
    counts = scoreboard.counts()
    _status(
        f"scoreboard: {counts['OK']} ok, {counts['DEGRADED']} degraded, "
        f"{counts['FAILING']} failing"
    )
    if args.gate and scoreboard.worst_state() != "OK":
        _status(f"gate: worst state {scoreboard.worst_state()} -> failing")
        return 1
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    """``observe`` — the longitudinal observer fleet.

    Two modes, mirroring ``diff``: with ``--input`` the fleet replays
    saved results (JSONL file or warehouse directory, streamed); without
    it the months-long observatory campaign runs first, serial or
    sharded.  The significance-event JSONL and the world-health index
    JSONL are byte-identical for any ``--workers N`` and for any record
    source over the same records.
    """
    from repro.errors import ObserverConfigError
    from repro.experiments.observatory import run_observer_study
    from repro.obs.metrics import MetricsRegistry
    from repro.observers import (
        ObserverFleet,
        ObserverRegistry,
        default_registry,
        scaled_registry,
    )

    if args.workers < 1:
        print(f"--workers must be >= 1 (got {args.workers})", file=sys.stderr)
        return 2
    if args.events == "-" and args.index == "-":
        print(
            "--events - and --index - cannot both own stdout; "
            "write at least one of them to a file",
            file=sys.stderr,
        )
        return 2

    try:
        if args.spec:
            registry = ObserverRegistry.load(args.spec)
        elif args.min_samples_scale != 1.0:
            registry = scaled_registry(args.min_samples_scale)
        else:
            registry = default_registry()
        specs = registry.select(args.observers or None)
    except ObserverConfigError as exc:
        print(f"observe: {exc}", file=sys.stderr)
        return 2

    run = None
    if args.input:
        records = _record_stream(args.input)
        metrics = MetricsRegistry()
    else:
        run = run_observer_study(
            world_seed=args.world_seed,
            months=args.months,
            rounds_per_month=args.rounds,
            seed=args.seed,
            vantage_names=args.vantage or None,
            target_hostnames=args.resolver or None,
            workers=args.workers,
            shard_by=args.shard_by,
            shards=args.shards,
            fault_seed=args.fault_seed if args.faults else None,
            fault_fraction=args.fault_fraction,
            collect_metrics=bool(args.metrics),
            store_dir=args.store or None,
            segment_records=args.segment_records,
        )
        _status(run.describe())
        records = (
            run.warehouse.iter_sorted()
            if run.warehouse is not None
            else run.store.records
        )
        # The merged registry is disabled when shards didn't collect; the
        # observer gauges still need a live registry of their own then.
        metrics = run.metrics if run.metrics.enabled else MetricsRegistry()

    fleet = ObserverFleet(specs)
    fleet.replay(records)
    report = fleet.finalize(metrics)
    _status(
        f"observed {report.records_seen} records over {report.days_observed} "
        f"virtual days: {len(report.events.significant())} events, "
        f"{len(report.events.silences())} silences"
    )

    stdout_taken = False
    if args.events:
        if args.events == "-":
            sys.stdout.write(report.events.to_jsonl())
            stdout_taken = True
        else:
            report.events.save_jsonl(args.events)
            _status(f"wrote {len(report.events)} events to {args.events}")
    if args.index:
        if args.index == "-":
            sys.stdout.write(report.index.to_jsonl())
            stdout_taken = True
        else:
            report.index.save_jsonl(args.index)
            _status(f"wrote {len(report.index)} health samples to {args.index}")
    if args.metrics:
        metrics.save_json(args.metrics)
        _status(f"wrote metrics to {args.metrics}")

    # The summary owns stdout unless an artifact already claimed it.
    summary = report.render()
    if stdout_taken:
        _status(summary)
    else:
        print(summary)

    if args.gate and not report.index.healthy(args.gate_floor):
        low = report.index.min_score()
        _status(
            f"gate: world-health index dipped to {low:.1f} "
            f"(< floor {args.gate_floor:.1f}) -> failing"
        )
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``metrics export`` — Prometheus text from a saved metrics JSON file.

    Accepts both a lossless state dump (``save_state_json``: full
    histogram buckets) and a snapshot (``--metrics``/``save_json``:
    quantile estimates, exposed as summaries).
    """
    import json as _json

    from repro.obs.metrics import exposition_from_dump

    try:
        data = _json.loads(Path(args.input).read_text(encoding="utf-8"))
        text = exposition_from_dump(data)
    except (OSError, ValueError) as exc:
        print(f"unreadable metrics file {args.input}: {exc}", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(text, encoding="utf-8")
        _status(f"wrote {len(text.splitlines())} exposition lines to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_stamp(args: argparse.Namespace) -> int:
    from repro.catalog.resolvers import entry_for
    from repro.catalog.stamps import decode_stamp, doh_stamp, encode_stamp

    if args.decode:
        stamp = decode_stamp(args.resolver)
        print(f"protocol: {stamp.protocol_name}")
        print(f"hostname: {stamp.hostname or '(none)'}")
        print(f"address:  {stamp.address or '(none)'}")
        print(f"path:     {stamp.path or '(none)'}")
        flags = [
            name for name, on in (
                ("dnssec", stamp.dnssec),
                ("no-logs", stamp.no_logs),
                ("no-filter", stamp.no_filter),
            ) if on
        ]
        print(f"props:    {', '.join(flags) or '(none)'}")
        return 0
    entry = entry_for(args.resolver)
    print(encode_stamp(doh_stamp(hostname=entry.hostname)))
    return 0


def _cmd_run_config(args: argparse.Namespace) -> int:
    from repro.core.platform import build_campaign, load_spec
    from repro.experiments.world import build_world

    spec = load_spec(args.config)
    world = build_world(seed=spec["seed"])
    store = build_campaign(world, spec).run()
    output = args.output or f"{spec['name']}.jsonl"
    count = store.save_jsonl(output)
    print(f"campaign {spec['name']!r}: wrote {count} records to {output}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.world import build_world
    from repro.obs import MetricsRegistry, SpanCollector, tracing

    world = build_world(seed=args.seed)
    vantages = [world.vantage(name) for name in args.vantage]
    targets = world.targets(args.resolver or None)
    schedule = PeriodicSchedule(
        rounds=args.rounds, interval_ms=args.interval_hours * MS_PER_HOUR
    )
    config = CampaignConfig(
        name=args.name,
        schedule=schedule,
        transport=args.transport,
        seed=args.seed,
    )
    recorder = SpanCollector()
    metrics = MetricsRegistry(enabled=True)
    with tracing(recorder=recorder, metrics=metrics):
        store = Campaign(
            network=world.network,
            vantages=vantages,
            targets=targets,
            config=config,
            recorder=recorder,
            metrics=metrics,
        ).run()
    print(
        f"traced {len(store)} records: {len(recorder)} spans, "
        f"{len(recorder.roots())} roots"
    )
    if args.output:
        spans = recorder.save_jsonl(args.output)
        print(f"wrote {spans} spans to {args.output}")
    if args.tree:
        print(recorder.render_tree(max_spans=args.max_spans))
    if args.metrics_output:
        metrics.save_json(args.metrics_output)
        print(f"wrote metrics to {args.metrics_output}")
    if args.summary:
        print(metrics.summary())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.experiments.world import build_world

    world = build_world(seed=args.seed)
    vantage = world.vantage(args.vantage)
    deployment = world.deployment(args.resolver)
    probe = make_probe(
        "doh",
        vantage.host,
        deployment.service_ip,
        deployment.hostname,
        ProbeConfig(method=args.method),
        rng=random.Random(args.seed),
    )
    outcomes = []
    probe.query(args.domain, outcomes.append)
    world.network.run()
    outcome = outcomes[0]
    if outcome.success:
        print(f";; {args.domain} via {args.resolver} from {args.vantage}")
        print(f";; response time: {outcome.duration_ms:.1f} ms "
              f"({outcome.http_version}, TLS {outcome.tls_version})")
        for address in outcome.answers:
            print(f"{args.domain}.\tA\t{address}")
        return 0
    print(f";; FAILED: {outcome.error_class} ({outcome.error_detail})")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dns",
        description="Encrypted-DNS resolver measurement platform (simulated world)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the resolver catalog")
    p_list.add_argument("--region", choices=["NA", "EU", "AS", "OC"])
    p_list.add_argument("--mainstream", action="store_true")
    p_list.set_defaults(func=_cmd_list)

    p_measure = sub.add_parser("measure", help="run a measurement campaign")
    p_measure.add_argument("--name", default="cli-campaign")
    p_measure.add_argument("--vantage", nargs="+", default=["ec2-ohio"])
    p_measure.add_argument("--resolver", nargs="*", help="hostnames (default: all)")
    p_measure.add_argument("--rounds", type=int, default=5)
    p_measure.add_argument("--interval-hours", type=float, default=8.0)
    p_measure.add_argument("--method", choices=["POST", "GET"], default="POST")
    p_measure.add_argument("--seed", type=int, default=0)
    p_measure.add_argument("--output", default="results.jsonl")
    p_measure.add_argument(
        "--store", metavar="DIR",
        help="stream records into a results warehouse at DIR instead of "
             "writing --output JSONL; bounded memory, canonical segments, "
             "aggregates persisted alongside (see the 'store' subcommand)",
    )
    p_measure.add_argument(
        "--segment-records", type=int, default=4096, metavar="N",
        help="records per warehouse segment for --store (default: 4096)",
    )
    p_measure.add_argument(
        "--attempts", type=int, default=1,
        help="total tries per query (retries with exponential backoff)",
    )
    p_measure.add_argument(
        "--faults", action="store_true",
        help="inject a seeded fault plan (outages, TLS windows, loss/latency spikes)",
    )
    p_measure.add_argument(
        "--fault-seed", type=int, default=20230919,
        help="seed of the generated fault plan",
    )
    p_measure.add_argument(
        "--fault-fraction", type=float, default=0.030,
        help="expected fraction of each resolver's time under a fault window",
    )
    p_measure.add_argument(
        "--trace", metavar="PATH",
        help="collect phase-level spans and write them as JSONL",
    )
    p_measure.add_argument(
        "--metrics", metavar="PATH",
        help="collect stack-wide metrics and write a JSON snapshot",
    )
    p_measure.add_argument(
        "--progress", action="store_true",
        help="print one structured line per completed round (to stderr)",
    )
    p_measure.add_argument(
        "--slo", metavar="FILE",
        help="monitor the campaign live against an SLO policy (TOML/JSON "
             "file, or the literal 'default' for paper-derived baselines); "
             "prints the health scoreboard after the run",
    )
    p_measure.add_argument(
        "--alerts", metavar="DIR",
        help="write monitoring artifacts (alerts.jsonl, scoreboard.txt, "
             "verdicts.json) under DIR; implies --slo default if --slo "
             "is not given",
    )
    p_measure.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run the campaign sharded across N worker processes; the "
             "written artifacts are byte-identical for any N given the "
             "same seed (--workers 1 is the serial reference run)",
    )
    p_measure.add_argument(
        "--shard-by", choices=["vantage", "resolver", "round"],
        default="resolver",
        help="shard axis for --workers (default: resolver cohorts)",
    )
    p_measure.add_argument(
        "--shards", type=int, default=None, metavar="K",
        help="shard count for --workers (default: one per vantage, or "
             "8 cohorts/spans for resolver/round sharding)",
    )
    p_measure.set_defaults(func=_cmd_measure)

    p_report = sub.add_parser("report", help="full paper-vs-measured report")
    p_report.add_argument("--home-rounds", type=int, default=12)
    p_report.add_argument("--ec2-rounds", type=int, default=10)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument(
        "--output",
        help="also write raw records: a JSONL file, or a results warehouse "
             "when the path is an existing directory (or ends with a "
             "path separator)",
    )
    p_report.add_argument(
        "--phases", action="store_true",
        help="print the phase-attribution tables (establishment vs query)",
    )
    p_report.add_argument(
        "--trace", metavar="PATH",
        help="collect phase-level spans during the study and write JSONL",
    )
    p_report.add_argument(
        "--metrics", metavar="PATH",
        help="collect stack-wide metrics during the study and write JSON",
    )
    p_report.set_defaults(func=_cmd_report)

    p_figure = sub.add_parser("figure", help="render a paper figure")
    p_figure.add_argument("figure", choices=["figure1", "figure2", "figure3", "figure4"])
    p_figure.add_argument(
        "--input",
        help="results to analyse: JSONL file or warehouse directory "
             "(else simulate)",
    )
    p_figure.add_argument("--rounds", type=int, default=8)
    p_figure.add_argument("--seed", type=int, default=0)
    p_figure.add_argument("--ping", action="store_true", help="include ping rows")
    p_figure.add_argument("--csv", help="also export the panels as CSV")
    p_figure.set_defaults(func=_cmd_figure)

    p_corr = sub.add_parser("correlate", help="ping-vs-DNS relationship from saved results")
    p_corr.add_argument(
        "--input", required=True,
        help="JSONL results or warehouse directory (streamed)",
    )
    p_corr.add_argument("--vantage", nargs="*", help="vantage names (default: all)")
    p_corr.set_defaults(func=_cmd_correlate)

    p_drift = sub.add_parser("drift", help="longitudinal drift from saved results")
    p_drift.add_argument(
        "--input", required=True,
        help="JSONL results or warehouse directory with >= 2 campaigns (streamed)",
    )
    p_drift.add_argument("--vantage", help="restrict to one vantage")
    p_drift.set_defaults(func=_cmd_drift)

    p_diff = sub.add_parser(
        "diff", help="cross-resolver answer differencing (respdiff-style)"
    )
    p_diff.add_argument(
        "--input", metavar="PATH",
        help="analyse saved results (JSONL file or warehouse directory, "
             "streamed) instead of running a campaign; records need "
             "captured responses (measure with capture enabled)",
    )
    p_diff.add_argument("--rounds", type=int, default=2)
    p_diff.add_argument("--seed", type=int, default=505, help="campaign seed")
    p_diff.add_argument("--world-seed", type=int, default=0)
    p_diff.add_argument(
        "--vantage", nargs="+", default=None,
        help="vantage names (default: the three EC2 vantages)",
    )
    p_diff.add_argument("--resolver", nargs="*", help="hostnames (default: all)")
    p_diff.add_argument(
        "--domain", nargs="*",
        help="query domains (default: the campaign's study domains)",
    )
    p_diff.add_argument(
        "--transport", choices=TRANSPORT_NAMES, default="doh",
    )
    p_diff.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the fan-out across N worker processes; the report is "
             "byte-identical for any N given the same seed",
    )
    p_diff.add_argument(
        "--shard-by", choices=["vantage", "resolver", "round"], default="vantage",
    )
    p_diff.add_argument("--shards", type=int, default=None, metavar="K")
    p_diff.add_argument(
        "--store", metavar="DIR",
        help="stream campaign records into a results warehouse at DIR "
             "(the report is then built from the warehouse)",
    )
    p_diff.add_argument("--segment-records", type=int, default=4096, metavar="N")
    p_diff.add_argument(
        "--faults", action="store_true",
        help="inject a seeded answer-fault plan (nxdomain/servfail/rewrite/"
             "ttl/truncate) so the taxonomy has something to classify",
    )
    p_diff.add_argument("--fault-seed", type=int, default=20230919)
    p_diff.add_argument(
        "--faults-per-kind", type=int, default=1, metavar="N",
        help="how many (resolver, domain) cells get each fault kind",
    )
    p_diff.add_argument(
        "--verify", type=int, default=0, metavar="N",
        help="diffrepro pass: re-query each disagreement N times on a "
             "fresh world and label it reproducible or transient",
    )
    p_diff.add_argument("--verify-seed", type=int, default=0)
    p_diff.add_argument(
        "--output", metavar="PATH",
        help="also write the per-cell diff records as JSONL",
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_sessions = sub.add_parser(
        "sessions",
        help="transport x session-policy scenario matrix (reuse/resumption/0-RTT)",
    )
    p_sessions.add_argument(
        "--policy", nargs="+", default=None,
        choices=["cold", "keep-alive", "resumption", "zero-rtt"],
        help="policy presets to sweep (default: all four)",
    )
    p_sessions.add_argument(
        "--transport", nargs="+", default=list(SESSION_TRANSPORTS),
        choices=SESSION_TRANSPORTS,
        help="transports in the matrix (default: all session transports)",
    )
    p_sessions.add_argument("--rounds", type=int, default=3)
    p_sessions.add_argument("--seed", type=int, default=606, help="campaign seed")
    p_sessions.add_argument("--world-seed", type=int, default=0)
    p_sessions.add_argument(
        "--vantage", nargs="+", default=None,
        help="vantage names (default: the three EC2 vantages)",
    )
    p_sessions.add_argument(
        "--resolver", nargs="*",
        help="hostnames (default: the five deployments speaking all four "
             "session transports)",
    )
    p_sessions.add_argument(
        "--domain", nargs="*",
        help="query domains (default: the campaign's study domains)",
    )
    p_sessions.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard each policy run across N worker processes; the report "
             "is byte-identical for any N given the same seed",
    )
    p_sessions.add_argument(
        "--shard-by", choices=["vantage", "resolver", "round"], default="vantage",
    )
    p_sessions.add_argument("--shards", type=int, default=None, metavar="K")
    p_sessions.add_argument(
        "--store", metavar="DIR",
        help="stream each policy run into a per-policy warehouse under DIR "
             "(the report is then built from the warehouses)",
    )
    p_sessions.add_argument("--segment-records", type=int, default=4096, metavar="N")
    p_sessions.add_argument(
        "--per-vantage", action="store_true",
        help="break the scenario-matrix table down per vantage point",
    )
    p_sessions.add_argument(
        "--output", metavar="PATH", help="also write the report to PATH",
    )
    p_sessions.add_argument(
        "--gate", action="store_true",
        help="exit 1 unless warm-path p95 beats the within-run cold-path "
             "p95 for every gated transport under every warm policy",
    )
    p_sessions.add_argument(
        "--gate-transport", nargs="+", default=["doh", "doq"],
        choices=SESSION_TRANSPORTS,
        help="transports the --gate check covers (default: doh doq)",
    )
    p_sessions.set_defaults(func=_cmd_sessions)

    p_store = sub.add_parser("store", help="inspect or compact a results warehouse")
    p_store.add_argument(
        "action", choices=["info", "compact", "summarize"],
        help="info: manifest + layout; compact: rewrite in canonical order; "
             "summarize: availability/response-time tables from aggregates",
    )
    p_store.add_argument("store_dir", help="warehouse directory (from measure --store)")
    p_store.add_argument(
        "--segment-records", type=int, default=None, metavar="N",
        help="new segment size for compact (default: keep current)",
    )
    p_store.add_argument("--vantage", help="restrict summarize to one vantage")
    p_store.set_defaults(func=_cmd_store)

    p_monitor = sub.add_parser(
        "monitor", help="evaluate SLOs over saved results; alerts + scoreboard"
    )
    p_monitor.add_argument(
        "input", help="JSONL results file or warehouse directory"
    )
    p_monitor.add_argument(
        "--slo", metavar="FILE",
        help="SLO policy (TOML/JSON file; default: paper-derived baselines)",
    )
    p_monitor.add_argument(
        "--alerts", metavar="PATH",
        help="write the alert JSONL to PATH, or '-' for stdout (the "
             "scoreboard then moves to stderr, keeping stdout pure JSONL)",
    )
    p_monitor.add_argument(
        "--verdicts", metavar="PATH", help="write the verdicts JSON to PATH"
    )
    p_monitor.add_argument(
        "--from-aggregates", action="store_true",
        help="evaluate verdicts from the warehouse's persisted aggregates "
             "without replaying records (warehouse input only; no alerts)",
    )
    p_monitor.add_argument(
        "--gate", action="store_true",
        help="exit non-zero when any resolver is DEGRADED or FAILING",
    )
    p_monitor.set_defaults(func=_cmd_monitor)

    p_observe = sub.add_parser(
        "observe",
        help="longitudinal observer fleet: significance events + world health",
    )
    p_observe.add_argument(
        "--input", metavar="PATH",
        help="observe saved results (JSONL file or warehouse directory, "
             "streamed) instead of running the observatory campaign",
    )
    p_observe.add_argument(
        "--months", type=int, default=4,
        help="monthly measurement windows in the observatory campaign",
    )
    p_observe.add_argument(
        "--rounds", type=int, default=6, help="rounds per monthly window"
    )
    p_observe.add_argument("--seed", type=int, default=606, help="campaign seed")
    p_observe.add_argument("--world-seed", type=int, default=0)
    p_observe.add_argument(
        "--vantage", nargs="+", default=None,
        help="vantage names (default: the three EC2 vantages)",
    )
    p_observe.add_argument("--resolver", nargs="*", help="hostnames (default: all)")
    p_observe.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard the campaign across N worker processes; events and "
             "index are byte-identical for any N given the same seed",
    )
    p_observe.add_argument(
        "--shard-by", choices=["vantage", "resolver", "round"], default="vantage",
    )
    p_observe.add_argument("--shards", type=int, default=None, metavar="K")
    p_observe.add_argument(
        "--store", metavar="DIR",
        help="stream campaign records into a results warehouse at DIR "
             "(the fleet then replays the warehouse)",
    )
    p_observe.add_argument("--segment-records", type=int, default=4096, metavar="N")
    p_observe.add_argument(
        "--observers", nargs="+", metavar="NAME",
        help="restrict the fleet to these observers (default: all)",
    )
    p_observe.add_argument(
        "--spec", metavar="FILE",
        help="observer registry (TOML/JSON file; default: the built-in five)",
    )
    p_observe.add_argument(
        "--min-samples-scale", type=float, default=1.0, metavar="F",
        help="scale every observer's per-day sample gate (small demo "
             "campaigns need lower gates than a production stream)",
    )
    p_observe.add_argument(
        "--events", metavar="PATH",
        help="write the significance-event JSONL to PATH, or '-' for "
             "stdout (the summary then moves to stderr)",
    )
    p_observe.add_argument(
        "--index", metavar="PATH",
        help="write the world-health index JSONL to PATH, or '-' for stdout",
    )
    p_observe.add_argument(
        "--metrics", metavar="PATH",
        help="write a metrics JSON snapshot including observer.* gauges",
    )
    p_observe.add_argument(
        "--faults", action="store_true",
        help="inject a seeded fault plan spanning the whole horizon so "
             "availability and error-share observers have dips to find",
    )
    p_observe.add_argument("--fault-seed", type=int, default=20230919)
    p_observe.add_argument(
        "--fault-fraction", type=float, default=0.10,
        help="expected impaired time fraction of the fault plan",
    )
    p_observe.add_argument(
        "--gate", action="store_true",
        help="exit non-zero when the world-health index dips below the floor",
    )
    p_observe.add_argument(
        "--gate-floor", type=float, default=70.0, metavar="SCORE",
    )
    p_observe.set_defaults(func=_cmd_observe)

    p_metrics = sub.add_parser(
        "metrics", help="export saved metrics as Prometheus text"
    )
    metrics_sub = p_metrics.add_subparsers(dest="metrics_command", required=True)
    p_metrics_export = metrics_sub.add_parser(
        "export", help="Prometheus text exposition of a metrics JSON file"
    )
    p_metrics_export.add_argument(
        "--input", required=True,
        help="metrics JSON: a state dump (full buckets) or a snapshot",
    )
    p_metrics_export.add_argument(
        "--output", help="write the exposition to a file instead of stdout"
    )
    p_metrics_export.set_defaults(func=_cmd_metrics)

    p_stamp = sub.add_parser("stamp", help="DNS stamp for a resolver (or decode one)")
    p_stamp.add_argument("resolver", help="catalog hostname, or an sdns:// URI with --decode")
    p_stamp.add_argument("--decode", action="store_true")
    p_stamp.set_defaults(func=_cmd_stamp)

    p_config = sub.add_parser("run-config", help="run a JSON campaign spec")
    p_config.add_argument("config", help="path to the JSON spec")
    p_config.add_argument("--output", help="JSONL output (default: <name>.jsonl)")
    p_config.set_defaults(func=_cmd_run_config)

    p_trace = sub.add_parser(
        "trace", help="run a traced campaign; export phase-level spans"
    )
    p_trace.add_argument("--name", default="cli-trace")
    p_trace.add_argument("--vantage", nargs="+", default=["ec2-ohio"])
    p_trace.add_argument("--resolver", nargs="*", help="hostnames (default: all)")
    p_trace.add_argument("--rounds", type=int, default=1)
    p_trace.add_argument("--interval-hours", type=float, default=1.0)
    p_trace.add_argument(
        "--transport", choices=TRANSPORT_NAMES, default="doh"
    )
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument("--output", default="spans.jsonl", help="span JSONL path")
    p_trace.add_argument("--tree", action="store_true", help="print the span tree")
    p_trace.add_argument(
        "--max-spans", type=int, default=None,
        help="limit the printed tree to the first N spans",
    )
    p_trace.add_argument("--metrics-output", help="also write a metrics JSON snapshot")
    p_trace.add_argument(
        "--summary", action="store_true", help="print the metrics summary"
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_query = sub.add_parser("query", help="one DoH query, dig-style output")
    p_query.add_argument("resolver")
    p_query.add_argument("domain")
    p_query.add_argument("--vantage", default="ec2-ohio")
    p_query.add_argument("--method", choices=["POST", "GET"], default="POST")
    p_query.add_argument("--seed", type=int, default=0)
    p_query.set_defaults(func=_cmd_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
