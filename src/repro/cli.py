"""``repro-dns`` — command-line front end for the measurement platform.

Subcommands, in ``--help`` order:

* ``list`` — the resolver catalog (filter by region/mainstream);
* ``measure`` — one campaign, from flags or from a ``--spec`` campaign
  file (:mod:`repro.core.platform`), written as JSONL or a warehouse;
* ``report`` — the full study: the paper-vs-measured claims, Tables 1-3;
* ``figure`` — one of the paper's figures as ASCII boxplots;
* ``correlate`` / ``drift`` — ping-vs-DNS correlation and longitudinal
  drift from saved results;
* ``diff`` — cross-resolver answer differencing, live or from captures;
* ``sessions`` — the transport x session-policy scenario matrix;
* ``store`` — inspect, compact or summarize a results warehouse;
* ``monitor`` — SLO alerts, verdicts and a health scoreboard over results;
* ``observe`` — the longitudinal observer fleet and world-health index;
* ``metrics`` — a saved metrics JSON file as Prometheus text;
* ``stamp`` — a resolver's DNS stamp, or one decoded;
* ``trace`` — a small traced campaign's phase-level spans and span tree;
* ``query`` — one DoH query from a vantage point, dig-style.

Every command that runs a campaign hands its legs -- one
``(CampaignConfig, vantage names, target hostnames)`` triple per campaign
-- to :func:`repro.parallel.run_campaigns`; ``measure`` without
``--workers`` and ``--shards``, and ``trace``, ``report``, ``figure``,
``query`` and the re-query campaign of ``diff --verify`` always, run the
identity plan — one shard per campaign, in this process, on a fresh
world.  No command builds a world of its own.

Interactive chatter (progress lines, fault-plan notes, monitor status)
goes to stderr; stdout carries only the primary output of each command,
so pipelines like ``repro-dns monitor wh/ --alerts - | jq .`` stay clean.
A :class:`~repro.errors.ReproError` or ``OSError`` a command lets through
ends it with ``repro-dns <command>: <message>`` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.analysis.render import render_boxplot_rows, render_table
from repro.catalog.browsers import mainstream_hostnames
from repro.catalog.resolvers import CATALOG, CATALOG_HOSTNAMES
from repro.core.probes import ProbeConfig
from repro.core.results import ResultStore
from repro.core.runner import CampaignConfig, RetryPolicy
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.errors import (
    CampaignConfigError,
    MonitorConfigError,
    ObserverConfigError,
    ReproError,
    ResultsFormatError,
)
from repro.files import read_document, write_text
from repro.parallel import run_campaigns
from repro.store import DEFAULT_SEGMENT_RECORDS
from repro.transports import SESSION_TRANSPORTS, TRANSPORT_NAMES


def _record_stream(path: str) -> Iterator:
    """Stream records from a JSONL file or a warehouse directory.

    Commands taking ``--input`` accept either; both paths stream — the
    whole file is never loaded into memory.
    """
    if Path(path).is_dir():
        from repro.store import Warehouse

        return Warehouse.open(path).iter_records()
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


def _write_verdicts(verdicts, path: Path) -> None:
    rows = [v.to_dict() for v in verdicts]
    write_text(path, json.dumps(rows, indent=2, sort_keys=True) + "\n")


def _write_alert_artifacts(monitor, alerts_dir: str) -> None:
    """Write alerts.jsonl + scoreboard.txt + verdicts.json under a directory."""
    directory = Path(alerts_dir)
    _write_verdicts(monitor.verdicts(), directory / "verdicts.json")
    monitor.alerts.save_jsonl(directory / "alerts.jsonl")
    write_text(directory / "scoreboard.txt", monitor.scoreboard().render() + "\n")
    _status(
        f"wrote {len(monitor.alerts)} alerts, scoreboard and "
        f"{len(monitor.verdicts())} verdicts to {directory}"
    )


def _write_log(log, path: str, noun: str) -> None:
    """A JSONL log to ``path``; ``-`` is stdout, which the log then owns."""
    if path == "-":
        sys.stdout.write(log.to_jsonl())
    else:
        log.save_jsonl(path)
        _status(f"wrote {len(log)} {noun} to {path}")


def _execution(args: argparse.Namespace) -> Dict[str, Any]:
    """``--workers/--shard-by/--shards/--store/--segment-records`` as
    :func:`repro.parallel.run_campaigns`'s keyword arguments.

    ``measure`` alone defaults ``--workers`` to ``None``: with ``--shards``
    absent too that is the identity plan (one shard, in this process).
    """
    workers, shards = args.workers, args.shards
    if workers is None:
        workers = 1
        if shards is None:
            shards = 1
    if workers < 1:
        raise CampaignConfigError(f"--workers must be >= 1 (got {workers})")
    return {
        "workers": workers,
        "shard_by": args.shard_by,
        "shards": shards,
        "store_dir": args.store or None,
        "segment_records": args.segment_records,
    }


def _require_interval(schedule: PeriodicSchedule, source: str) -> None:
    """Refuse a schedule whose rounds would all start at one instant: a
    burst, not a schedule.  ``source`` names where the interval came from."""
    if schedule.interval_ms <= 0:
        raise CampaignConfigError(
            f"{source} must be positive: every round would start at one instant"
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
    """``measure`` — one campaign, from the campaign flags or from a
    ``--spec`` campaign file, through the shard plan.

    With neither ``--workers`` nor ``--shards`` the plan is the identity
    plan; any other plan is byte-identical across worker counts for the
    same seed, because every count runs the same shards through
    :func:`repro.parallel.run_campaigns`.
    """

    execution = _execution(args)
    if args.spec:
        from repro.core.platform import CampaignFile, select_targets

        _refuse_campaign_flags(args.argv)
        campaign = CampaignFile.load(args.spec)
        config, vantages = campaign.campaign, list(campaign.vantages)
        hostnames = select_targets(campaign.resolvers)
        interval = f"campaign file {args.spec} 'schedule' 'interval_ms'"
    else:
        config = CampaignConfig(
            name=args.name,
            schedule=PeriodicSchedule(
                rounds=args.rounds, interval_ms=args.interval_hours * MS_PER_HOUR
            ),
            probe_config=ProbeConfig(method=args.method),
            retry=RetryPolicy(attempts=args.attempts),
            seed=args.seed,
        )
        vantages = args.vantage
        hostnames = args.resolver or CATALOG_HOSTNAMES
        interval = "--interval-hours"
    _require_interval(config.schedule, interval)

    fault_plan = None
    if args.faults:
        from repro.faults import FaultPlan, FaultPlanConfig

        fault_plan = FaultPlan.generate(
            hostnames,
            horizon_ms=config.schedule.horizon_ms,
            seed=args.fault_seed,
            config=FaultPlanConfig(impaired_time_fraction=args.fault_fraction),
        )
        _status(f"armed fault plan: {fault_plan.describe()}")

    # Loaded first: a bad --slo fails before the campaign writes anything.
    policy = _load_policy(args.slo) if (args.slo or args.alerts) else None
    run = run_campaigns(
        [(config, vantages, hostnames)],
        world_seed=config.seed,
        fault_plan=fault_plan,
        collect_spans=bool(args.trace),
        collect_metrics=bool(args.metrics),
        # Heard round by round only under a one-shard plan (run_parallel).
        on_round_complete=(
            (lambda progress: _status(progress.describe())) if args.progress else None
        ),
        **execution,
    )
    _status(run.describe())
    monitor = None
    if policy is not None:
        from repro.monitor import Monitor

        # The merged canonical stream, so the alerts are the same for any
        # worker count, shard plan and record source.
        monitor = Monitor(policy)
        monitor.replay(run.records())
        monitor.finalize(run.metrics)
    if args.progress and len(run.shard_results) > 1:
        for result in run.shard_results:
            _status(
                f"  shard {result.shard_index} [{result.shard_key}]: "
                f"{result.record_count} records, {result.wall_seconds:.2f}s"
            )
    if run.warehouse is not None:
        print(f"wrote {len(run.warehouse)} records to warehouse {args.store}")
        _status(run.warehouse.describe())
    else:
        count = run.store.save_jsonl(args.output)
        print(f"wrote {count} records to {args.output}")
    if args.trace:
        spans = run.spans.save_jsonl(args.trace)
        print(f"wrote {spans} spans to {args.trace}")
    if args.metrics:
        run.metrics.save_json(args.metrics)
        print(f"wrote metrics to {args.metrics}")
    if monitor is not None:
        if args.alerts:
            _write_alert_artifacts(monitor, args.alerts)
        print(monitor.scoreboard().render())
    if args.faults:
        if run.warehouse is not None:
            from repro.store import availability_from_aggregates

            print(availability_from_aggregates(run.warehouse.aggregates()).describe())
        else:
            from repro.analysis.availability import availability_report

            print(availability_report(run.store).describe())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.paper import generate_report
    from repro.obs import MetricsRegistry, SpanCollector

    report = generate_report(
        home_rounds=args.home_rounds, ec2_rounds=args.ec2_rounds, seed=args.seed,
        collect_spans=bool(args.trace), collect_metrics=bool(args.metrics),
    )
    print(report.describe())
    print()
    for table in ("table1", "table2", "table3"):
        print(report.rendered_tables[table])
        print()
    if args.phases and report.store is not None:
        _print_phase_tables(report.store)
    if args.trace:
        recorder = SpanCollector()
        for run in report.runs:
            recorder.absorb(run.spans.spans)
        spans = recorder.save_jsonl(args.trace)
        print(f"wrote {spans} spans to {args.trace}")
    if args.metrics:
        MetricsRegistry.from_states(
            [run.metrics.to_state() for run in report.runs]
        ).save_json(args.metrics)
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


def _print_phase_tables(store: ResultStore) -> None:
    """Phase attribution: Seoul-vs-Frankfurt deltas plus error breakdown."""
    from repro.analysis.phases import (
        error_phases,
        phase_deltas,
        render_error_phases,
        render_phase_delta_table,
    )
    from repro.analysis.table import RecordTable
    from repro.core.platform import ResolverFilter, select_targets

    table = RecordTable.of(store)
    non_mainstream_unicast = ResolverFilter(region="EU", mainstream=False, anycast=False)
    deltas = phase_deltas(
        table, select_targets(non_mainstream_unicast), "ec2-frankfurt", "ec2-seoul"
    )
    if deltas:
        print(render_phase_delta_table(
            deltas,
            title="Phase attribution: non-mainstream unicast EU resolvers, "
                  "ec2-seoul vs ec2-frankfurt",
        ))
        print()
    errors = error_phases(table)
    if errors:
        print(render_error_phases(errors))
        print()


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.analysis.figures import paper_figure
    from repro.experiments.campaigns import HOME_VANTAGE_NAMES, study_legs

    if args.input:
        records = _record_stream(args.input)
    else:
        records = run_campaigns(
            study_legs(home_rounds=args.rounds, ec2_rounds=args.rounds),
            world_seed=args.seed,
            shards=1,
        ).store
    panels = paper_figure(
        records, args.figure, mainstream_hostnames(), home_vantages=HOME_VANTAGE_NAMES
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
    for report in reports:
        print(report.describe())
    return 1 if any(report.drifted for report in reports) else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """``diff`` — cross-resolver answer differencing (respdiff-style).

    Two modes: with ``--input`` the report is built from saved records
    (JSONL file or warehouse directory, streamed); without it a
    same-query fan-out campaign runs first, serial or sharded.  The
    report text on stdout is deterministic — byte-identical across
    worker counts and record sources for a fixed seed.
    """
    from repro.diff import build_diff_report, verify_reproducibility
    from repro.experiments.campaigns import EC2_VANTAGE_NAMES, diff_campaign_config

    execution = _execution(args)
    if args.verify < 0:
        raise CampaignConfigError(f"--verify must be >= 0 (got {args.verify})")

    hostnames = args.resolver or CATALOG_HOSTNAMES
    fault_plan = None
    if args.faults:
        from repro.faults import FaultPlan

        # Over max(--rounds, --verify) rounds, so every re-query meets them.
        config = diff_campaign_config(
            rounds=max(args.rounds, args.verify), domains=args.domain or None
        )
        fault_plan = FaultPlan.answer_faults(
            hostnames,
            config.domains,
            horizon_ms=config.schedule.horizon_ms,
            seed=args.fault_seed,
            per_kind=args.faults_per_kind,
        )
        _status(f"armed answer faults: {fault_plan.describe()}")

    if args.input:
        records = _record_stream(args.input)
    else:
        config = diff_campaign_config(
            rounds=args.rounds,
            seed=args.seed,
            domains=args.domain or None,
            transports=(args.transport,),
        )
        run = run_campaigns(
            [(config, args.vantage or EC2_VANTAGE_NAMES, hostnames)],
            world_seed=args.world_seed,
            fault_plan=fault_plan,
            **execution,
        )
        _status(run.describe())
        records = run.records()

    report = build_diff_report(records)

    if args.verify:
        disagreements = report.disagreements()
        if disagreements:
            # The re-query campaign: every disagreeing vantage x resolver x
            # domain, one round per attempt, as the identity plan, so the
            # verdicts never depend on --workers or --shard-by.
            requery = diff_campaign_config(
                rounds=args.verify,
                seed=args.verify_seed,
                domains=sorted({r.domain for r in disagreements}),
                transports=sorted({r.transport for r in disagreements}),
            )
            requeries = run_campaigns(
                [(
                    requery,
                    sorted({r.vantage for r in disagreements}),
                    sorted({r.resolver for r in disagreements}),
                )],
                world_seed=args.world_seed,
                shards=1,
                fault_plan=fault_plan,
            )
            verify_reproducibility(report, requeries.records(), attempts=args.verify)
        _status(f"verified {len(disagreements)} disagreements "
                f"x{args.verify} re-queries")

    if args.output:
        write_text(args.output, report.to_jsonl())
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
    from repro.analysis.table import RecordTable
    from repro.experiments.campaigns import (
        EC2_VANTAGE_NAMES,
        SESSION_STUDY_POLICIES,
        SESSION_TARGET_HOSTNAMES,
        session_study_legs,
    )

    legs = session_study_legs(
        policies=tuple(args.policy) if args.policy else SESSION_STUDY_POLICIES,
        rounds=args.rounds,
        seed=args.seed,
        transports=tuple(args.transport),
        domains=args.domain or None,
        vantage_names=args.vantage or EC2_VANTAGE_NAMES,
        target_hostnames=args.resolver or SESSION_TARGET_HOSTNAMES,
    )
    execution = _execution(args)
    store = execution.pop("store_dir")
    # Each policy is a run of its own, into a warehouse of its own.
    runs = {
        name: run_campaigns(
            [leg],
            world_seed=args.world_seed,
            store_dir=None if store is None else str(Path(store) / name.replace("-", "_")),
            **execution,
        )
        for name, leg in legs.items()
    }
    for name, run in runs.items():
        _status(f"{name}: {run.describe()}")

    tables = {name: RecordTable.of(run) for name, run in runs.items()}
    report = session_report(tables, per_vantage=args.per_vantage)
    if args.output:
        write_text(args.output, report + "\n")
        _status(f"wrote session report to {args.output}")
    print(report)

    if not args.gate:
        return 0
    deltas = warm_cold_deltas(tables)
    failed = False
    for transport in args.gate_transport:
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
        stats = ("0", "-", "-", "-", "-") if summary is None else (
            str(summary.count),
            *(f"{ms:.1f}" for ms in (
                summary.mean_ms, summary.p50_ms, summary.p95_ms, summary.p99_ms
            )),
        )
        rows.append((resolver, f"{rates[resolver]:.1%}", *stats))
    print(render_table(header, rows))
    print(f"{len(rows)} resolvers (served from aggregates, no record scan)")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """``monitor`` — SLO evaluation over saved results.

    Replays the input (JSONL file or warehouse directory) through the
    streaming monitor, reproducing exactly the alerts ``measure --slo``
    raised for those records, and prints the health
    scoreboard.  ``--from-aggregates`` skips the record replay and
    evaluates final verdicts straight from the warehouse's persisted
    aggregates (no alerts in that mode — windows need the record stream).
    """
    from repro.monitor import HEALTH_STATES, Monitor, Scoreboard, verdicts_from_book

    policy = _load_policy(args.slo)

    if args.from_aggregates:
        if not Path(args.input).is_dir():
            raise MonitorConfigError(
                "--from-aggregates needs a warehouse directory input"
            )
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
        _write_log(monitor.alerts, args.alerts, "alerts")
    if args.verdicts:
        _write_verdicts(verdicts, Path(args.verdicts))
        _status(f"wrote {len(verdicts)} verdicts to {args.verdicts}")

    # Alert JSONL on stdout owns it; the scoreboard moves to stderr.
    (_status if args.alerts == "-" else print)(scoreboard.render())
    counts = scoreboard.counts()
    _status("scoreboard: " + ", ".join(
        f"{counts[state]} {state.lower()}" for state in HEALTH_STATES
    ))
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
    from repro.experiments.campaigns import EC2_VANTAGE_NAMES
    from repro.experiments.observatory import observer_study_legs
    from repro.obs.metrics import MetricsRegistry
    from repro.observers import ObserverFleet, ObserverRegistry, scaled_registry

    execution = _execution(args)
    if args.events == "-" and args.index == "-":
        raise ObserverConfigError(
            "--events - and --index - cannot both own stdout; "
            "write at least one of them to a file"
        )

    # The built-in fleet is the one scaled by 1.
    registry = (
        ObserverRegistry.load(args.spec) if args.spec
        else scaled_registry(args.min_samples_scale)
    )
    specs = registry.select(args.observers or None)

    if args.input:
        records = _record_stream(args.input)
        metrics = MetricsRegistry()
    else:
        legs, fault_plan = observer_study_legs(
            months=args.months,
            rounds_per_month=args.rounds,
            seed=args.seed,
            vantage_names=args.vantage or EC2_VANTAGE_NAMES,
            target_hostnames=args.resolver or CATALOG_HOSTNAMES,
            fault_seed=args.fault_seed if args.faults else None,
            fault_fraction=args.fault_fraction,
        )
        run = run_campaigns(
            legs,
            world_seed=args.world_seed,
            fault_plan=fault_plan,
            collect_metrics=bool(args.metrics),
            **execution,
        )
        _status(run.describe())
        records = run.records()
        # The merged registry is disabled when shards didn't collect; the
        # observer gauges still need a live registry of their own then.
        metrics = run.metrics if run.metrics.enabled else MetricsRegistry()

    fleet = ObserverFleet(specs)
    fleet.replay(records)
    report = fleet.finalize(metrics)
    _status(
        f"observed {report.records_seen} records over {report.days_observed} "
        f"virtual days: {len(report.events.with_status('significant'))} events, "
        f"{len(report.events.with_status('silence'))} silences"
    )

    if args.events:
        _write_log(report.events, args.events, "events")
    if args.index:
        _write_log(report.index, args.index, "health samples")
    if args.metrics:
        metrics.save_json(args.metrics)
        _status(f"wrote metrics to {args.metrics}")

    # The summary owns stdout unless an artifact already claimed it.
    (_status if "-" in (args.events, args.index) else print)(report.render())

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
    from repro.obs.metrics import exposition_from_dump

    data = read_document(args.input, ResultsFormatError, "metrics file")
    try:
        text = exposition_from_dump(data)
    except ValueError as exc:
        raise ResultsFormatError(f"malformed metrics file {args.input}: {exc}") from exc
    if args.output:
        write_text(args.output, text)
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


def _cmd_trace(args: argparse.Namespace) -> int:
    """``trace`` — a small campaign under the identity plan, spans and
    metrics collected."""

    if args.max_spans is not None and args.max_spans < 0:
        raise CampaignConfigError(f"--max-spans must be >= 0 (got {args.max_spans})")
    config = CampaignConfig(
        name=args.name,
        schedule=PeriodicSchedule(
            rounds=args.rounds, interval_ms=args.interval_hours * MS_PER_HOUR
        ),
        transports=(args.transport,),
        seed=args.seed,
    )
    _require_interval(config.schedule, "--interval-hours")
    run = run_campaigns(
        [(config, args.vantage, args.resolver or CATALOG_HOSTNAMES)],
        world_seed=args.seed,
        shards=1,
        collect_spans=True,
        collect_metrics=True,
    )
    print(
        f"traced {run.record_count} records: {len(run.spans)} spans, "
        f"{len(run.spans.roots())} roots"
    )
    if args.output:
        spans = run.spans.save_jsonl(args.output)
        print(f"wrote {spans} spans to {args.output}")
    if args.tree:
        print(run.spans.render_tree(max_spans=args.max_spans))
    if args.metrics_output:
        run.metrics.save_json(args.metrics_output)
        print(f"wrote metrics to {args.metrics_output}")
    if args.summary:
        print(run.metrics.summary())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """``query`` — the identity plan of one cell: one DoH query, no stagger."""
    from repro.dnswire.message import Message

    config = CampaignConfig(
        name="query",
        domains=(args.domain,),
        schedule=PeriodicSchedule(rounds=1, interval_ms=0.0),
        probe_config=ProbeConfig(method=args.method),
        ping=False,
        seed=args.seed,
        capture_responses=True,
    )
    (record,) = run_campaigns(
        [(config, [args.vantage], [args.resolver])], world_seed=args.seed, shards=1
    ).records()
    if record.success:
        print(f";; {args.domain} via {args.resolver} from {args.vantage}")
        print(f";; response time: {record.duration_ms:.1f} ms "
              f"({record.http_version}, TLS {record.tls_version})")
        answers = Message.from_wire(bytes.fromhex(record.response_wire))
        for address in answers.answer_addresses():
            print(f"{args.domain}.\tA\t{address}")
        return 0
    print(f";; FAILED: {record.error_class} (in the {record.failed_phase} phase)")
    return 1


#: Every argument of every subcommand, declared once: its ``add_argument``
#: keywords with the default most subcommands share.  A subcommand names the
#: arguments it takes (:func:`_take`) and states its own defaults with
#: ``set_defaults``.
_OPTIONS: Dict[str, Dict[str, Any]] = {
    # -- what to measure ----------------------------------------------------
    "--name": dict(help="campaign name written on every record"),
    "--vantage": dict(
        nargs="+",
        help="vantage point names (measure, trace, query: default ec2-ohio; "
             "diff, sessions, observe: default the three EC2 vantages; "
             "analysis commands: restrict to these, default all)",
    ),
    "--resolver": dict(
        nargs="*",
        help="resolver hostnames (default: the whole catalog; sessions: the "
             "five deployments speaking all four session transports)",
    ),
    "--domain": dict(
        nargs="*", help="query domains (default: the campaign's study domains)"
    ),
    "--transport": dict(
        choices=TRANSPORT_NAMES, default="doh",
        help="transport to probe over (sessions: the transports in the matrix, "
             "default all session transports)",
    ),
    "--method": dict(choices=["POST", "GET"], default="POST", help="DoH request method"),
    "--rounds": dict(type=int, help="measurement rounds (observe: per monthly window)"),
    "--interval-hours": dict(
        type=float, default=8.0, help="virtual hours between rounds"
    ),
    "--attempts": dict(
        type=int, default=1,
        help="total tries per query (retries with exponential backoff)",
    ),
    "--seed": dict(type=int, default=0, help="campaign seed"),
    "--world-seed": dict(type=int, default=0, help="seed of the simulated world"),
    # -- how to run it (see _execution) -------------------------------------
    "--workers": dict(
        type=int, default=1, metavar="N",
        help="run the shard plan across N worker processes; every artifact is "
             "byte-identical for any N given the same seed (measure: absent "
             "means the identity plan, one shard in this process)",
    ),
    "--shard-by": dict(
        choices=["vantage", "resolver", "round"], default="vantage",
        help="shard axis (measure: default resolver cohorts)",
    ),
    "--shards": dict(
        type=int, default=None, metavar="K",
        help="shard count (default: one per vantage, or 8 cohorts/spans for "
             "resolver/round sharding)",
    ),
    "--store": dict(
        metavar="DIR",
        help="stream records into a results warehouse at DIR instead of RAM; "
             "bounded memory, canonical segments, aggregates built once by "
             "the final merge (see the 'store' subcommand); sessions: one "
             "warehouse per policy under DIR",
    ),
    "--segment-records": dict(
        type=int, default=DEFAULT_SEGMENT_RECORDS, metavar="N",
        help="records per warehouse segment (store compact: the new segment "
             "size, default keep current)",
    ),
    "--progress": dict(
        action="store_true",
        help="print one structured line per completed round (to stderr); with "
             "more than one shard, one line per shard after the run",
    ),
    # -- faults ---------------------------------------------------------------
    "--faults": dict(
        action="store_true",
        help="inject a seeded fault plan (measure, observe: outages, TLS "
             "windows, loss/latency spikes; diff: answer faults nxdomain/"
             "servfail/rewrite/ttl/truncate for the taxonomy to classify)",
    ),
    "--fault-seed": dict(
        type=int, default=20230919, help="seed of the generated fault plan"
    ),
    "--fault-fraction": dict(
        type=float, default=0.030,
        help="expected fraction of each resolver's time under a fault window",
    ),
    "--faults-per-kind": dict(
        type=int, default=1, metavar="N",
        help="how many (resolver, domain) cells get each fault kind",
    ),
    # -- what to read and write -----------------------------------------------
    "--input": dict(
        metavar="PATH",
        help="saved results to analyse instead of simulating: a JSONL file or "
             "a warehouse directory, streamed (diff needs captured responses; "
             "metrics export: a metrics JSON state dump or snapshot)",
    ),
    "--output": dict(
        metavar="PATH",
        help="output file (measure: results JSONL; trace: span "
             "JSONL; report: raw records, a warehouse when PATH is a directory "
             "or ends with a path separator; diff: per-cell diff records; "
             "sessions, metrics export: the text otherwise printed)",
    ),
    "--trace": dict(
        metavar="PATH", help="collect phase-level spans and write them as JSONL"
    ),
    "--metrics": dict(
        metavar="PATH",
        help="collect stack-wide metrics and write a JSON snapshot (observe: "
             "including the observer.* gauges)",
    ),
    "--slo": dict(
        metavar="FILE",
        help="SLO policy to monitor against (TOML/JSON file, or the literal "
             "'default' for paper-derived baselines); measure prints the "
             "health scoreboard after the run",
    ),
    "--alerts": dict(
        metavar="PATH",
        help="measure: write alerts.jsonl, scoreboard.txt and verdicts.json "
             "under this directory (implies --slo default); monitor: write the "
             "alert JSONL to PATH, or '-' for stdout (the scoreboard then "
             "moves to stderr, keeping stdout pure JSONL)",
    ),
    "--gate": dict(
        action="store_true",
        help="make the exit status a check (sessions: warm-path p95 beats the "
             "within-run cold-path p95 for every gated transport; monitor: no "
             "resolver DEGRADED or FAILING; observe: the world-health index "
             "stays above the floor)",
    ),
    # -- the rest, in build_parser order --------------------------------------
    "--region": dict(choices=["NA", "EU", "AS", "OC"]),
    "--mainstream": dict(action="store_true"),
    "--home-rounds": dict(type=int, default=12),
    "--ec2-rounds": dict(type=int, default=10),
    "--phases": dict(
        action="store_true",
        help="print the phase-attribution tables (establishment vs query)",
    ),
    "figure": dict(choices=["figure1", "figure2", "figure3", "figure4"]),
    "--ping": dict(action="store_true", help="include ping rows"),
    "--csv": dict(help="also export the panels as CSV"),
    "--verify": dict(
        type=int, default=0, metavar="N",
        help="diffrepro pass: re-query the disagreeing cells in an N-round "
             "campaign (same world seed and faults) and label each "
             "disagreement reproducible or transient",
    ),
    "--verify-seed": dict(type=int, default=0),
    "--policy": dict(
        nargs="+", choices=["cold", "keep-alive", "resumption", "zero-rtt"],
        help="policy presets to sweep (default: all four)",
    ),
    "--per-vantage": dict(
        action="store_true",
        help="break the scenario-matrix table down per vantage point",
    ),
    "--gate-transport": dict(
        nargs="+", default=["doh", "doq"], choices=SESSION_TRANSPORTS,
        help="transports the --gate check covers (default: doh doq)",
    ),
    "action": dict(
        choices=["info", "compact", "summarize"],
        help="info: manifest + layout; compact: rewrite in canonical order; "
             "summarize: availability/response-time tables from aggregates",
    ),
    "store_dir": dict(help="warehouse directory (from measure --store)"),
    "input": dict(help="JSONL results file or warehouse directory"),
    "--verdicts": dict(metavar="PATH", help="write the verdicts JSON to PATH"),
    "--from-aggregates": dict(
        action="store_true",
        help="evaluate verdicts from the warehouse's persisted aggregates "
             "without replaying records (warehouse input only; no alerts)",
    ),
    "--months": dict(
        type=int, default=4,
        help="monthly measurement windows in the observatory campaign",
    ),
    "--observers": dict(
        nargs="+", metavar="NAME",
        help="restrict the fleet to these observers (default: all)",
    ),
    "--spec": dict(
        metavar="FILE",
        help="a TOML/JSON file (measure: the campaign, vantages and resolvers "
             "instead of the campaign flags; observe: the observer registry, "
             "default the built-in five)",
    ),
    "--min-samples-scale": dict(
        type=float, default=1.0, metavar="F",
        help="scale every observer's per-day sample gate (small demo "
             "campaigns need lower gates than a production stream)",
    ),
    "--events": dict(
        metavar="PATH",
        help="write the significance-event JSONL to PATH, or '-' for stdout "
             "(the summary then moves to stderr)",
    ),
    "--index": dict(
        metavar="PATH",
        help="write the world-health index JSONL to PATH, or '-' for stdout",
    ),
    "--gate-floor": dict(type=float, default=70.0, metavar="SCORE"),
    "resolver": dict(
        help="catalog hostname (stamp --decode: an sdns:// URI instead)"
    ),
    "--decode": dict(action="store_true"),
    "--tree": dict(action="store_true", help="print the span tree"),
    "--max-spans": dict(
        type=int, default=None, help="limit the printed tree to the first N spans"
    ),
    "--metrics-output": dict(help="also write a metrics JSON snapshot"),
    "--summary": dict(action="store_true", help="print the metrics summary"),
    "domain": dict(help="the name to query"),
}

#: What :func:`_execution` reads.
_EXECUTION_OPTIONS = (
    "--workers", "--shard-by", "--shards", "--store", "--segment-records",
)

#: What ``measure`` builds its campaign from when it is not given ``--spec``.
_CAMPAIGN_OPTIONS = (
    "--name", "--vantage", "--resolver", "--rounds", "--interval-hours",
    "--method", "--seed", "--attempts",
)


def _refuse_campaign_flags(argv: List[str]) -> None:
    """A run has one description: refuse the first campaign flag ``argv``
    gives beside ``--spec``.  A parser that knows only those flags and
    fills in no default finds them, a flag given its default value too."""
    parser = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for name in _CAMPAIGN_OPTIONS:
        parser.add_argument(name, dest=name, nargs="*")
    given = vars(parser.parse_known_args(argv)[0])
    if given:
        raise CampaignConfigError(
            f"{next(iter(given))} cannot be given with --spec: "
            f"the campaign file describes the campaign"
        )


def _take(
    parser: argparse.ArgumentParser, *names: str, **differs: Dict[str, Any]
) -> None:
    """Give ``parser`` the named arguments as :data:`_OPTIONS` declares them.

    ``differs`` maps an argument's destination to the ``add_argument``
    keywords this one subcommand replaces (``nargs``, ``required``,
    ``choices``).  A default that differs goes through ``set_defaults``.
    """
    for name in names:
        dest = name.lstrip("-").replace("-", "_")
        parser.add_argument(name, **{**_OPTIONS[name], **differs.get(dest, {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dns",
        description="Encrypted-DNS resolver measurement platform (simulated world)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show the resolver catalog")
    _take(p_list, "--region", "--mainstream")
    p_list.set_defaults(func=_cmd_list)

    p_measure = sub.add_parser("measure", help="run a measurement campaign")
    _take(
        p_measure, *_CAMPAIGN_OPTIONS, "--spec", "--output", "--faults",
        "--fault-seed", "--fault-fraction", "--trace", "--metrics", "--progress",
        "--slo", "--alerts", *_EXECUTION_OPTIONS,
    )
    p_measure.set_defaults(
        func=_cmd_measure, name="cli-campaign", vantage=["ec2-ohio"], rounds=5,
        output="results.jsonl", workers=None, shard_by="resolver",
    )

    p_report = sub.add_parser("report", help="full paper-vs-measured report")
    _take(
        p_report, "--home-rounds", "--ec2-rounds", "--seed", "--output",
        "--phases", "--trace", "--metrics",
    )
    p_report.set_defaults(func=_cmd_report)

    p_figure = sub.add_parser("figure", help="render a paper figure")
    _take(p_figure, "figure", "--input", "--rounds", "--seed", "--ping", "--csv")
    p_figure.set_defaults(func=_cmd_figure, rounds=8)

    p_corr = sub.add_parser("correlate", help="ping-vs-DNS relationship from saved results")
    _take(
        p_corr, "--input", "--vantage",
        input={"required": True}, vantage={"nargs": "*"},
    )
    p_corr.set_defaults(func=_cmd_correlate)

    p_drift = sub.add_parser(
        "drift", help="longitudinal drift from saved results (>= 2 campaigns)"
    )
    _take(
        p_drift, "--input", "--vantage",
        input={"required": True}, vantage={"nargs": None},
    )
    p_drift.set_defaults(func=_cmd_drift)

    p_diff = sub.add_parser(
        "diff", help="cross-resolver answer differencing (respdiff-style)"
    )
    _take(
        p_diff, "--input", "--rounds", "--seed", "--world-seed", "--vantage",
        "--resolver", "--domain", "--transport", *_EXECUTION_OPTIONS, "--faults",
        "--fault-seed", "--faults-per-kind", "--verify", "--verify-seed", "--output",
    )
    p_diff.set_defaults(func=_cmd_diff, rounds=2, seed=505)

    p_sessions = sub.add_parser(
        "sessions",
        help="transport x session-policy scenario matrix (reuse/resumption/0-RTT)",
    )
    _take(
        p_sessions, "--policy", "--transport", "--rounds", "--seed", "--world-seed",
        "--vantage", "--resolver", "--domain", *_EXECUTION_OPTIONS, "--per-vantage",
        "--output", "--gate", "--gate-transport",
        transport={"nargs": "+", "choices": SESSION_TRANSPORTS},
    )
    p_sessions.set_defaults(
        func=_cmd_sessions, rounds=3, seed=606, transport=list(SESSION_TRANSPORTS)
    )

    p_store = sub.add_parser("store", help="inspect or compact a results warehouse")
    _take(
        p_store, "action", "store_dir", "--segment-records", "--vantage",
        vantage={"nargs": None},
    )
    p_store.set_defaults(func=_cmd_store, segment_records=None)

    p_monitor = sub.add_parser(
        "monitor", help="evaluate SLOs over saved results; alerts + scoreboard"
    )
    _take(
        p_monitor, "input", "--slo", "--alerts", "--verdicts", "--from-aggregates",
        "--gate",
    )
    p_monitor.set_defaults(func=_cmd_monitor)

    p_observe = sub.add_parser(
        "observe",
        help="longitudinal observer fleet: significance events + world health",
    )
    _take(
        p_observe, "--input", "--months", "--rounds", "--seed", "--world-seed",
        "--vantage", "--resolver", *_EXECUTION_OPTIONS, "--observers", "--spec",
        "--min-samples-scale", "--events", "--index", "--metrics", "--faults",
        "--fault-seed", "--fault-fraction", "--gate", "--gate-floor",
    )
    p_observe.set_defaults(func=_cmd_observe, rounds=6, seed=606, fault_fraction=0.10)

    p_metrics = sub.add_parser(
        "metrics", help="export saved metrics as Prometheus text"
    )
    metrics_sub = p_metrics.add_subparsers(dest="metrics_command", required=True)
    p_metrics_export = metrics_sub.add_parser(
        "export", help="Prometheus text exposition of a metrics JSON file"
    )
    _take(p_metrics_export, "--input", "--output", input={"required": True})
    p_metrics_export.set_defaults(func=_cmd_metrics)

    p_stamp = sub.add_parser("stamp", help="DNS stamp for a resolver (or decode one)")
    _take(p_stamp, "resolver", "--decode")
    p_stamp.set_defaults(func=_cmd_stamp)

    p_trace = sub.add_parser(
        "trace", help="run a traced campaign; export phase-level spans"
    )
    _take(
        p_trace, "--name", "--vantage", "--resolver", "--rounds", "--interval-hours",
        "--transport", "--seed", "--output", "--tree", "--max-spans",
        "--metrics-output", "--summary",
    )
    p_trace.set_defaults(
        func=_cmd_trace, name="cli-trace", vantage=["ec2-ohio"], rounds=1,
        interval_hours=1.0, output="spans.jsonl",
    )

    p_query = sub.add_parser("query", help="one DoH query, dig-style output")
    _take(
        p_query, "resolver", "domain", "--vantage", "--method", "--seed",
        vantage={"nargs": None},
    )
    p_query.set_defaults(func=_cmd_query, vantage="ec2-ohio")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"repro-dns {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
