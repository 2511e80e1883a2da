"""One property over every study: a plan never changes the bytes.

The paper ran its vantage campaigns independently and joined the results
afterwards, so how a run is sharded, pooled or stored must never show in
its output.  This module states that once, over three axes: the builder
(:data:`ROWS`, each on the smallest legs that still exercise it), the plan
(identity; ``shard_by`` vantage, resolver, round; ``workers`` 1 and
:data:`POOLED`) and the sink (RAM, warehouse, a JSONL file read back).

The cases cover every axis value per builder (:func:`cases`), each on
every artifact the builder has; what a case is held to is made once per
session and never mutated.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.platform import CampaignFile, select_targets
from repro.core.results import ResultStore
from repro.core.runner import Campaign
from repro.core.scheduler import MS_PER_HOUR
from repro.diff import build_diff_report
from repro.diff.records import STATUS_DISAGREE
from repro.experiments.campaigns import (
    diff_campaign_config, ec2_campaign_config,
    fault_study_legs, session_study_legs, study_legs,
)
from repro.experiments.observatory import observer_study_legs
from repro.experiments.world import build_world
from repro.faults import FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, inject_faults
from repro.faults.plan import ANSWER_KINDS
from repro.monitor import Monitor, default_policy
from repro.observers import OBSERVER_KINDS, ObserverFleet, scaled_registry
from repro.parallel import run_campaigns
from repro.session import SESSION_MODES
from repro.store import Warehouse

#: The pooled side of every case; CI's workers matrix also runs 4.
POOLED = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
#: Small enough that every warehouse holds several segments.
SEGMENT_RECORDS = 64
PLANS = {
    "identity": dict(shards=1),
    "vantage": dict(shard_by="vantage"),
    "resolver": dict(shard_by="resolver", shards=2),
    "round": dict(shard_by="round", shards=2),
}
TWO_VANTAGES = ("ec2-ohio", "ec2-seoul")
DEAD = "dns.pumplex.com"
OBSERVERS = scaled_registry(0.25).specs()


# -- what a builder reads from its records, into the run's registry if any


def _monitor(records, metrics) -> dict:
    monitor = Monitor(default_policy())
    monitor.replay(records)
    monitor.finalize(metrics)
    return {"alerts": monitor.alerts.to_jsonl(), "scoreboard": monitor.scoreboard().render(),
            "verdicts": json.dumps([v.to_dict() for v in monitor.verdicts()])}


def _observers(records, metrics) -> dict:
    fleet = ObserverFleet(OBSERVERS)
    fleet.replay(records)
    report = fleet.finalize(metrics)
    return {"events": report.events.to_jsonl(), "index": report.index.to_jsonl()}


def _diff(records, _metrics) -> dict:
    report = build_diff_report(records)
    return {"diff": report.render(), "diff_jsonl": report.to_jsonl()}


# -- the builders


@dataclass(frozen=True)
class Row:
    legs: list
    world_seed: int = 0
    fault_plan: Optional[FaultPlan] = None
    readers: Tuple[Callable, ...] = ()


def _answer_faults(legs, plan=None, start_ms=0.0) -> FaultPlan:
    """``plan`` plus one answer fault of each kind from ``start_ms`` to the
    end of the legs, on the first leg's targets and domains."""
    config, _vantages, targets = legs[0]
    end = max(c.schedule.horizon_ms for c, _v, _t in legs)
    pairs = [(h, d) for h in sorted(targets) for d in sorted(config.domains)]
    return FaultPlan([*(plan or ()), *(
        FaultEvent(kind, hostname, start_ms, end - start_ms, domain=domain)
        for kind, (hostname, domain) in zip(ANSWER_KINDS, pairs)
    )])


def _campaign_file(seed=7) -> Row:
    """A dead resolver, four rounds: enough samples for the monitor."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "campaign.json")
        path.write_text(json.dumps({
            "vantages": TWO_VANTAGES, "resolvers": ["dns.google", "dns.quad9.net", DEAD],
            "campaign": {"name": "plan-table", "seed": seed,
                         "schedule": {"rounds": 4, "interval_ms": 8 * MS_PER_HOUR}},
        }))
        spec = CampaignFile.load(path)
    legs = [(spec.campaign, spec.vantages, select_targets(spec.resolvers))]
    return Row(legs, spec.campaign.seed, readers=(_monitor,))


def _study() -> Row:
    return Row(study_legs(home_rounds=2, ec2_rounds=2,
                          target_hostnames=("dns.google", "doh.ffmuc.net")), 3)


def _fault() -> Row:
    """Impaired 30% of the time: two rounds meet every network kind."""
    legs, plan = fault_study_legs(
        rounds=2, vantage_names=TWO_VANTAGES,
        target_hostnames=("dns.google", "dns.quad9.net", "ordns.he.net"),
        plan_config=FaultPlanConfig(impaired_time_fraction=0.3),
    )
    return Row(legs, 9, _answer_faults(legs, plan))


def _observatory() -> Row:
    """Two months; the answer faults open in the second, so the
    disagreement observer sees a change, not a baseline."""
    legs, plan = observer_study_legs(
        months=2, rounds_per_month=4, seed=707, vantage_names=TWO_VANTAGES,
        target_hostnames=("dns.google", "dns.adguard.com",
                          "dns-family.adguard.com", "doh.ffmuc.net"),
        fault_seed=42, fault_fraction=0.3,
    )
    start = legs[-1][0].schedule.start_ms - 2 * MS_PER_HOUR
    return Row(legs, 11, _answer_faults(legs, plan, start), (_observers,))


def _sessions() -> Row:
    return Row(list(session_study_legs(
        rounds=2, vantage_names=TWO_VANTAGES,
        target_hostnames=("dns.adguard.com", "anycast.dns.nextdns.io"),
    ).values()))


def _diff_fanout() -> Row:
    legs = [(diff_campaign_config(rounds=2, seed=5), TWO_VANTAGES,
             ("dns.google", "dns.quad9.net", "ordns.he.net", DEAD))]
    return Row(legs, fault_plan=_answer_faults(legs), readers=(_diff,))


# -- what shows that a row's equalities are not vacuous


def _alerts_fire(row, records):
    monitor = Monitor(default_policy())
    monitor.replay(records)
    monitor.finalize()
    assert DEAD in {event.group["resolver"] for event in monitor.alerts}
    assert monitor.scoreboard().worst_state() == "FAILING"
    assert monitor.scoreboard().counts()["OK"] > 0
    other = _read(row, _classic(_campaign_file(seed=8)))
    assert other["records"] != _lines(records)
    assert other["alerts"] != monitor.alerts.to_jsonl()


def _both_campaigns_land(row, records):
    assert {r.campaign for r in records} == {"home-chicago", "ec2-global"}


def _every_fault_is_armed(row, records):
    armed = row.fault_plan.restricted_to(row.legs[0][2])
    assert {event.kind for event in armed} == set(FaultKind)
    assert not all(r.success for r in records)


def _every_observer_fires(row, records):
    kind = {spec.name: spec.kind for spec in OBSERVERS}
    events = [json.loads(line) for line in _read(row, records)["events"].splitlines()]
    fired = {kind[e["name"]] for e in events if e["status"] == "significant"}
    assert fired == set(OBSERVER_KINDS)
    assert any(e["status"] == "silence" for e in events)


def _every_policy_warms(row, records):
    assert {config.session_policy.mode for config, *_ in row.legs} == set(SESSION_MODES)
    assert {r.session_state for r in records} >= {"warm", "resumed", "zero_rtt"}


def _answers_disagree(row, records):
    assert build_diff_report(records).status_counts()[STATUS_DISAGREE] > 0


#: name -> (builder, the multi-shard plan whose pooled run meets its serial
#: run, what shows the row measures something)
ROWS = {
    "campaign-file": (_campaign_file, "vantage", _alerts_fire),
    "study": (_study, "resolver", _both_campaigns_land),
    "fault": (_fault, "round", _every_fault_is_armed),
    "observatory": (_observatory, "resolver", _every_observer_fires),
    "sessions": (_sessions, "round", _every_policy_warms),
    "diff": (_diff_fanout, "vantage", _answers_disagree),
}
#: The fast lane keeps one row: it has a pooled case and a warehouse case.
LANE = {name: [] if name == "campaign-file" else [pytest.mark.slow] for name in ROWS}


def cases(name: str):
    """(plan, workers of what the case is held to, sink) per case, each run at
    :data:`POOLED`: identity against the hand-built run (``None``), the row's
    serial plan against ``workers=1``, the others against a pooled RAM run."""
    serial = ROWS[name][1]
    warehouse, jsonl = (p for p in ("vantage", "resolver", "round") if p != serial)
    return [("identity", None, "warehouse"), (serial, 1, "ram"),
            (warehouse, POOLED, "warehouse"), (jsonl, POOLED, "jsonl")]


@pytest.mark.parametrize("name", list(ROWS))
def test_the_cases_cover_every_axis_value(name):
    plans, held_to, sinks = map(set, zip(*cases(name)))
    assert plans == set(PLANS) and sinks == {"ram", "warehouse", "jsonl"}
    assert held_to | {POOLED} == {None, 1, POOLED}  # None: the hand-built run


# -- running a row and reading what it wrote


def _run(row: Row, plan: str, workers: int, store_dir=None):
    return run_campaigns(
        row.legs, world_seed=row.world_seed, fault_plan=row.fault_plan,
        workers=workers, collect_spans=True, collect_metrics=True,
        store_dir=store_dir and str(store_dir), segment_records=SEGMENT_RECORDS,
        **PLANS[plan],
    )


def _lines(records) -> str:
    return "".join(record.to_json() + "\n" for record in records)


def _read(row: Row, records, run=None) -> dict:
    """The records, what the readers make of them, and the run's spans and
    metrics, less the ``store.*`` ones a warehouse run adds (one is wall-clock)."""
    records = list(records)
    out = {"records": _lines(records)}
    for reader in row.readers:
        out.update(reader(records, run and run.metrics))
    if run is not None:
        snapshot = {name: {k: v for k, v in section.items() if not k.startswith("store.")}
                    for name, section in run.metrics.snapshot().items()}
        out.update(spans=run.spans.to_jsonl(), metrics=json.dumps(snapshot))
    return out


def _classic(row: Row) -> tuple:
    """The identity plan by hand: one ``Campaign.run()`` per leg on a fresh
    world, faults armed and caches refreshed as a shard does, merged."""
    store = ResultStore()
    for config, vantages, targets in row.legs:
        world = build_world(seed=row.world_seed)
        if row.fault_plan is not None:
            inject_faults(world.network, [world.deployments[h] for h in targets],
                          row.fault_plan.restricted_to(targets))
        if config.schedule.start_ms - MS_PER_HOUR > world.network.loop.now:
            world.schedule_cache_refresh(config.schedule.start_ms - MS_PER_HOUR)
        store.extend(Campaign(
            network=world.network, vantages=[world.vantage(v) for v in vantages],
            targets=world.targets(list(targets)), config=config,
        ).run().records)
    store.canonical_sort()
    return tuple(store.records)


def _tree(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="session")
def reference():
    """``reference(name, plan, workers)`` -> (row, artifacts, records), made
    once per session; ``workers=None`` is the hand-built identity run."""

    @functools.lru_cache(maxsize=None)
    def held_to(name, plan, workers):
        row = ROWS[name][0]()
        if workers is None:
            records = _classic(row)
            return row, _read(row, records), records
        run = _run(row, plan, workers)
        assert run.pool_used == (workers > 1)
        return row, _read(row, run.store.records, run), tuple(run.store)

    return held_to


@pytest.mark.parametrize("name,plan,held_to,sink", [
    pytest.param(name, plan, held_to, sink, marks=LANE[name],
                 id=f"{name}-{plan}-{f'w{held_to}' if held_to else 'hand-built'}"
                    f"-vs-w{POOLED}-{sink}")
    for name in ROWS for plan, held_to, sink in cases(name)
])
def test_a_plan_never_changes_the_bytes(reference, tmp_path, name, plan, held_to, sink):
    row, expected, records = reference(name, plan, held_to)
    run = _run(row, plan, POOLED, tmp_path / "wh" if sink == "warehouse" else None)
    assert run.pool_used == (POOLED > 1 and len(run.shard_results) > 1)
    if sink == "warehouse":
        got = _read(row, run.warehouse.iter_sorted(), run)
        canonical = Warehouse.from_records(records, tmp_path / "ram", SEGMENT_RECORDS)
        assert _tree(run.warehouse.root) == _tree(canonical.root)  # no staging left
    elif sink == "jsonl":
        run.store.save_jsonl(tmp_path / "records.jsonl")
        got = _read(row, ResultStore.iter_jsonl(tmp_path / "records.jsonl"))
    else:
        got = _read(row, run.store.records, run)
    # A hand-built run and a file have no spans and no registry.
    shared = sorted(expected.keys() & got.keys())
    assert "records" in shared
    assert [got[key] for key in shared] == [expected[key] for key in shared]


def test_both_sinks_break_canonical_ties_alike(tmp_path):
    """The session legs differ only in ``session_policy``, so their records tie
    on the canonical key; RAM and a warehouse order them the one same way."""
    legs = _sessions().legs
    in_ram = run_campaigns(legs).records()
    stored = run_campaigns(legs, store_dir=str(tmp_path / "wh")).records()
    assert len({ResultStore.canonical_key(r) for r in in_ram}) < len(in_ram)
    assert _lines(stored) == _lines(in_ram)


@pytest.mark.parametrize("name", [pytest.param(n, marks=LANE[n]) for n in ROWS])
def test_the_row_measures_something(reference, name):
    row, _artifacts, records = reference(name, "identity", None)
    ROWS[name][2](row, records)


# -- campaign shapes: one canonical warehouse per shape, whoever runs it


@settings(max_examples=4, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(("dns.google", "dns.quad9.net", "ordns.he.net", DEAD)),
                min_size=1, max_size=3, unique=True),
       st.integers(1, 3), st.integers(0, 2**16),
       st.sampled_from(("vantage", "resolver", "round")), st.sampled_from((1, 2)))
def test_every_campaign_shape_writes_one_warehouse(resolvers, rounds, seed, shard_by, workers):
    legs = [(ec2_campaign_config(rounds=rounds, seed=seed), TWO_VANTAGES, resolvers)]
    plan = dict(world_seed=seed, shard_by=shard_by, shards=2)
    serial = run_campaigns(legs, **plan)
    with tempfile.TemporaryDirectory() as tmp:
        stored = run_campaigns(legs, workers=workers, store_dir=f"{tmp}/wh",
                               segment_records=SEGMENT_RECORDS, **plan)
        canonical = Warehouse.from_records(serial.store.records, f"{tmp}/ram",
                                           SEGMENT_RECORDS)
        assert _tree(stored.warehouse.root) == _tree(canonical.root)
