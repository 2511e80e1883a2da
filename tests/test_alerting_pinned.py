"""The alerting stack's behaviour, pinned by SHA-256 over schema-free tuples.

Two inputs.  The SLO monitor replays the paper's 6-round EC2 campaign
(every catalog resolver from the three EC2 vantages, as the perf harness
runs it) at world seeds 0 and 1.  The observer fleet replays one small
fault-injected observatory.  From each the test keeps only what an
operator reads off the artefacts -- which group fired which objective
when, at what severity and value; the verdicts and the scoreboard; the
fleet's daily events, its summary and the health index -- as plain
tuples, and holds their digest.  The tuples name no field of any event
class, so the schema of the event log can change under them; an alert,
verdict, event, score or band cannot.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.runner import Campaign
from repro.experiments.campaigns import EC2_VANTAGE_NAMES, ec2_campaign_config
from repro.experiments.observatory import observe_run, observer_study_legs
from repro.experiments.world import build_world
from repro.monitor import Monitor, default_policy
from repro.observers import scaled_registry
from repro.parallel import run_campaigns

#: The health index's band names, before and after the shared vocabulary.
BANDS = {
    "STABLE": "OK", "OK": "OK", "WATCH": "WATCH", "DEGRADED": "DEGRADED",
    "CRITICAL": "FAILING", "FAILING": "FAILING",
}

#: seed -> (alerts, SHA-256 of alerts + verdicts + scoreboard rows)
MONITOR_PINS = {
    0: (266, "65be0c8c51d33018e0f03077bea9cbc99c059176a2b6a167ef2bc51cda4d8ba6"),
    1: (295, "bd7b38fa014bd033a1f60e5db6001baf92fda2e59bbe021d18c9279b2b2a0a4e"),
}
FLEET_PIN = "8f359d469d62d902fd3b577fbf08e86ddab60b1bf100350760e58d230fde2172"

OBSERVATORY_HOSTNAMES = (
    "dns.google",
    "dns.quad9.net",
    "security.cloudflare-dns.com",
    "ordns.he.net",
    "dns.brahma.world",
    "dns.twnic.tw",
    "doh.ffmuc.net",
    "dns.pumplex.com",
    "dns.adguard.com",
)


def _round(value):
    return None if value is None else round(value, 6)


def _digest(rows) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the only code that knows the event schema ----------------------------------


def alert_tuple(event) -> tuple:
    """(campaign, vantage, resolver, transport, slo, status, severity,
    at_ms, value) of one alert."""
    group = event.group
    return (
        group["campaign"], group["vantage"], group["resolver"], group["transport"],
        event.name, event.status, event.severity, event.at_ms, _round(event.value),
    )


def fleet_event_tuple(event) -> tuple:
    """One observer-day: who, where, when, what, and the evidence behind it."""
    evidence = event.evidence
    return (
        event.name, list(event.group.values()), evidence["day"], event.at_ms,
        event.status, event.severity, event.value, evidence.get("baseline_mean"),
        evidence.get("baseline_std"), evidence.get("delta"), evidence.get("z"),
        evidence.get("direction", "none"), evidence.get("samples", evidence["records"]),
        evidence.get("suppressed", 0), evidence["readings"], evidence["records"],
        evidence.get("warming"), evidence.get("max_abs_z"),
        [list(group.values()) for group in evidence.get("suppressed_groups", [])],
    )


# -- schema-free from here on ------------------------------------------------------


def monitor_rows(seed: int):
    world = build_world(seed=seed)
    campaign = Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in EC2_VANTAGE_NAMES],
        targets=world.targets(),
        config=ec2_campaign_config(rounds=6, seed=202 + seed),
    )
    monitor = Monitor(default_policy())
    monitor.replay(campaign.run().records)
    monitor.finalize()
    alerts = [alert_tuple(event) for event in monitor.alerts]
    verdicts = [sorted(verdict.to_dict().items()) for verdict in monitor.verdicts()]
    scoreboard = [sorted(row.items()) for row in monitor.scoreboard().rows()]
    return alerts, verdicts, scoreboard


def fleet_rows():
    legs, plan = observer_study_legs(
        months=3, rounds_per_month=4, seed=707,
        target_hostnames=OBSERVATORY_HOSTNAMES, fault_seed=42, fault_fraction=0.3,
    )
    run = run_campaigns(legs, world_seed=11, fault_plan=plan)
    report = observe_run(run, scaled_registry(0.25).specs())
    events = [fleet_event_tuple(event) for event in report.events]
    summary = [
        (row["observer"], row["days"], row["significant"], row["silences"],
         row["worst"], _round(row["last_value"]))
        for row in report.summary_rows()
    ]
    index = [
        (s.day, s.at_ms, round(s.score, 6), round(s.trend, 6), BANDS[s.band],
         s.events, s.silences, s.observers,
         sorted((k, round(v, 6)) for k, v in s.contributions.items()))
        for s in report.index
    ]
    return events, summary, index


@pytest.mark.parametrize("seed", sorted(MONITOR_PINS))
def test_monitor_alerts_verdicts_and_scoreboard_are_pinned(seed):
    alerts, verdicts, scoreboard = monitor_rows(seed)
    count, digest = MONITOR_PINS[seed]
    assert len(alerts) == count
    assert _digest([alerts, verdicts, scoreboard]) == digest


@pytest.mark.slow
def test_fleet_events_summary_and_index_are_pinned():
    events, summary, index = fleet_rows()
    assert any(row[4] == "significant" for row in events), "the faults fire"
    assert _digest([events, summary, index]) == FLEET_PIN
