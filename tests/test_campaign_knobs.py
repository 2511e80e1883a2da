"""Every key of a campaign file changes the run.

A campaign file is a :class:`~repro.core.platform.CampaignFile`, and a key
that no run reads, or that another key overrides, is a knob an operator
turns for nothing.  The guard enumerates the leaves of that schema from its
dataclasses -- a field whose type is a spec dataclass is a table, every
other field a leaf -- and holds one case per leaf: a value other than the
default that must change what a small campaign writes, its records or the
metrics it exports beside them (the DoH method shows only there: the
simulated network charges no time per byte).  A leaf with no case fails,
so a new key arrives with the proof that a run reads it.

A case may set other keys first (``context``) where its knob acts only
there -- a session mode, a failing resolver -- and may arm answer or
network faults on the resolver (``faults``); both runs of a case share
them.  Every run is one vantage and one resolver, on a world built from the
campaign's seed (as ``measure --spec`` builds it) holding that resolver
alone.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import typing
from typing import Any, Dict, Iterator, Mapping, Tuple

import pytest

from repro.catalog.resolvers import CATALOG
from repro.core.platform import CampaignFile, select_targets
from repro.core.runner import Campaign
from repro.core.scheduler import MS_PER_DAY, MS_PER_HOUR
from repro.errors import CampaignConfigError
from repro.experiments.world import build_world
from repro.faults import FaultEvent, FaultKind, FaultPlan, inject_faults
from repro.files import spec_from_table
from repro.obs import NULL_RECORDER, MetricsRegistry, tracing

#: The campaign every case changes one key of: two domains, so a knob that
#: acts between queries (reuse, resumption) has a second query to act on.
BASE: Dict[str, Any] = {
    "vantages": ["ec2-ohio"],
    "resolvers": ["dns.adguard.com"],
    "campaign": {
        "name": "knobs",
        "domains": ["google.com", "amazon.com"],
        "schedule": {"rounds": 1, "interval_ms": MS_PER_HOUR},
    },
}

#: Speaks no packet back: every query times out.
BLACKHOLED = "dns.pumplex.com"
#: Two rounds an hour apart: a knob that acts between rounds.
TWO_ROUNDS = {"campaign.schedule.rounds": 2}
KEEP_ALIVE = {"campaign.session_policy.mode": "keep_alive"}
RESUMPTION = {"campaign.session_policy.mode": "resumption"}
FAILING = {"resolvers": [BLACKHOLED], "campaign.retry.attempts": 2}
DO53 = {"campaign.transports": ["do53"]}
#: Half of every packet to or from the resolver lost.
LOSSY = ((FaultKind.LOSS_SPIKE, {"magnitude": 0.5}),)
#: Every answer for google.com truncated, TC set.
TRUNCATED = ((FaultKind.TRUNCATE, {"domain": "google.com"}),)


@dataclasses.dataclass(frozen=True)
class Case:
    value: Any
    context: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    faults: Tuple[Tuple[FaultKind, Mapping[str, Any]], ...] = ()


#: Dotted leaf path -> the case proving a run reads it.
CASES: Dict[str, Case] = {
    "campaign.name": Case("knobs-renamed"),
    "campaign.domains": Case(["wikipedia.com"]),
    "campaign.schedule.rounds": Case(2),
    "campaign.schedule.interval_ms": Case(2 * MS_PER_HOUR, context=TWO_ROUNDS),
    "campaign.schedule.start_ms": Case(1000.0),
    "campaign.schedule.stagger_ms": Case(60_000.0),
    "campaign.transports": Case(["dot"]),
    "campaign.probe_config.method": Case("GET"),
    "campaign.probe_config.http_versions": Case(["http/1.1"]),
    "campaign.probe_config.tls_versions": Case(["1.2"]),
    "campaign.probe_config.timeout_ms": Case(1.0),
    "campaign.probe_config.reuse_connections": Case(True),
    "campaign.probe_config.doh_path": Case("/not-served"),
    "campaign.probe_config.retries": Case(0, context=DO53, faults=LOSSY),
    "campaign.probe_config.retry_interval_ms": Case(
        500.0, context={**DO53, "campaign.probe_config.retries": 3}, faults=LOSSY
    ),
    "campaign.probe_config.tcp_fallback": Case(False, context=DO53, faults=TRUNCATED),
    "campaign.session_policy.mode": Case("keep_alive"),
    # Kept across the hour between rounds, where the default 30 s evicts.
    "campaign.session_policy.idle_ttl_ms": Case(
        2 * MS_PER_HOUR, context={**KEEP_ALIVE, **TWO_ROUNDS}
    ),
    "campaign.session_policy.max_streams": Case(1, context=KEEP_ALIVE),
    "campaign.session_policy.ticket_lifetime_ms": Case(1.0, context=RESUMPTION),
    "campaign.session_policy.zero_rtt_reject_p": Case(
        1.0, context={"campaign.session_policy.mode": "zero_rtt"}
    ),
    "campaign.session_policy.cert_verify_ms": Case(50.0, context=RESUMPTION),
    "campaign.ping": Case(False),
    "campaign.retry.attempts": Case(2, context={"resolvers": [BLACKHOLED]}),
    "campaign.retry.backoff_base_ms": Case(1000.0, context=FAILING),
    "campaign.retry.backoff_factor": Case(
        3.0, context={**FAILING, "campaign.retry.attempts": 3}
    ),
    "campaign.retry.backoff_jitter_ms": Case(0.0, context=FAILING),
    "campaign.retry.retry_on": Case(["dns_rcode"], context=FAILING),
    "campaign.retry.record_attempts": Case(True, context=FAILING),
    "campaign.seed": Case(1),
    "campaign.capture_responses": Case(True),
    "vantages": Case(["ec2-seoul"]),
    "resolvers": Case(["dns.google"]),
}


def leaves(cls: type, prefix: str = "") -> Iterator[str]:
    """The dotted path of every leaf of the spec dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    for item in dataclasses.fields(cls):
        path = prefix + item.metadata.get("key", item.name)
        if dataclasses.is_dataclass(hints[item.name]):
            yield from leaves(hints[item.name], path + ".")
        else:
            yield path


def with_keys(table: Dict[str, Any], keys: Mapping[str, Any]) -> Dict[str, Any]:
    """``table`` with each dotted key set, the tables on its way made."""
    table = copy.deepcopy(table)
    for path, value in keys.items():
        *tables, leaf = path.split(".")
        here = table
        for key in tables:
            if not isinstance(here.get(key), dict):
                here[key] = {}
            here = here[key]
        here[leaf] = value
    return table


@functools.lru_cache(maxsize=None)
def written(table_json: str, faults: Tuple[Tuple[FaultKind, Any], ...]) -> str:
    """The canonical records and the metrics of the campaign file
    ``table_json``."""
    spec = spec_from_table(
        CampaignFile, json.loads(table_json), CampaignConfigError, "campaign file"
    )
    hostnames = select_targets(spec.resolvers)
    world = build_world(
        seed=spec.campaign.seed,
        catalog=[entry for entry in CATALOG if entry.hostname in hostnames],
    )
    if faults:
        plan = FaultPlan(
            FaultEvent(kind, hostname, 0.0, MS_PER_DAY, **dict(options))
            for kind, options in faults
            for hostname in hostnames
        )
        inject_faults(world.network, [world.deployment(h) for h in hostnames], plan)
    metrics = MetricsRegistry(enabled=True)
    with tracing(recorder=NULL_RECORDER, metrics=metrics):
        store = Campaign(
            network=world.network,
            vantages=[world.vantage(name) for name in spec.vantages],
            targets=world.targets(hostnames),
            config=spec.campaign,
        ).run()
    store.canonical_sort()
    return store.to_jsonl() + json.dumps(metrics.snapshot(), sort_keys=True)


def run(keys: Mapping[str, Any], faults) -> str:
    table = with_keys(BASE, keys)
    frozen = tuple((kind, tuple(sorted(options.items()))) for kind, options in faults)
    return written(json.dumps(table, sort_keys=True), frozen)


def test_every_leaf_has_a_case_and_every_case_a_leaf():
    schema = list(leaves(CampaignFile))
    assert len(schema) == len(set(schema)) == 33
    missing = sorted(set(schema) - set(CASES))
    assert not missing, f"campaign-file keys with no case proving a run reads them: {missing}"
    stale = sorted(set(CASES) - set(schema))
    assert not stale, f"cases for keys the schema no longer has: {stale}"


@pytest.mark.parametrize("leaf", sorted(CASES))
def test_the_knob_changes_what_the_campaign_writes(leaf):
    case = CASES[leaf]
    before = run(case.context, case.faults)
    after = run({**case.context, leaf: case.value}, case.faults)
    assert after != before, (
        f"{leaf} = {case.value!r} wrote the same records and metrics as its "
        "default: no run reads it, or another key overrides it"
    )

