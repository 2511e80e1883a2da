"""The warm-up memo: a world given the remembered state is the simulated one.

``build_world`` simulates the cache warm-up on the first warmed build of
a (seed, catalog) in a process and applies the state it ended in to every
later one (``DESIGN.md``, "What is memoised").  Each test here builds a
world by simulation, with the memo empty, and one from the memo, and holds
the second to the first field by field: every site's cache entries with
their instants and its cache stats, every engine's RNG and counters, every
host's next port, the loop's clock, sequence number and event count, and
the network's RNG.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

import repro.experiments.world as world_module
from repro.catalog.resolvers import CATALOG
from repro.core.runner import Campaign
from repro.experiments.campaigns import (
    EC2_VANTAGE_NAMES,
    SESSION_TARGET_HOSTNAMES,
    ec2_campaign_config,
)
from repro.experiments.world import World, build_world
from repro.netsim.trace import EventTrace
from repro.obs import tracing

#: Two session targets and a resolver whose one site is blackholed.
DEAD_HOSTNAME = "doh.dnslify.com"
CATALOGS = {
    "full": tuple(CATALOG),
    "session": tuple(e for e in CATALOG if e.hostname in SESSION_TARGET_HOSTNAMES),
    "with-dead": tuple(
        e for e in CATALOG if e.hostname in ("dns.google", "dns.adguard.com", DEAD_HOSTNAME)
    ),
}
assert any(entry.dead for entry in CATALOGS["with-dead"])


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    monkeypatch.setattr(world_module, "_WARM_STATES", {})


def _sites(world: World):
    return [site for deployment in world.deployments.values() for site in deployment.sites]


def _caches(world: World):
    return [
        (
            site.host.name,
            [
                (key, entry.records, entry.stored_at, entry.expires_at, entry.negative_rcode)
                for key, entry in site.cache._entries.items()
            ],
        )
        for site in _sites(world)
    ]


def _cache_stats(world: World):
    return [(site.host.name, dataclasses.asdict(site.cache.stats)) for site in _sites(world)]


def _engines(world: World):
    return [
        (
            site.host.name,
            site.engine.rng.getstate(),
            site.engine.total_questions,
            site.engine.total_upstream_queries,
        )
        for site in _sites(world)
    ]


def _ports(world: World):
    return {host.name: host._next_port for host in world.network.hosts}


def _loop(world: World):
    loop = world.network.loop
    return (loop.now, loop.reserve(0), loop.events_processed, loop.pending)


FIELDS = {
    "cache entries": _caches,
    "cache stats": _cache_stats,
    "engines": _engines,
    "host ports": _ports,
    "loop": _loop,
    "network rng": lambda world: world.network.rng.getstate(),
}


def _simulated(seed: int, catalog) -> World:
    """A warmed world whose warm-up ran here, whatever the memo held."""
    world_module._WARM_STATES.clear()
    world = build_world(seed=seed, catalog=catalog)
    world_module._WARM_STATES.clear()
    return world


def _applied(seed: int, catalog) -> World:
    """A warmed world given the state of an earlier build of its key."""
    build_world(seed=seed, catalog=catalog)
    key = (seed, tuple(catalog))
    state = world_module._WARM_STATES[key]
    world = build_world(seed=seed, catalog=catalog)
    assert world_module._WARM_STATES[key] is state
    return world


@pytest.mark.parametrize("catalog", sorted(CATALOGS))
@pytest.mark.parametrize("seed", [0, 5])
def test_an_applied_world_is_the_simulated_one_field_by_field(seed, catalog):
    simulated = _simulated(seed, CATALOGS[catalog])
    applied = _applied(seed, CATALOGS[catalog])
    assert simulated.network.loop.events_processed > 0
    assert any(len(site.cache) for site in _sites(simulated))
    for name, read in FIELDS.items():
        assert read(applied) == read(simulated), name


def test_the_dead_resolver_stays_cold():
    world = _applied(0, CATALOGS["with-dead"])
    for site in world.deployment(DEAD_HOSTNAME).sites:
        assert site.host.blackholed and len(site.cache) == 0
        assert site.engine.total_questions == 0


def _digest(world: World) -> str:
    campaign = Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in EC2_VANTAGE_NAMES],
        targets=world.targets(),
        config=ec2_campaign_config(rounds=2, seed=4),
    )
    lines = "".join(record.to_json() + "\n" for record in campaign.run().records)
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def test_a_campaign_measures_the_same_on_the_first_world_a_later_one_and_a_simulated_one():
    # The first world's campaign moves its caches after the capture (every
    # hit reorders its LRU); the state handed to the next world must not
    # move with them.
    catalog = CATALOGS["with-dead"]
    first = _digest(build_world(seed=5, catalog=catalog))
    assert (5, catalog) in world_module._WARM_STATES
    later = build_world(seed=5, catalog=catalog)
    simulated = _simulated(5, catalog)
    for name, read in FIELDS.items():
        assert read(later) == read(simulated), name
    assert _digest(later) == _digest(simulated) == first


def _count_warm_ups(monkeypatch):
    calls = []
    warm = World.warm_resolver_caches

    def counted(self):
        calls.append(self)
        warm(self)

    monkeypatch.setattr(World, "warm_resolver_caches", counted)
    return calls


def test_a_key_is_simulated_once_and_another_catalog_misses(monkeypatch):
    calls = _count_warm_ups(monkeypatch)
    session, dead = CATALOGS["session"], CATALOGS["with-dead"]
    build_world(seed=0, catalog=session)
    build_world(seed=0, catalog=session)
    assert len(calls) == 1
    other = build_world(seed=0, catalog=dead)
    assert len(calls) == 2 and calls[-1] is other
    build_world(seed=1, catalog=session)
    assert len(calls) == 3
    assert len(world_module._WARM_STATES) == 3


def test_a_traced_or_instrumented_build_simulates(monkeypatch):
    catalog = CATALOGS["session"]
    build_world(seed=0, catalog=catalog)
    calls = _count_warm_ups(monkeypatch)

    trace = EventTrace()
    traced = build_world(seed=0, catalog=catalog, trace=trace)
    assert len(calls) == 1 and calls[0] is traced
    assert any(event.kind == "sent" for event in trace.events)

    with tracing() as (_recorder, metrics):
        instrumented = build_world(seed=0, catalog=catalog)
    assert len(calls) == 2 and calls[1] is instrumented
    assert metrics.value("net.packets_sent", protocol="udp") > 0

    for name, read in FIELDS.items():
        assert read(traced) == read(_applied(0, catalog)), name


def test_the_memo_is_emptied_when_full(monkeypatch):
    monkeypatch.setattr(world_module, "_WARM_STATES_MAX", 2)
    catalog = CATALOGS["session"]
    for seed in range(3):
        build_world(seed=seed, catalog=catalog)
    assert list(world_module._WARM_STATES) == [(2, catalog)]
