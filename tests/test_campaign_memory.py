"""What a running campaign holds, and the order it runs in.

A campaign schedules each round's measurement sets when the round opens,
not every round before the first event, so what it holds does not grow
with its length: (a) the event heap holds at most one round's sets (more
only when rounds are already behind the clock at the start) beside the
events in flight, and (b) what ``run()`` allocates before its first event
is the same for 6 rounds as for 48.  What must not move with that: (c) the
order in which events that share one virtual instant run, and (d) the ids
of a traced campaign's spans.  Both are pinned here as the up-front
schedule produced them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import pytest

from repro.catalog.resolvers import CATALOG
from repro.core.runner import Campaign, CampaignConfig
from repro.core.scheduler import PeriodicSchedule
from repro.experiments.world import build_world
from repro.obs import SpanCollector, tracing

HOSTNAMES = ("dns.google", "dns.quad9.net", "dns.brahma.world")
VANTAGES = ("ec2-ohio", "ec2-seoul")


def _world(seed: int = 4):
    """A fresh 3-resolver world, caches warm (its clock is past zero)."""
    return build_world(
        seed=seed, catalog=[entry for entry in CATALOG if entry.hostname in HOSTNAMES]
    )


def _campaign(world, schedule: PeriodicSchedule, name: str = "memory", **config) -> Campaign:
    return Campaign(
        network=world.network,
        vantages=[world.vantage(vantage) for vantage in VANTAGES],
        targets=world.targets(),
        config=CampaignConfig(name=name, schedule=schedule, seed=3, **config),
    )


def _instrument(campaign, at_start):
    """Call ``at_start(timer_callback)`` as each measurement set starts."""
    measure = campaign._measure_target

    def measure_target(*args):
        at_start(measure_target)
        measure(*args)

    campaign._measure_target = measure_target


# ---------------------------------------------------------------------------
# (a) The heap holds one round of measurement sets
# ---------------------------------------------------------------------------

HOUR_MS = 3_600_000.0
EC2_LIKE = PeriodicSchedule(rounds=24, interval_ms=8 * HOUR_MS, stagger_ms=600_000.0)

#: name -> (schedule given the clock at the start, whether its sets are
#: spread out).  The two that are not start many sets within milliseconds,
#: so the events in flight are those of whole rounds at once.
SCHEDULES = {
    "1 round": (lambda now: EC2_LIKE.slice_rounds(0, 1), True),
    "2 rounds": (lambda now: EC2_LIKE.slice_rounds(0, 2), True),
    "24 rounds": (lambda now: EC2_LIKE, True),
    "round-sliced shard": (lambda now: EC2_LIKE.slice_rounds(5, 17), True),
    "behind the clock": (
        lambda now: PeriodicSchedule(rounds=8, interval_ms=now / 4, stagger_ms=now / 5),
        False,
    ),
    "stagger == interval": (
        lambda now: PeriodicSchedule(
            rounds=6, interval_ms=60_000.0, stagger_ms=60_000.0, start_ms=now
        ),
        True,
    ),
    "interval == 0": (
        lambda now: PeriodicSchedule(rounds=4, interval_ms=0.0, start_ms=now), False
    ),
}

#: Events in flight beside the sets, at most, while sets are staggered: a
#: few sets' packets and timers, however long the campaign.
IN_FLIGHT = 32


@pytest.mark.parametrize("case", list(SCHEDULES))
def test_the_heap_holds_one_round_of_sets(case):
    world = _world()
    loop = world.network.loop
    make, staggered = SCHEDULES[case]
    schedule = make(loop.now)
    # Rounds already behind the clock open together, at the start.
    open_at_once = max(1, sum(start < loop.now for start in schedule.round_starts()))
    per_round = len(VANTAGES) * len(HOSTNAMES)
    campaign = _campaign(world, schedule)
    seen = []

    def at_start(callback):
        sets = sum(1 for timer in loop._heap if timer[2] is callback)
        seen.append((sets, loop.pending - sets))

    _instrument(campaign, at_start)
    records = len(campaign.run())
    assert records == schedule.rounds * per_round * 4
    assert len(seen) == schedule.rounds * per_round
    # The set starting has left the heap; the rest of its round has not.
    assert max(sets for sets, _ in seen) == open_at_once * per_round - 1
    if staggered:
        assert max(in_flight for _, in_flight in seen) <= IN_FLIGHT
    if case == "behind the clock":
        assert open_at_once == 4


# ---------------------------------------------------------------------------
# (b) What run() allocates before its first event
# ---------------------------------------------------------------------------


def _allocated_before_first_event(rounds: int) -> int:
    world = _world()
    campaign = _campaign(world, dataclasses.replace(EC2_LIKE, rounds=rounds))
    allocated = []

    def at_start(_callback):
        if tracemalloc.is_tracing():
            allocated.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.stop()

    _instrument(campaign, at_start)
    tracemalloc.start()
    try:
        campaign.run()
    finally:
        tracemalloc.stop()
    return allocated[0]


def test_what_run_allocates_up_front_does_not_grow_with_rounds():
    six, forty_eight = (_allocated_before_first_event(rounds) for rounds in (6, 48))
    # One round of six sets, each with its own RNG (~2.7 KB), is most of it
    # (~18 KB); the set counters of 42 more rounds are the ~4 KB rest.
    assert 6 * 2_000 < six < 64_000
    assert abs(forty_eight - six) < 8_192


# ---------------------------------------------------------------------------
# (c) A tie at one instant runs in the order the up-front schedule gave it
# ---------------------------------------------------------------------------

#: At each later round's start: that round's six measurement sets, then the
#: two timers the previous round's first and last sets put at that instant.
TIE_ORDER = [
    *(("measure", 1, vantage, hostname) for vantage in VANTAGES for hostname in HOSTNAMES),
    ("timer", 0, "first", None),
    ("timer", 0, "last", None),
    *(("measure", 2, vantage, hostname) for vantage in VANTAGES for hostname in HOSTNAMES),
    ("timer", 1, "first", None),
    ("timer", 1, "last", None),
]


def test_a_tie_at_one_instant_runs_in_the_pinned_order():
    world = _world()
    loop = world.network.loop
    interval = 20_000.0
    schedule = PeriodicSchedule(
        rounds=3, interval_ms=interval, start_ms=loop.now + 1_000.0, stagger_ms=0.0
    )
    campaign = _campaign(world, schedule, name="tie")
    per_round = len(VANTAGES) * len(HOSTNAMES)
    measure = campaign._measure_target
    log = []
    started = {}

    def timer(round_index, which):
        log.append((loop.now, ("timer", round_index, which, None)))

    def measure_target(round_index, vantage, target, rng):
        log.append((loop.now, ("measure", round_index, vantage.name, target.hostname)))
        count = started[round_index] = started.get(round_index, 0) + 1
        if round_index + 1 < schedule.rounds and count in (1, per_round):
            # A round-r timer at the instant round r+1's sets start.
            loop.call_at(
                schedule.start_ms + (round_index + 1) * interval,
                timer,
                round_index,
                "first" if count == 1 else "last",
            )
        measure(round_index, vantage, target, rng)

    campaign._measure_target = measure_target
    campaign.run()
    ties = {schedule.start_ms + interval, schedule.start_ms + 2 * interval}
    assert [entry for now, entry in log if now in ties] == TIE_ORDER


# ---------------------------------------------------------------------------
# (d) A traced campaign's span ids
# ---------------------------------------------------------------------------

#: SHA-256 of the spans' JSONL, and the ids of the campaign and round spans,
#: for a 4-round staggered campaign whose first round is behind the clock.
SPANS_SHA256 = "93983e053467c8a41db5fe25e70f8d36e4b82f0e0feab9d085e2592ee5344c2a"
ROUND_SPAN_IDS = [(1, None, None), (2, 1, 0), (3, 1, 1), (4, 1, 2), (5, 1, 3)]


def test_traced_campaign_span_ids_are_pinned():
    world = _world()
    schedule = PeriodicSchedule(rounds=4, interval_ms=3_600_000.0, stagger_ms=600_000.0)
    with tracing(recorder=SpanCollector()) as (recorder, _metrics):
        _campaign(world, schedule, name="spans").run()
    assert [
        (span.span_id, span.parent_id, span.attrs.get("round"))
        for span in recorder.spans
        if span.name in ("campaign", "round")
    ] == ROUND_SPAN_IDS
    assert hashlib.sha256(recorder.to_jsonl().encode("utf-8")).hexdigest() == SPANS_SHA256
