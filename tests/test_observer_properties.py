"""Property-based tests for the observer fleet's core invariants.

Three guarantees the design leans on:

* **debounce** — at most one event per observer per virtual day, for any
  record stream whatsoever;
* **determinism under re-chunking** — the event JSONL is a pure function
  of the record *multiset*: shuffling arrival order or re-chunking the
  stream into arbitrary batches changes nothing, byte for byte;
* **order-independence of the world-health index** — equivalent
  canonical streams (any permutation of the same records) produce the
  identical index series.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.results import MeasurementRecord
from repro.core.scheduler import MS_PER_DAY
from repro.observers import BaselineConfig, ObserverFleet, ObserverSpec

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Twitchy specs: tiny gates and thresholds so random streams actually
#: produce events (a fleet that never fires can't violate the debounce).
SPECS = (
    ObserverSpec(
        name="avail",
        kind="availability",
        scope="resolver",
        min_samples=2,
        baseline=BaselineConfig(
            alpha=0.3, min_days=1, z_warning=1.0, z_critical=2.0,
            min_delta=0.01, std_floor=0.01,
        ),
    ),
    ObserverSpec(
        name="p95",
        kind="latency_p95",
        scope="vantage",
        min_samples=2,
        baseline=BaselineConfig(
            alpha=0.3, min_days=1, z_warning=1.0, z_critical=2.0,
            min_delta=0.01, std_floor=0.5,
        ),
    ),
    ObserverSpec(
        name="err",
        kind="error_share",
        scope="fleet",
        min_samples=2,
        baseline=BaselineConfig(
            alpha=0.3, min_days=1, z_warning=1.0, z_critical=2.0,
            min_delta=0.01, std_floor=0.01,
        ),
    ),
)

_RESOLVERS = ("dns.google", "dns.quad9.net", "doh.ffmuc.net")
_VANTAGES = ("ec2-ohio", "ec2-frankfurt")


@st.composite
def record_streams(draw):
    """Small random streams: a few virtual days of mixed fortunes."""
    records = []
    days = draw(st.integers(min_value=1, max_value=6))
    for day in range(days):
        count = draw(st.integers(min_value=0, max_value=12))
        for i in range(count):
            success = draw(st.booleans())
            records.append(
                MeasurementRecord(
                    campaign="prop",
                    vantage=draw(st.sampled_from(_VANTAGES)),
                    resolver=draw(st.sampled_from(_RESOLVERS)),
                    kind="dns_query",
                    transport="doh",
                    domain="example.com",
                    round_index=i,
                    started_at_ms=day * MS_PER_DAY
                    + draw(st.floats(min_value=0, max_value=MS_PER_DAY - 1)),
                    duration_ms=(
                        draw(st.floats(min_value=1.0, max_value=500.0))
                        if success
                        else None
                    ),
                    success=success,
                    error_class=(
                        None
                        if success
                        else draw(
                            st.sampled_from(
                                ("connect_timeout", "tls_handshake", "dns_rcode")
                            )
                        )
                    ),
                )
            )
    return records


def _run_fleet(records):
    fleet = ObserverFleet(SPECS)
    fleet.replay(records)
    return fleet.finalize()


@given(records=record_streams())
@_slow
def test_at_most_one_event_per_observer_per_day(records):
    report = _run_fleet(records)
    seen = set()
    for event in report.events:
        key = (event.name, event.evidence["day"])
        assert key not in seen, f"duplicate event for {key}"
        seen.add(key)


@given(records=record_streams(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@_slow
def test_event_stream_invariant_under_rechunking(records, seed):
    baseline = _run_fleet(records)

    rng = random.Random(seed)
    shuffled = list(records)
    rng.shuffle(shuffled)
    # Deliver the shuffled stream in random-sized chunks through separate
    # replay calls — the fleet must neither care about order nor batching.
    fleet = ObserverFleet(SPECS)
    position = 0
    while position < len(shuffled):
        size = rng.randint(1, max(1, len(shuffled) // 3))
        fleet.replay(shuffled[position : position + size])
        position += size
    rechunked = fleet.finalize()

    assert rechunked.events.to_jsonl() == baseline.events.to_jsonl()


@given(records=record_streams(), seed=st.integers(min_value=0, max_value=2**32 - 1))
@_slow
def test_world_health_index_is_order_independent(records, seed):
    baseline = _run_fleet(records)
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    permuted = _run_fleet(shuffled)
    assert permuted.index.to_jsonl() == baseline.index.to_jsonl()
    # The per-day scores (not just the serialization) line up too.
    assert [
        (s.day, s.score, s.band) for s in permuted.index
    ] == [(s.day, s.score, s.band) for s in baseline.index]
