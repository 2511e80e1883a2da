"""Longitudinal observer fleet over the canonical measurement stream.

A fleet of declarative observers watches the record stream on a
months-long virtual-clock cadence and reports in two artifacts:

* a **significance event log** — at most one graded event per observer
  per virtual day, with explicit silence checkpoints for measured-but-
  quiet days (:mod:`repro.observers.significance`), in the
  :class:`~repro.monitor.events.EventLog` the SLO monitor keeps too;
* a **world-health index** — one scored, banded series aggregating the
  whole fleet (:mod:`repro.observers.health`).

Both are byte-identical for any worker count, record chunking, or record
source (live store, warehouse, JSONL) over the same record multiset.

Quick start::

    from repro.observers import ObserverFleet, default_registry

    fleet = ObserverFleet(default_registry().specs())
    fleet.replay(store.records())          # any iterable of records
    report = fleet.finalize(metrics)       # observer.* gauges optional
    report.events.save_jsonl("events.jsonl")
    report.index.save_jsonl("index.jsonl")
    print(report.render())

Or from the CLI: ``repro-dns observe --months 4 --events events.jsonl
--index index.jsonl --gate``.
"""

from repro.observers.fleet import ObserverFleet, ObserverReport
from repro.observers.health import (
    HEALTH_BANDS,
    SEVERITY_PENALTIES,
    HealthSample,
    WorldHealthIndex,
    band_of,
)
from repro.observers.significance import (
    Candidate,
    SignificanceModel,
    debounce_day,
)
from repro.observers.spec import (
    OBSERVER_KINDS,
    OBSERVER_SCOPES,
    BaselineConfig,
    ObserverRegistry,
    ObserverSpec,
    default_registry,
    scaled_registry,
)

__all__ = [
    "OBSERVER_KINDS",
    "OBSERVER_SCOPES",
    "HEALTH_BANDS",
    "SEVERITY_PENALTIES",
    "BaselineConfig",
    "Candidate",
    "HealthSample",
    "ObserverFleet",
    "ObserverRegistry",
    "ObserverReport",
    "ObserverSpec",
    "SignificanceModel",
    "WorldHealthIndex",
    "band_of",
    "debounce_day",
    "default_registry",
    "scaled_registry",
]
