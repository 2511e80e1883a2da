"""Live health monitoring: SLO engine, streaming detectors, alerts.

The package replays a campaign's records — the merged stream of a run,
a JSONL file or a warehouse — and answers the operator questions the paper's longitudinal
setting raises: is a resolver's availability holding its floor, are tail
latencies under their ceilings, is an error class bursting past its
budget, did query time shift?  See :mod:`repro.monitor.engine` for the
determinism argument (streaming and batch evaluation agree exactly).

It also holds what the observer fleet (:mod:`repro.observers`) shares
with it: the :class:`HealthEvent` both write, the :class:`EventLog` both
keep, the :data:`SEVERITIES` and :data:`HEALTH_STATES` both grade with
(:mod:`repro.monitor.events`), and the :class:`Tally` and
:func:`reading` every availability, error-share and latency reading comes
from (:mod:`repro.monitor.detectors`).

Quick start::

    from repro.monitor import Monitor, default_policy

    monitor = Monitor(default_policy())
    monitor.replay(run.records())        # a ParallelRun's merged stream
    alerts = monitor.finalize()          # canonical-ordered EventLog
    print(monitor.scoreboard().render()) # OK/WATCH/DEGRADED/FAILING table

``measure --slo`` does exactly this, finalizing into ``run.metrics``;
the parallel runner itself knows no monitor.
"""

from repro.monitor.detectors import (
    CusumDetector,
    EwmaTracker,
    RollingWindow,
    Tally,
    reading,
)
from repro.monitor.engine import Monitor, verdicts_from_book
from repro.monitor.events import (
    HEALTH_STATES,
    SEVERITIES,
    EventLog,
    HealthEvent,
    Scoreboard,
    SloVerdict,
)
from repro.monitor.slo import (
    ESTABLISHMENT_CLASS_VALUES,
    SLO_KINDS,
    CusumConfig,
    SloPolicy,
    SloSpec,
    WindowConfig,
    default_policy,
)

__all__ = [
    "CusumConfig",
    "CusumDetector",
    "ESTABLISHMENT_CLASS_VALUES",
    "EventLog",
    "EwmaTracker",
    "HEALTH_STATES",
    "HealthEvent",
    "Monitor",
    "RollingWindow",
    "SEVERITIES",
    "SLO_KINDS",
    "Scoreboard",
    "SloPolicy",
    "SloSpec",
    "SloVerdict",
    "Tally",
    "WindowConfig",
    "default_policy",
    "reading",
    "verdicts_from_book",
]
