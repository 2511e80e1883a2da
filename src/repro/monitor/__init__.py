"""Live health monitoring: SLO engine, streaming detectors, alerts.

The package replays a campaign's records — the merged stream of a run,
a JSONL file or a warehouse — and answers the operator questions the paper's longitudinal
setting raises: is a resolver's availability holding its floor, are tail
latencies under their ceilings, is an error class bursting past its
budget, did query time shift?  See :mod:`repro.monitor.engine` for the
determinism argument (streaming and batch evaluation agree exactly).

Quick start::

    from repro.monitor import Monitor, default_policy

    monitor = Monitor(default_policy())
    monitor.replay(run.records())        # a ParallelRun's merged stream
    alerts = monitor.finalize()          # canonical-ordered AlertLog
    print(monitor.scoreboard().render()) # OK/DEGRADED/FAILING table

``run_parallel(tasks, slo_policy=policy)`` does exactly this and leaves
the finalized monitor on ``ParallelRun.monitor``.
"""

from repro.monitor.alerts import (
    HEALTH_STATES,
    AlertEvent,
    AlertLog,
    Scoreboard,
    SloVerdict,
)
from repro.monitor.detectors import CusumDetector, EwmaTracker, RollingWindow
from repro.monitor.engine import Monitor, verdicts_from_book
from repro.monitor.slo import (
    ESTABLISHMENT_CLASS_VALUES,
    SEVERITIES,
    SLO_KINDS,
    CusumConfig,
    SloPolicy,
    SloSpec,
    WindowConfig,
    default_policy,
)

__all__ = [
    "AlertEvent",
    "AlertLog",
    "CusumConfig",
    "CusumDetector",
    "ESTABLISHMENT_CLASS_VALUES",
    "EwmaTracker",
    "HEALTH_STATES",
    "Monitor",
    "RollingWindow",
    "SEVERITIES",
    "SLO_KINDS",
    "Scoreboard",
    "SloPolicy",
    "SloSpec",
    "SloVerdict",
    "WindowConfig",
    "default_policy",
    "verdicts_from_book",
]
