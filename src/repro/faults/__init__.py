"""Deterministic fault injection for the simulated measurement world.

The subsystem has two halves:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, a seeded, serializable
  schedule of time-windowed impairments (:class:`FaultEvent`) over
  resolver hostnames;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which arms a
  plan on a network's virtual clock and mutates host impairments as
  windows open and close.

Together they reproduce the paper's transient-failure phenomenology:
resolver outages (refused or silently dropped connections), TLS
handshake failure windows, loss and latency spikes, and overload
degradation — all reproducible from a single seed.  The answer kinds
(:data:`ANSWER_KINDS`) make a resolver answer one domain wrongly, for the
differencing engine to classify.
"""

from repro.faults.injector import (
    FaultInjector,
    deployment_hosts,
    inject_faults,
    mutate_response,
)
from repro.faults.plan import (
    ANSWER_KINDS,
    DEFAULT_KIND_WEIGHTS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultPlanConfig,
)

__all__ = [
    "ANSWER_KINDS",
    "DEFAULT_KIND_WEIGHTS",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FaultPlanConfig",
    "deployment_hosts",
    "inject_faults",
    "mutate_response",
]
