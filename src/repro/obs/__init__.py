"""Observability: span tracing and metrics.

Two module-level singletons hold the *ambient* instrumentation targets:

* the **span recorder** (default: :data:`~repro.obs.spans.NULL_RECORDER`,
  a no-op) — the campaign runner reads it when ``run()`` starts and hands
  it to its probes;
* the **metrics registry** (default: disabled) — the campaign runner and
  the protocol layers (:mod:`repro.netsim.network`,
  :mod:`repro.tlssim.handshake`, :mod:`repro.httpsim`,
  :mod:`repro.quicsim.connection`) report counters and histograms here.

Use :func:`tracing` to enable instrumentation for a scoped block::

    with tracing() as (recorder, metrics):
        Campaign(...).run()
    recorder.save_jsonl("spans.jsonl")
    print(metrics.summary())

A live monitor is not ambient: it is the campaign's ``monitor=``
argument (a :class:`repro.monitor.Monitor`, or anything with an
``observe(record)`` method), fed every finished
:class:`~repro.core.results.MeasurementRecord` right after it is stored::

    monitor = Monitor()
    with tracing() as (recorder, metrics):
        Campaign(..., monitor=monitor).run()
    monitor.finalize(metrics)  # sorted alerts + monitor.* gauges

Everything is driven by the simulator's virtual clock, and all three
hooks are pure observers — enabling them never perturbs timing,
scheduling or RNG draws: an instrumented run and a bare run of the same
seed produce identical measurements, and two instrumented runs produce
byte-identical span and alert exports.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exposition_from_dump,
)
from repro.obs.spans import (
    NULL_RECORDER,
    PhaseClock,
    Span,
    SpanCollector,
    SpanRecorder,
)

_recorder: SpanRecorder = NULL_RECORDER
_metrics: MetricsRegistry = MetricsRegistry(enabled=False)


def get_recorder() -> SpanRecorder:
    """The ambient span recorder (no-op unless tracing is installed)."""
    return _recorder


def set_recorder(recorder: Optional[SpanRecorder]) -> SpanRecorder:
    """Install ``recorder`` as the ambient recorder; returns the previous one."""
    global _recorder
    previous = _recorder
    _recorder = recorder if recorder is not None else NULL_RECORDER
    return previous


def get_metrics() -> MetricsRegistry:
    """The ambient metrics registry (disabled unless installed)."""
    return _metrics


def set_metrics(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``metrics`` as the ambient registry; returns the previous one."""
    global _metrics
    previous = _metrics
    _metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
    return previous


@contextmanager
def tracing(
    recorder: Optional[SpanRecorder] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> Iterator[Tuple[SpanRecorder, MetricsRegistry]]:
    """Install a recorder and registry for the duration of the block.

    Defaults to a fresh :class:`SpanCollector` and an enabled
    :class:`MetricsRegistry`; both are restored to their previous values
    on exit and yielded so callers can export what was collected.
    """
    active_recorder = recorder if recorder is not None else SpanCollector()
    active_metrics = metrics if metrics is not None else MetricsRegistry(enabled=True)
    previous_recorder = set_recorder(active_recorder)
    previous_metrics = set_metrics(active_metrics)
    try:
        yield active_recorder, active_metrics
    finally:
        set_recorder(previous_recorder)
        set_metrics(previous_metrics)


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "PhaseClock",
    "Span",
    "SpanCollector",
    "SpanRecorder",
    "exposition_from_dump",
    "get_metrics",
    "get_recorder",
    "set_metrics",
    "set_recorder",
    "tracing",
]
