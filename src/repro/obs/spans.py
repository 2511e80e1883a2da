"""Virtual-clock span tracing for the measurement stack.

A *span* is a named interval on the simulator's virtual clock with an
optional parent, forming trees like::

    campaign > round > measurement > probe > {tcp_connect, tls_handshake,
                                              quic_handshake, http_exchange,
                                              dns_parse}

Two recorders exist:

* :data:`NULL_RECORDER` (a bare :class:`SpanRecorder`) — the default.
  Every operation is a constant-time no-op, so instrumented code pays
  essentially nothing when tracing is off;
* :class:`SpanCollector` — keeps every span in memory, exports JSONL
  (one span per line, sorted keys — the same convention as
  :meth:`repro.core.results.MeasurementRecord.to_json` and
  :meth:`repro.netsim.trace.TraceEvent.to_json`) and renders text trees.

Span ids are a per-collector counter and timestamps come from the virtual
clock, so two runs of the same seeded campaign produce byte-identical
span exports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.files import write_text


@dataclass
class Span:
    """One recorded interval on the virtual clock."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start_ms: float
    end_ms: Optional[float] = None
    status: str = "ok"  # "ok" | "error"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> Optional[float]:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    def to_json(self) -> str:
        payload = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "status": self.status,
            "attrs": self.attrs,
        }
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Span":
        return cls(**json.loads(line))


class SpanRecorder:
    """The no-op recorder: the default everywhere tracing is optional.

    All methods are overridden by :class:`SpanCollector`; here they do
    nothing and return span id ``0`` (a non-id: real spans start at 1).
    Instrumented hot paths may additionally guard on :attr:`enabled` to
    skip building attribute dicts.
    """

    enabled = False

    def begin(
        self,
        name: str,
        start_ms: float,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        return 0

    def end(
        self,
        span_id: int,
        end_ms: float,
        status: str = "ok",
        **attrs: Any,
    ) -> None:
        return None

    def emit(
        self,
        name: str,
        start_ms: float,
        end_ms: float,
        parent_id: Optional[int] = None,
        status: str = "ok",
        **attrs: Any,
    ) -> int:
        return 0


#: Shared no-op recorder instance (stateless, safe to share globally).
NULL_RECORDER = SpanRecorder()


class SpanCollector(SpanRecorder):
    """A recorder that keeps every span in memory."""

    enabled = True

    def __init__(self, max_spans: int = 1_000_000) -> None:
        self.max_spans = max_spans
        self._spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._next_id = 1
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def begin(
        self,
        name: str,
        start_ms: float,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> int:
        if len(self._spans) >= self.max_spans:
            self.dropped += 1
            return 0
        span_id = self._next_id
        self._next_id += 1
        span = Span(
            span_id=span_id,
            parent_id=parent_id if parent_id else None,
            name=name,
            start_ms=start_ms,
            attrs=dict(attrs),
        )
        self._spans.append(span)
        self._by_id[span_id] = span
        return span_id

    def end(
        self,
        span_id: int,
        end_ms: float,
        status: str = "ok",
        **attrs: Any,
    ) -> None:
        span = self._by_id.get(span_id)
        if span is None:
            return
        span.end_ms = end_ms
        span.status = status
        if attrs:
            span.attrs.update(attrs)

    def emit(
        self,
        name: str,
        start_ms: float,
        end_ms: float,
        parent_id: Optional[int] = None,
        status: str = "ok",
        **attrs: Any,
    ) -> int:
        span_id = self.begin(name, start_ms, parent_id, **attrs)
        if span_id:
            self.end(span_id, end_ms, status)
        return span_id

    # -- access ------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self._by_id.clear()
        self._next_id = 1
        self.dropped = 0

    def absorb(self, spans: List[Span]) -> int:
        """Append another collector's spans, rebasing their ids.

        Incoming ids are shifted past this collector's current id space
        (virtual timestamps are untouched), and parent links are rewired
        by the same offset, so the absorbed trees stay intact.  Absorbing
        shard collectors in a fixed order yields the same merged export
        regardless of which shard finished first — the deterministic-merge
        building block of the parallel executor.  Returns the id offset
        applied.
        """
        offset = self._next_id - 1
        for span in spans:
            rebased = Span(
                span_id=span.span_id + offset,
                parent_id=(span.parent_id + offset) if span.parent_id else None,
                name=span.name,
                start_ms=span.start_ms,
                end_ms=span.end_ms,
                status=span.status,
                attrs=dict(span.attrs),
            )
            self._spans.append(rebased)
            self._by_id[rebased.span_id] = rebased
            self._next_id = max(self._next_id, rebased.span_id + 1)
        return offset

    def roots(self) -> List[Span]:
        return [s for s in self._spans if s.parent_id is None]

    def children(self, span_id: int) -> List[Span]:
        kids = [s for s in self._spans if s.parent_id == span_id]
        kids.sort(key=lambda s: (s.start_ms, s.span_id))
        return kids

    def find(self, name: Optional[str] = None, status: Optional[str] = None) -> List[Span]:
        out = self._spans
        if name is not None:
            out = [s for s in out if s.name == name]
        if status is not None:
            out = [s for s in out if s.status == status]
        return list(out)

    # -- export ------------------------------------------------------------

    def to_jsonl(self) -> str:
        return "".join(span.to_json() + "\n" for span in self._spans)

    def save_jsonl(self, path: Union[str, Path]) -> int:
        """Write all spans as JSON Lines; returns the span count."""
        write_text(path, self.to_jsonl())
        return len(self._spans)

    def render_tree(self, max_spans: Optional[int] = None) -> str:
        """Indented text rendering of the span forest."""
        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            if max_spans is not None and len(lines) >= max_spans:
                return
            lines.append("  " * depth + _describe_span(span))
            for child in self.children(span.span_id):
                walk(child, depth + 1)

        for root in sorted(self.roots(), key=lambda s: (s.start_ms, s.span_id)):
            walk(root, 0)
        if max_spans is not None and len(self._spans) > len(lines):
            lines.append(f"... ({len(self._spans) - len(lines)} more spans)")
        return "\n".join(lines)


def _describe_span(span: Span) -> str:
    attrs = " ".join(f"{k}={span.attrs[k]}" for k in sorted(span.attrs))
    duration = span.duration_ms
    timing = (
        f"{span.start_ms:.3f}ms +{duration:.3f}ms"
        if duration is not None
        else f"{span.start_ms:.3f}ms (open)"
    )
    marker = "" if span.status == "ok" else f" !{span.status}"
    return f"{span.name} [{timing}]{marker}" + (f" {attrs}" if attrs else "")


class PhaseClock:
    """Phase bookkeeping for one probe query.

    Probes drive it through :meth:`enter` at each protocol transition
    (``tcp_connect`` → ``tls_handshake`` → ``http_exchange`` → …) and
    :meth:`finish` when the outcome is known.  Per-phase durations are
    always accumulated — they feed the record-level ``connect_ms`` /
    ``tls_ms`` / ``query_ms`` fields — while spans are emitted only when
    the recorder collects.
    """

    __slots__ = (
        "loop",
        "recorder",
        "span_id",
        "started_ms",
        "phases",
        "failed_phase",
        "_current",
        "_current_start",
        "_finished",
    )

    def __init__(
        self,
        loop,
        recorder: Optional[SpanRecorder] = None,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> None:
        self.loop = loop
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.started_ms = loop.now
        self.phases: Dict[str, float] = {}
        self.failed_phase: Optional[str] = None
        self._current: Optional[str] = None
        self._current_start = 0.0
        self._finished = False
        self.span_id = (
            self.recorder.begin("probe", self.started_ms, parent_id, **attrs)
            if self.recorder.enabled
            else 0
        )

    def enter(self, phase: str) -> None:
        """Close the current phase (if any) and start ``phase``."""
        if self._finished:
            return
        now = self.loop.now
        self._close_current(now, "ok")
        self._current = phase
        self._current_start = now

    def _close_current(self, now: float, status: str) -> None:
        if self._current is None:
            return
        duration = now - self._current_start
        self.phases[self._current] = self.phases.get(self._current, 0.0) + duration
        if self.recorder.enabled:
            self.recorder.emit(
                self._current, self._current_start, now,
                parent_id=self.span_id, status=status,
            )
        self._current = None

    def finish(self, ok: bool, error: Optional[str] = None, **attrs: Any) -> Dict[str, float]:
        """Close the open phase and the probe span; returns phase durations."""
        if self._finished:
            return self.phases
        self._finished = True
        now = self.loop.now
        if not ok:
            self.failed_phase = self._current
        self._close_current(now, "ok" if ok else "error")
        if self.recorder.enabled and self.span_id:
            if error is not None:
                attrs["error"] = error
            self.recorder.end(self.span_id, now, status="ok" if ok else "error", **attrs)
        return self.phases
