"""Virtual clock and discrete-event loop.

All simulated time is measured in **milliseconds** as a ``float``.  The event
loop is a plain heap-ordered scheduler: callbacks are scheduled at absolute
virtual times and executed in order.  Ties break by insertion order, which
keeps runs fully deterministic; a caller that schedules later what it
decided now reserves its place in that order (:meth:`EventLoop.reserve`).

The loop deliberately has no notion of wall-clock time; a full month-long
measurement campaign runs in however long the Python executes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from repro.errors import ClockError


class Timer(list):
    """Handle for a scheduled event, supporting cancellation.

    Returned by :meth:`EventLoop.call_at` / :meth:`EventLoop.call_later`.
    A timer *is* its heap entry, ``[when, seq, callback, args]``: heapq
    orders entries by ``when`` and then by the unique ``seq`` without ever
    reaching the callback, so scheduling an event allocates nothing besides
    the entry.  Cancelling is O(1) and drops the callback and its arguments
    at once; the dead entry is discarded lazily when the heap pops it.  The
    loop overwrites ``seq`` with ``None`` as it pops an entry to run it.
    """

    __slots__ = ()

    @property
    def when(self) -> float:
        return self[0]

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self[2] = self[3] = None

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    @property
    def fired(self) -> bool:
        return self[1] is None


class EventLoop:
    """Heap-based discrete-event scheduler with a millisecond virtual clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[Timer] = []
        self._next_seq = itertools.count().__next__
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of callbacks executed so far (for diagnostics).

        Brought up to date when :meth:`run` returns or raises.
        """
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued."""
        return len(self._heap)

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        if when < self._now:
            raise ClockError(
                f"cannot schedule at t={when:.6f} ms; clock already at {self._now:.6f} ms"
            )
        timer = Timer((when, self._next_seq(), callback, args))
        heapq.heappush(self._heap, timer)
        return timer

    def reserve(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; return the first.

        An event scheduled later with :meth:`call_reserved` and one of these
        numbers runs, among events at its instant, where it would have run
        had it been scheduled now.
        """
        first = self._next_seq()
        self._next_seq = itertools.count(first + count).__next__
        return first

    def call_reserved(
        self, when: float, seq: int, callback: Callable[..., None], *args: Any
    ) -> Timer:
        """:meth:`call_at` with a sequence number from :meth:`reserve`."""
        if when < self._now:
            raise ClockError(
                f"cannot schedule at t={when:.6f} ms; clock already at {self._now:.6f} ms"
            )
        timer = Timer((when, seq, callback, args))
        heapq.heappush(self._heap, timer)
        return timer

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``callback(*args)`` after ``delay`` milliseconds."""
        if delay < 0:
            raise ClockError(f"negative delay {delay!r}")
        # Not via call_at: every packet comes through here, and a delay
        # that is not negative cannot land in the past.
        timer = Timer((self._now + delay, self._next_seq(), callback, args))
        heapq.heappush(self._heap, timer)
        return timer

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events in order until the queue drains.

        Parameters
        ----------
        until:
            If given, stop once the next event would occur strictly after
            this virtual time; the clock is advanced to ``until``.
        max_events:
            Safety valve for tests; raise :class:`ClockError` instead of
            running a callback beyond this many (it stays queued).

        Returns the virtual time at which the loop stopped.
        """
        if self._running:
            raise ClockError("event loop is already running (re-entrant run())")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                timer = heap[0]
                when = timer[0]
                if until is not None and when > until:
                    break
                callback = timer[2]
                if callback is None:  # cancelled
                    pop(heap)
                    continue
                if processed == max_events:
                    raise ClockError(f"exceeded max_events={max_events}")
                pop(heap)
                self._now = when
                timer[1] = None  # fired
                callback(*timer[3])
                processed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._events_processed += processed
            self._running = False
        return self._now

    def advance(self, delta: float) -> float:
        """Run all events within the next ``delta`` milliseconds."""
        if delta < 0:
            raise ClockError(f"negative advance {delta!r}")
        return self.run(until=self._now + delta)
