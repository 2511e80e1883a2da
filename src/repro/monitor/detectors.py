"""Streaming detector state, one instance per monitored group.

Everything here is pure incremental arithmetic over fields of the records
themselves — virtual start times, durations, error classes — so feeding
the same per-group record sequence always reproduces the same state, no
matter which process, shard or replay pass drove it.  Memory per group is
bounded by the window configuration: O(window records) for the rolling
window, O(1) for the EWMA baseline and CUSUM statistic.

A :class:`Tally` is the one count of final DNS-query outcomes behind
every reading: the monitor's window keeps one, the observer fleet keeps
one per group and day, and :func:`reading` reads a kind off it -- or off
a :class:`~repro.store.aggregates.GroupSummary`, which counts the same
way and estimates its latency quantiles from a histogram instead.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from typing import Any, Deque, Dict, Optional, Sequence, Tuple

from repro.analysis.stats import quantile
from repro.core.errors_taxonomy import ESTABLISHMENT_CLASS_VALUES
from repro.monitor.slo import CusumConfig, WindowConfig

#: The quantile behind each latency kind.
LATENCY_QUANTILES = {"latency_p95": 0.95, "latency_p99": 0.99}


class Tally:
    """Outcome counts and successful durations of some final DNS queries.

    ``add`` folds one outcome in.  ``remove`` takes the *oldest* one back
    out: a window evicts in arrival order, so its duration is the first.
    """

    __slots__ = ("count", "successes", "error_classes", "durations")

    def __init__(self) -> None:
        self.count = 0
        self.successes = 0
        self.error_classes: Counter = Counter()
        self.durations: Deque[float] = deque()

    def add(
        self, success: bool, duration_ms: Optional[float], error_class: Optional[str]
    ) -> None:
        self.count += 1
        if success:
            self.successes += 1
            if duration_ms is not None:
                self.durations.append(duration_ms)
        else:
            self.error_classes[error_class or "unknown"] += 1

    def remove(
        self, success: bool, duration_ms: Optional[float], error_class: Optional[str]
    ) -> None:
        self.count -= 1
        if success:
            self.successes -= 1
            if duration_ms is not None:
                self.durations.popleft()
        else:
            self.error_classes[error_class or "unknown"] -= 1

    def observe(self, record: Any) -> None:
        self.add(record.success, record.duration_ms, record.error_class)

    def latency_quantile(self, q: float) -> Optional[float]:
        """The exact linear-interpolation quantile of the durations (the one
        every analysis table uses); ``None`` without a duration."""
        return quantile(self.durations, q) if self.durations else None


def reading(
    kind: str, tally: Any, classes: Sequence[str] = ESTABLISHMENT_CLASS_VALUES
) -> Optional[float]:
    """``kind``'s value off a :class:`Tally` or a ``GroupSummary``.

    ``availability`` is the success share; ``error_budget`` (an SLO) and
    ``error_share`` (an observer) the share failing with one of
    ``classes``; a latency kind its quantile of the successful durations
    (``None`` without one).  The tally is never empty.
    """
    if kind in LATENCY_QUANTILES:
        return tally.latency_quantile(LATENCY_QUANTILES[kind])
    if kind == "availability":
        return tally.successes / tally.count
    return sum(tally.error_classes[c] for c in classes) / tally.count


class RollingWindow:
    """The most recent final DNS-query outcomes of one group.

    Entries are ``(at_ms, success, duration_ms, error_class)`` tuples;
    eviction is by the virtual-clock horizon first (``span_ms`` relative
    to the newest entry's start time), then by the record cap, so window
    membership is a pure function of the group's record sequence.  The
    entries' counts are :attr:`tally`.
    """

    __slots__ = ("config", "_entries", "tally")

    def __init__(self, config: WindowConfig) -> None:
        self.config = config
        self._entries: Deque[Tuple[float, bool, Optional[float], Optional[str]]] = deque()
        self.tally = Tally()

    def push(
        self,
        at_ms: float,
        success: bool,
        duration_ms: Optional[float],
        error_class: Optional[str],
    ) -> None:
        self._entries.append((at_ms, success, duration_ms, error_class))
        self.tally.add(success, duration_ms, error_class)
        if self.config.span_ms is not None:
            horizon = at_ms - self.config.span_ms
            while self._entries and self._entries[0][0] < horizon:
                self.tally.remove(*self._entries.popleft()[1:])
        while len(self._entries) > self.config.records:
            self.tally.remove(*self._entries.popleft()[1:])

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def span(self) -> Tuple[Optional[float], Optional[float]]:
        """Virtual start times of the oldest and newest window entries."""
        if not self._entries:
            return (None, None)
        return (self._entries[0][0], self._entries[-1][0])

    def error_counts(self) -> Dict[str, int]:
        """Per-class failure counts currently in the window (sorted keys)."""
        errors = self.tally.error_classes
        return {k: errors[k] for k in sorted(errors) if errors[k]}


class EwmaTracker:
    """Exponentially-weighted running mean and variance.

    The variance recurrence is the standard EWMA pair
    ``var' = (1 - a) * (var + a * delta**2)`` with ``delta = x - mean``,
    which keeps both moments O(1) and deterministic.
    """

    __slots__ = ("alpha", "count", "mean", "_var")

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.count = 0
        self.mean = 0.0
        self._var = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        if self.count == 1:
            self.mean = value
            self._var = 0.0
            return
        delta = value - self.mean
        incr = self.alpha * delta
        self.mean += incr
        self._var = (1.0 - self.alpha) * (self._var + delta * incr)

    @property
    def std(self) -> float:
        return math.sqrt(self._var) if self._var > 0.0 else 0.0


class CusumDetector:
    """One-sided CUSUM change-point detector on query time.

    Each successful observation is standardized against the EWMA baseline
    and folded into ``S = max(0, S + z - k)``; crossing ``h`` reports a
    sustained upward latency shift and resets the statistic so a new
    shift can be detected.  The baseline keeps adapting afterwards, which
    is what makes a *step* fire once instead of forever.
    """

    __slots__ = ("config", "baseline", "stat", "alarms")

    def __init__(self, config: CusumConfig) -> None:
        self.config = config
        self.baseline = EwmaTracker(config.alpha)
        self.stat = 0.0
        self.alarms = 0

    def update(self, value: float) -> Optional[float]:
        """Feed one observation; returns the crossing statistic on alarm."""
        fired: Optional[float] = None
        if self.config.enabled and self.baseline.count >= self.config.min_samples:
            sigma = self.baseline.std
            if sigma > 0.0:
                z = (value - self.baseline.mean) / sigma
                self.stat = max(0.0, self.stat + z - self.config.k)
                if self.stat > self.config.h:
                    fired = self.stat
                    self.alarms += 1
                    self.stat = 0.0
        self.baseline.update(value)
        return fired
