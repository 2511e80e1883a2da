"""Statistics primitives: quantiles and boxplot summaries.

Implemented without numpy so the core library stays dependency-free; the
benchmark harness can still hand the same lists to numpy/scipy for
cross-checking (and the test suite does exactly that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import AnalysisError


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (same convention as numpy's default)."""
    if not values:
        raise AnalysisError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise AnalysisError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    weight = position - lower
    result = ordered[lower] * (1.0 - weight) + ordered[upper] * weight
    # Rounding (notably on subnormals) can push the interpolation outside
    # the bracketing samples, breaking quantile monotonicity; clamp back.
    return min(max(result, ordered[lower]), ordered[upper])


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return quantile(values, 0.5)


def median_or_none(values: Sequence[float]) -> Optional[float]:
    """:func:`median`, returning None for an empty sample."""
    return median(values) if values else None


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary with Tukey whiskers (1.5 × IQR)."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: int
    mean: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1

    def describe(self) -> str:
        return (
            f"n={self.count} min={self.minimum:.1f} q1={self.q1:.1f} "
            f"med={self.median:.1f} q3={self.q3:.1f} max={self.maximum:.1f} "
            f"outliers={self.outliers}"
        )


def summarize(values: Sequence[float]) -> BoxplotStats:
    """Compute the boxplot summary of a sample."""
    if not values:
        raise AnalysisError("summarize of empty sequence")
    ordered = sorted(values)
    q1 = quantile(ordered, 0.25)
    med = quantile(ordered, 0.5)
    q3 = quantile(ordered, 0.75)
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    in_fence = [v for v in ordered if low_fence <= v <= high_fence]
    whisker_low = in_fence[0] if in_fence else ordered[0]
    whisker_high = in_fence[-1] if in_fence else ordered[-1]
    outliers = len(ordered) - len(in_fence)
    # fsum + clamp: float addition can drift the mean a ULP outside
    # [min, max] for near-identical samples, breaking ordering invariants.
    mean = min(max(math.fsum(ordered) / len(ordered), ordered[0]), ordered[-1])
    return BoxplotStats(
        count=len(ordered),
        minimum=ordered[0],
        q1=q1,
        median=med,
        q3=q3,
        maximum=ordered[-1],
        whisker_low=whisker_low,
        whisker_high=whisker_high,
        outliers=outliers,
        mean=mean,
    )


def summarize_or_none(values: Sequence[float]) -> Optional[BoxplotStats]:
    """:func:`summarize`, returning None for an empty sample."""
    return summarize(values) if values else None

