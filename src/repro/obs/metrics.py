"""Metrics registry: counters, gauges and fixed-bucket histograms.

Every layer of the stack reports into one :class:`MetricsRegistry` —
packet counts from :mod:`repro.netsim.network`, handshake counts and
sizes from :mod:`repro.tlssim.handshake`, frame and codec counters from
:mod:`repro.httpsim`, retransmissions from :mod:`repro.quicsim`, and
query/error/retry counts from the campaign runner.

A registry created with ``enabled=False`` (the module default — see
:func:`repro.obs.get_metrics`) turns every operation into a constant-time
no-op; hot paths additionally guard on :attr:`MetricsRegistry.enabled`
before building label dicts.

Histograms use fixed millisecond buckets, so p50/p95/p99 estimates are
deterministic, mergeable and cheap: one increment per observation, a
linear interpolation inside the owning bucket per quantile query.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import re
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.files import write_text

#: Default latency-shaped bucket upper bounds (ms).  The last implicit
#: bucket is +inf.
DEFAULT_BUCKETS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 350.0,
    500.0, 750.0, 1000.0, 2000.0, 5000.0, 10000.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with quantile estimation."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimated q-quantile via linear interpolation inside the bucket.

        The overflow bucket reports the observed maximum (there is no
        upper bound to interpolate toward).
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                if index >= len(self.bounds):
                    return self.max
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self.max

    # -- mergeable state ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-friendly dump (raw bucket counts, not quantiles)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, dump: Dict[str, Any]) -> "Histogram":
        bounds = tuple(dump["bounds"])
        counts = list(dump["counts"])
        if len(counts) != len(bounds) + 1:
            raise ValueError(
                f"histogram dump has {len(counts)} counts for {len(bounds)} bounds"
            )
        histogram = cls.__new__(cls)  # every slot is set below
        histogram.bounds = bounds
        histogram.counts = counts
        histogram.count = dump["count"]
        histogram.total = dump["total"]
        histogram.min = dump["min"]
        histogram.max = dump["max"]
        return histogram

    def merge_dict(self, dump: Dict[str, Any]) -> None:
        """Fold one :meth:`to_dict` dump into this histogram."""
        self.merge(Histogram.from_dict(dump))

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same bounds) into this one.

        Fixed-bucket histograms compose exactly by adding counts, which is
        why per-shard and per-segment summaries merge into whole-run
        quantile estimates identical to a single-pass computation.
        """
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with differing bucket bounds")
        self.counts[:] = map(operator.add, self.counts, other.counts)
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    @property
    def p50(self) -> Optional[float]:
        return self.quantile(0.50)

    @property
    def p95(self) -> Optional[float]:
        return self.quantile(0.95)

    @property
    def p99(self) -> Optional[float]:
        return self.quantile(0.99)


def _key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a registry key back into (name, labels)."""
    if "{" not in key or not key.endswith("}"):
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for part in inner[:-1].split(","):
        label, _, value = part.partition("=")
        labels[label] = value
    return name, labels


def _prom_name(name: str) -> str:
    """A valid Prometheus metric name (dots become underscores)."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    return "_" + sanitized if sanitized[:1].isdigit() else sanitized


def _prom_label_name(name: str) -> str:
    sanitized = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    return "_" + sanitized if sanitized[:1].isdigit() else sanitized


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = []
    for label in sorted(labels):
        value = str(labels[label])
        value = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        parts.append(f'{_prom_label_name(label)}="{value}"')
    return "{" + ",".join(parts) + "}"


def _prom_value(value: Optional[float]) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class MetricsRegistry:
    """Named counters, gauges and histograms with optional labels."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- writing ----------------------------------------------------------

    def inc(self, name: str, n: float = 1.0, **labels: Any) -> None:
        if not self.enabled:
            return
        key = _key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        counter.inc(n)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        key = _key(name, labels)
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge()
        gauge.set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        key = _key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram(DEFAULT_BUCKETS)
        histogram.observe(value)

    # -- reading ----------------------------------------------------------

    def value(self, name: str, **labels: Any) -> float:
        """Current value of a counter (0 if never incremented)."""
        counter = self._counters.get(_key(name, labels))
        return counter.value if counter is not None else 0.0

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        gauge = self._gauges.get(_key(name, labels))
        return gauge.value if gauge is not None else None

    def histogram(self, name: str, **labels: Any) -> Optional[Histogram]:
        return self._histograms.get(_key(name, labels))

    def counters_matching(self, prefix: str) -> Dict[str, float]:
        """All counters whose key starts with ``prefix``."""
        return {
            key: counter.value
            for key, counter in self._counters.items()
            if key.startswith(prefix)
        }

    def gauges_matching(self, prefix: str) -> Dict[str, float]:
        """All gauges whose key starts with ``prefix``."""
        return {
            key: gauge.value
            for key, gauge in self._gauges.items()
            if key.startswith(prefix)
        }

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- mergeable state --------------------------------------------------

    def to_state(self) -> Dict[str, Any]:
        """Full internal state, JSON/pickle-friendly and lossless.

        Unlike :meth:`snapshot` (which reduces histograms to quantile
        estimates), the state keeps raw bucket counts, so registries can
        be merged exactly: fixed-bucket histograms compose by adding
        counts, which is why sharded and serial runs produce identical
        quantile estimates after merging.
        """
        return {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: h.to_dict() for k, h in sorted(self._histograms.items())
            },
        }

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold one :meth:`to_state` dump into this registry.

        Counters and histogram buckets add; gauges add as well (the
        campaign gauges — record and error totals — are extensive
        quantities, so summing across shards reproduces the whole-run
        value).  Merging is commutative and associative, so the result is
        independent of shard completion order.
        """
        for key, value in state.get("counters", {}).items():
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = Counter()
            counter.inc(value)
        for key, value in state.get("gauges", {}).items():
            gauge = self._gauges.get(key)
            if gauge is None:
                gauge = self._gauges[key] = Gauge()
            gauge.set(gauge.value + value)
        for key, dump in state.get("histograms", {}).items():
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(tuple(dump["bounds"]))
            try:
                histogram.merge_dict(dump)
            except ValueError:
                raise ValueError(
                    f"histogram {key!r}: cannot merge differing bucket bounds"
                ) from None

    @classmethod
    def from_states(
        cls, states: Sequence[Dict[str, Any]], enabled: bool = True
    ) -> "MetricsRegistry":
        """A registry holding the merge of several :meth:`to_state` dumps."""
        merged = cls(enabled=enabled)
        for state in states:
            merged.merge_state(state)
        return merged

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump of every metric (sorted keys)."""
        return {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: {
                    "count": h.count,
                    "mean": h.mean,
                    "min": h.min,
                    "max": h.max,
                    "p50": h.p50,
                    "p95": h.p95,
                    "p99": h.p99,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def save_json(self, path: Union[str, Path]) -> None:
        write_text(path, json.dumps(self.snapshot(), indent=2, sort_keys=True) + "\n")

    def save_state_json(self, path: Union[str, Path]) -> None:
        """Persist the lossless :meth:`to_state` dump (raw buckets)."""
        write_text(path, json.dumps(self.to_state(), indent=2, sort_keys=True) + "\n")

    def to_prometheus(self) -> str:
        """Prometheus text-format exposition of every metric.

        Counters and gauges map directly; histograms expose the classic
        cumulative ``_bucket{le=...}`` series plus ``_sum`` and
        ``_count``.  Metric and label names are sanitized to the
        Prometheus grammar (dots become underscores); families and
        samples are emitted in sorted order, so two registries with equal
        state expose byte-identical text.
        """
        return _exposition(
            {key: counter.value for key, counter in self._counters.items()},
            {key: gauge.value for key, gauge in self._gauges.items()},
            self._histograms,
            "histogram",
            _bucket_lines,
        )

    def summary(self) -> str:
        """Human-readable multi-line summary of all metrics."""
        lines: List[str] = []
        if self._counters:
            lines.append("== counters ==")
            for key in sorted(self._counters):
                lines.append(f"{key:<60} {self._counters[key].value:>12g}")
        if self._gauges:
            lines.append("== gauges ==")
            for key in sorted(self._gauges):
                lines.append(f"{key:<60} {self._gauges[key].value:>12g}")
        if self._histograms:
            lines.append("== histograms ==")
            for key in sorted(self._histograms):
                h = self._histograms[key]
                if not h.count:
                    continue
                lines.append(
                    f"{key:<48} n={h.count:<8} mean={h.mean:>9.2f} "
                    f"p50={h.p50:>9.2f} p95={h.p95:>9.2f} p99={h.p99:>9.2f} "
                    f"max={h.max:>9.2f}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"


def exposition_from_dump(data: Dict[str, Any]) -> str:
    """Prometheus text exposition from a saved metrics JSON file.

    Accepts both on-disk formats.  A :meth:`MetricsRegistry.to_state`
    dump (raw bucket counts) rebuilds a registry and exposes full
    histograms; a :meth:`MetricsRegistry.snapshot` dump (quantile
    estimates only) exposes each histogram as a Prometheus *summary* —
    quantile samples plus ``_sum``/``_count`` — since the buckets are
    gone.
    """
    if not isinstance(data, dict):
        raise ValueError(f"metrics dump must be a mapping, got {type(data).__name__}")
    histograms = data.get("histograms", {})
    is_state = all(
        isinstance(dump, dict) and "counts" in dump and "bounds" in dump
        for dump in histograms.values()
    )
    if is_state:
        return MetricsRegistry.from_states([data]).to_prometheus()
    return _exposition(
        data.get("counters", {}), data.get("gauges", {}), histograms, "summary",
        _quantile_lines,
    )


def _bucket_lines(prom: str, labels: Dict[str, str], histogram: Histogram) -> List[str]:
    """A histogram's cumulative ``_bucket{le=...}`` series, ``_sum`` and ``_count``."""
    lines = []
    cumulative = 0
    for bound, count in zip(histogram.bounds, histogram.counts):
        cumulative += count
        lines.append(
            f"{prom}_bucket{_prom_labels({**labels, 'le': _prom_value(bound)})} "
            f"{cumulative}"
        )
    inf = _prom_labels({**labels, "le": "+Inf"})
    lines.append(f"{prom}_bucket{inf} {histogram.count}")
    lines.append(f"{prom}_sum{_prom_labels(labels)} {_prom_value(histogram.total)}")
    lines.append(f"{prom}_count{_prom_labels(labels)} {histogram.count}")
    return lines


def _quantile_lines(
    prom: str, labels: Dict[str, str], dump: Dict[str, Any]
) -> List[str]:
    """A snapshot histogram as a summary: quantile samples, ``_sum``, ``_count``."""
    lines = [
        f"{prom}{_prom_labels({**labels, 'quantile': '0.' + q[1:]})} "
        f"{_prom_value(dump[q])}"
        for q in ("p50", "p95", "p99")
        if dump.get(q) is not None
    ]
    count = dump.get("count", 0)
    mean = dump.get("mean")
    total = mean * count if mean is not None else 0.0
    lines.append(f"{prom}_sum{_prom_labels(labels)} {_prom_value(total)}")
    lines.append(f"{prom}_count{_prom_labels(labels)} {count}")
    return lines


def _exposition(
    counters: Mapping[str, Any],
    gauges: Mapping[str, Any],
    histograms: Mapping[str, Any],
    histogram_kind: str,
    histogram_lines: Callable[[str, Dict[str, str], Any], List[str]],
) -> str:
    """Prometheus text: one ``# TYPE`` line per family (typed by its first
    metric), then its samples -- counters, gauges, histograms -- with the
    families in sorted order."""
    families: Dict[str, List[str]] = {}
    for kind, values in (("counter", counters), ("gauge", gauges)):
        for key in sorted(values):
            name, labels = _parse_key(key)
            prom = _prom_name(name)
            families.setdefault(prom, [f"# TYPE {prom} {kind}"]).append(
                f"{prom}{_prom_labels(labels)} {_prom_value(values[key])}"
            )
    for key in sorted(histograms):
        name, labels = _parse_key(key)
        prom = _prom_name(name)
        families.setdefault(prom, [f"# TYPE {prom} {histogram_kind}"]).extend(
            histogram_lines(prom, labels, histograms[key])
        )
    return (
        "\n".join(line for name in sorted(families) for line in families[name]) + "\n"
        if families
        else ""
    )
