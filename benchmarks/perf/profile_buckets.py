"""Bucket a cProfile run by ``repro`` layer.

Self time and call counts are attributed to 24 layers (the repo's
modules).  Time spent in anything that is not one of those layers —
stdlib, builtins, ``repro`` packages outside the table such as
``experiments`` or ``catalog`` — is charged to the layer that called it,
transitively.  Shares are taken over the time attributed to any layer, so
they sum to 1; the harness's own frames are reported as ``unattributed``.

cProfile keeps, for every function, its self time split by direct
caller.  That split is exact one level up; further up it is apportioned
by each intermediate function's per-caller cumulative time, which is the
best the data allows.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple

LAYERS = (
    "netsim.clock", "netsim.network", "netsim.sockets", "netsim.host",
    "netsim.other", "tlssim", "quicsim", "httpsim.h1", "httpsim.h2",
    "httpsim.h3", "httpsim.doh", "dnswire.name", "dnswire.message",
    "dnswire.other", "resolver", "core.probes", "core.runner",
    "core.results", "session", "parallel", "store", "monitor", "observers",
    "obs",
)

#: Module path (below ``repro/``) -> layer; longest prefix wins.
_PREFIXES = (
    ("netsim/clock", "netsim.clock"),
    ("netsim/network", "netsim.network"),
    ("netsim/sockets", "netsim.sockets"),
    ("netsim/host", "netsim.host"),
    ("netsim/", "netsim.other"),
    ("tlssim/", "tlssim"),
    ("quicsim/", "quicsim"),
    ("httpsim/h1", "httpsim.h1"),
    ("httpsim/h2", "httpsim.h2"),
    ("httpsim/h3", "httpsim.h3"),
    ("httpsim/", "httpsim.doh"),
    ("dnswire/name", "dnswire.name"),
    ("dnswire/message", "dnswire.message"),
    ("dnswire/", "dnswire.other"),
    ("resolver/", "resolver"),
    ("core/probes", "core.probes"),
    ("core/odoh", "core.probes"),
    ("core/results", "core.results"),
    ("core/", "core.runner"),
    ("session/", "session"),
    ("parallel/", "parallel"),
    ("store/", "store"),
    ("monitor/", "monitor"),
    ("observers/", "observers"),
    ("obs/", "obs"),
)

FuncKey = Tuple[str, int, str]
UNATTRIBUTED = "unattributed"


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``, or None for code outside the table."""
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at < 0:
        return None
    module = filename.replace("\\", "/")[at + len(marker):]
    for prefix, layer in _PREFIXES:
        if module.startswith(prefix):
            return layer
    return None


def _is_json_entry(func: FuncKey) -> bool:
    filename, _line, name = func
    return name in ("dumps", "loads") and filename.replace("\\", "/").endswith(
        "json/__init__.py"
    )


def bucket_stats(stats: Dict[FuncKey, tuple]) -> Dict[str, object]:
    """Attribute a ``pstats`` table (``Stats.stats``) to layers.

    Returns ``{"seconds": {layer: s}, "calls": {layer: n}, "total_s",
    "total_calls", "json_calls"}`` where ``seconds`` also carries the
    ``unattributed`` remainder.
    """
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    total_s = 0.0
    total_calls = 0
    json_calls = 0
    layers = {func: layer_of(func[0]) for func in stats}

    # Where a foreign function's time ends up: fractions per layer, found by
    # walking up its callers.  A function met again on the way up (a cycle)
    # is skipped, so memoised fractions are approximate only inside cycles.
    fractions: Dict[FuncKey, Dict[str, float]] = {}
    walking = set()

    def upward(func: FuncKey) -> Dict[str, float]:
        layer = layers.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in fractions:
            return fractions[func]
        walking.add(func)
        edges = [
            (caller, edge[3] if edge[3] > 0 else float(edge[1]))
            for caller, edge in stats[func][4].items()
            if caller in stats and caller not in walking
        ]
        weight = sum(w for _, w in edges)
        out: Dict[str, float] = defaultdict(float)
        for caller, w in edges:
            if weight > 0:
                for name, fraction in upward(caller).items():
                    out[name] += fraction * w / weight
        if not out:
            out[UNATTRIBUTED] = 1.0
        walking.discard(func)
        fractions[func] = dict(out)
        return fractions[func]

    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        total_s += tt
        total_calls += nc
        if _is_json_entry(func):
            json_calls += nc
        layer = layers[func]
        if layer is not None:
            seconds[layer] += tt
            calls[layer] += nc
            continue
        # Self time of a foreign function, exact per direct caller.
        known = 0.0
        for caller, edge in callers.items():
            if caller in stats and caller != func:
                for name, fraction in upward(caller).items():
                    seconds[name] += edge[2] * fraction
                known += edge[2]
        if tt - known > 0:
            seconds[UNATTRIBUTED] += tt - known
    return {
        "seconds": dict(seconds),
        "calls": dict(calls),
        "total_s": total_s,
        "total_calls": total_calls,
        "json_calls": json_calls,
    }


def trace_metrics(buckets: Dict[str, object], records: int) -> Dict[str, float]:
    """The ``trace.*`` per-layer metrics of one traced run."""
    seconds: Dict[str, float] = buckets["seconds"]  # type: ignore[assignment]
    calls: Dict[str, int] = buckets["calls"]  # type: ignore[assignment]
    # Shares are of the time attributed to any layer, so they sum to 1; the
    # harness's own frames (``unattributed``) are reported beside them.
    total = sum(seconds.get(layer, 0.0) for layer in LAYERS) or 1.0
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"trace.{layer}.self_share"] = seconds.get(layer, 0.0) / total
        out[f"trace.{layer}.calls_per_record"] = calls.get(layer, 0) / records
    out["trace.calls_per_record"] = buckets["total_calls"] / records
    out["trace.json_calls_per_record"] = buckets["json_calls"] / records
    return out


def bucket_profile(profile, records: int) -> Dict[str, object]:
    """Layer metrics plus the raw buckets of a finished ``cProfile.Profile``."""
    buckets = bucket_stats(pstats.Stats(profile).stats)
    total = buckets["total_s"] or 1.0
    return {
        "metrics": trace_metrics(buckets, max(records, 1)),
        "unattributed_share": buckets["seconds"].get(UNATTRIBUTED, 0.0) / total,
    }


def share_sum(metrics: Dict[str, float], names: Iterable[str] = LAYERS) -> float:
    return sum(metrics[f"trace.{layer}.self_share"] for layer in names)
