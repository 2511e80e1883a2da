"""Declarative service-level objectives for live campaign monitoring.

An :class:`SloSpec` states one objective over a rolling evaluation window
of a ``(vantage, resolver, transport)`` group:

* ``availability`` — the windowed success ratio must stay at or above a
  floor;
* ``latency_p95`` / ``latency_p99`` — the windowed response-time quantile
  must stay at or below a ceiling (milliseconds);
* ``error_budget`` — the windowed share of attempts failing with the
  named error classes (default: the paper's dominant
  connection-establishment group) must stay at or below a budget.

Selectors are shell-style patterns (``fnmatch``) on vantage, resolver and
transport, so one objective can cover the whole fleet or a single
deployment.  An :class:`SloPolicy` bundles the objectives with the shared
:class:`WindowConfig` (record cap and/or virtual-clock horizon) and the
:class:`CusumConfig` of the change-point detector; policies load from
TOML or JSON files (see :meth:`SloPolicy.load`) and serialize back to
plain dicts.

:func:`default_policy` derives its thresholds from the paper's measured
baselines: ~5.8% of all ~5.4M attempts failed (availability floor 0.94),
connection-establishment errors dominated the failures (establishment
budget 10% of attempts), and mainstream resolvers answered well under a
second at the tail from every vantage (p95 ceiling 750 ms, p99 1500 ms).
"""

from __future__ import annotations

import fnmatch
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors_taxonomy import ESTABLISHMENT_CLASS_VALUES, ErrorClass
from repro.errors import MonitorConfigError
from repro.files import read_document, write_text

SLO_KINDS = ("availability", "latency_p95", "latency_p99", "error_budget")
SEVERITIES = ("info", "warning", "critical")

_KNOWN_CLASS_VALUES = frozenset(c.value for c in ErrorClass)


@dataclass(frozen=True)
class WindowConfig:
    """Rolling evaluation window, on record count and/or the virtual clock.

    ``records`` caps how many of the group's most recent final DNS-query
    outcomes are held; ``span_ms`` (optional) additionally evicts entries
    older than the horizon relative to the newest record's virtual start
    time.  ``min_samples`` gates evaluation: no objective fires before the
    window holds that many records, and final verdicts skip groups with
    fewer total records.
    """

    records: int = 60
    span_ms: Optional[float] = None
    min_samples: int = 12

    def __post_init__(self) -> None:
        if not isinstance(self.records, int) or self.records < 1:
            raise MonitorConfigError(
                f"window records must be a positive integer, got {self.records!r}"
            )
        if self.span_ms is not None and self.span_ms <= 0:
            raise MonitorConfigError(
                f"window span_ms must be positive, got {self.span_ms!r}"
            )
        if not isinstance(self.min_samples, int) or self.min_samples < 1:
            raise MonitorConfigError(
                f"window min_samples must be a positive integer, "
                f"got {self.min_samples!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class CusumConfig:
    """Parameters of the CUSUM change-point detector on query time.

    The detector standardizes each successful query time against an EWMA
    baseline (smoothing ``alpha``) and accumulates one-sided deviations:
    ``S = max(0, S + z - k)``.  Crossing ``h`` flags a latency shift and
    resets the statistic.  ``k`` (slack) and ``h`` (decision threshold)
    are in standard-deviation units, the textbook parameterization.
    """

    enabled: bool = True
    alpha: float = 0.2
    k: float = 0.5
    h: float = 8.0
    min_samples: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise MonitorConfigError(f"cusum alpha must be in (0, 1], got {self.alpha!r}")
        if self.k < 0 or self.h <= 0:
            raise MonitorConfigError(
                f"cusum needs k >= 0 and h > 0, got k={self.k!r} h={self.h!r}"
            )
        if not isinstance(self.min_samples, int) or self.min_samples < 2:
            raise MonitorConfigError(
                f"cusum min_samples must be an integer >= 2, got {self.min_samples!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective plus the groups it applies to."""

    name: str
    kind: str
    threshold: float
    severity: str = "warning"
    vantage: str = "*"
    resolver: str = "*"
    transport: str = "*"
    #: Error classes counted by an ``error_budget`` objective; empty means
    #: the connection-establishment group.
    error_classes: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise MonitorConfigError("SLO spec needs a name")
        if self.kind not in SLO_KINDS:
            raise MonitorConfigError(
                f"SLO {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(SLO_KINDS)})"
            )
        if self.severity not in SEVERITIES:
            raise MonitorConfigError(
                f"SLO {self.name!r}: unknown severity {self.severity!r} "
                f"(expected one of {', '.join(SEVERITIES)})"
            )
        if self.kind in ("availability", "error_budget"):
            if not 0.0 <= self.threshold <= 1.0:
                raise MonitorConfigError(
                    f"SLO {self.name!r}: {self.kind} threshold is a ratio "
                    f"in [0, 1], got {self.threshold!r}"
                )
        elif self.threshold <= 0:
            raise MonitorConfigError(
                f"SLO {self.name!r}: latency ceiling must be positive ms, "
                f"got {self.threshold!r}"
            )
        if self.kind != "error_budget" and self.error_classes:
            raise MonitorConfigError(
                f"SLO {self.name!r}: error_classes only apply to error_budget"
            )
        unknown = [c for c in self.error_classes if c not in _KNOWN_CLASS_VALUES]
        if unknown:
            raise MonitorConfigError(
                f"SLO {self.name!r}: unknown error classes {', '.join(unknown)}"
            )

    def matches(self, vantage: str, resolver: str, transport: str) -> bool:
        return (
            fnmatch.fnmatchcase(vantage, self.vantage)
            and fnmatch.fnmatchcase(resolver, self.resolver)
            and fnmatch.fnmatchcase(transport, self.transport)
        )

    def budget_classes(self) -> Tuple[str, ...]:
        """Error classes an ``error_budget`` objective counts."""
        return self.error_classes or ESTABLISHMENT_CLASS_VALUES

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "threshold": self.threshold,
            "severity": self.severity,
            "vantage": self.vantage,
            "resolver": self.resolver,
            "transport": self.transport,
        }
        if self.error_classes:
            data["error_classes"] = list(self.error_classes)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloSpec":
        known = {
            "name", "kind", "threshold", "severity",
            "vantage", "resolver", "transport", "error_classes",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise MonitorConfigError(
                f"SLO entry has unknown keys: {', '.join(unknown)}"
            )
        try:
            return cls(
                name=data["name"],
                kind=data["kind"],
                threshold=float(data["threshold"]),
                severity=data.get("severity", "warning"),
                vantage=data.get("vantage", "*"),
                resolver=data.get("resolver", "*"),
                transport=data.get("transport", "*"),
                error_classes=tuple(data.get("error_classes", ())),
            )
        except KeyError as exc:
            raise MonitorConfigError(f"SLO entry missing key: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise MonitorConfigError(f"malformed SLO entry: {exc}") from exc


@dataclass(frozen=True)
class SloPolicy:
    """A set of objectives plus shared window and change-point settings."""

    specs: Tuple[SloSpec, ...]
    window: WindowConfig = field(default_factory=WindowConfig)
    cusum: CusumConfig = field(default_factory=CusumConfig)

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.specs]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise MonitorConfigError(
                f"duplicate SLO names: {', '.join(duplicates)}"
            )

    def specs_for(
        self, vantage: str, resolver: str, transport: str
    ) -> List[SloSpec]:
        """Objectives applying to one group, in declaration order."""
        return [
            spec for spec in self.specs
            if spec.matches(vantage, resolver, transport)
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window": self.window.to_dict(),
            "cusum": self.cusum.to_dict(),
            "slos": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloPolicy":
        if not isinstance(data, dict):
            raise MonitorConfigError(
                f"SLO policy must be a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"window", "cusum", "slos"})
        if unknown:
            raise MonitorConfigError(
                f"SLO policy has unknown sections: {', '.join(unknown)}"
            )
        window_data = dict(data.get("window", {}))
        if "span_ms" in window_data and window_data["span_ms"] is not None:
            window_data["span_ms"] = float(window_data["span_ms"])
        try:
            window = WindowConfig(**window_data)
            cusum = CusumConfig(**dict(data.get("cusum", {})))
        except TypeError as exc:
            raise MonitorConfigError(f"malformed window/cusum section: {exc}") from exc
        entries = data.get("slos", [])
        if not isinstance(entries, list) or not entries:
            raise MonitorConfigError("SLO policy needs a non-empty 'slos' list")
        specs = tuple(SloSpec.from_dict(entry) for entry in entries)
        return cls(specs=specs, window=window, cusum=cusum)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SloPolicy":
        """Load a policy from a ``.toml`` or ``.json`` file.

        The two formats carry the same structure — a ``[window]`` table, a
        ``[cusum]`` table and a list of ``[[slos]]`` entries.
        """
        return cls.from_dict(read_document(path, MonitorConfigError, "SLO policy"))

    def save_json(self, path: Union[str, Path]) -> Path:
        return write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )


def default_policy(
    window: Optional[WindowConfig] = None,
    cusum: Optional[CusumConfig] = None,
) -> SloPolicy:
    """Fleet-wide objectives derived from the paper's measured baselines."""
    return SloPolicy(
        specs=(
            SloSpec(
                name="availability-floor",
                kind="availability",
                threshold=0.94,
                severity="critical",
            ),
            SloSpec(
                name="latency-p95-ceiling",
                kind="latency_p95",
                threshold=750.0,
                severity="warning",
            ),
            SloSpec(
                name="latency-p99-ceiling",
                kind="latency_p99",
                threshold=1500.0,
                severity="warning",
            ),
            SloSpec(
                name="establishment-error-budget",
                kind="error_budget",
                threshold=0.10,
                severity="critical",
            ),
        ),
        window=window if window is not None else WindowConfig(),
        cusum=cusum if cusum is not None else CusumConfig(),
    )
