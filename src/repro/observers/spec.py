"""Declarative observer specs and the fleet registry.

An :class:`ObserverSpec` names *one longitudinal question* about the
measurement stream — "is per-region availability holding?", "has a
resolver's p95 drifted off its long-horizon baseline?" — as data, not
code.  The spec fixes the metric kind, the grouping axis, the per-day
sample gate and the significance model's baseline parameters, so a fleet
is fully described by a list of specs and can be loaded from a JSON/TOML
file the same way SLO policies are.

The built-in fleet covers the five questions the poster's monthly
re-measurements were asking implicitly: regional availability, tail
latency drift, establishment-error pressure, encrypted-transport
(DoQ/DoH3) adoption, and cross-resolver answer agreement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import ObserverConfigError
from repro.files import check_spec, read_document, spec_from_table

#: Metric kinds an observer can watch, read per group and day (see
#: :mod:`repro.observers.fleet`).
OBSERVER_KINDS = (
    "availability",
    "latency_p95",
    "error_share",
    "adoption_share",
    "disagreement_rate",
)

#: Grouping axes: one observer group (and one baseline) per distinct value.
OBSERVER_SCOPES = ("fleet", "region", "resolver", "vantage")


@dataclass(frozen=True)
class BaselineConfig:
    """Long-horizon baseline and significance thresholds for one observer.

    The baseline is an EWMA over *daily* readings — ``alpha`` is therefore
    tiny compared to the record-level detectors in :mod:`repro.monitor`:
    at 0.05 the half-life is ~13 virtual days, a genuinely long horizon.
    A reading is significance-eligible only once ``min_days`` readings
    have been folded in (silence before that is warm-up, not health).

    ``min_delta`` is the minimum *practical* change — absolute in the
    metric's units, or relative to the baseline mean when ``relative`` is
    true (latency drifts are ratios; share shifts are absolute points).
    ``std_floor`` keeps the z-score finite on very quiet baselines: the
    observed deviation is standardized against ``max(std, std_floor)``.
    """

    alpha: float = 0.05
    min_days: int = 3
    z_warning: float = 3.0
    z_critical: float = 6.0
    min_delta: float = 0.05
    relative: bool = False
    std_floor: float = 0.01

    def __post_init__(self) -> None:
        check_spec(self, ObserverConfigError, "observer baseline")
        if not 0.0 < self.alpha <= 1.0:
            raise ObserverConfigError(f"baseline alpha {self.alpha!r} not in (0, 1]")
        if self.min_days < 1:
            raise ObserverConfigError(f"baseline min_days {self.min_days!r} must be >= 1")
        if not 0.0 < self.z_warning <= self.z_critical:
            raise ObserverConfigError(
                f"need 0 < z_warning <= z_critical, got "
                f"{self.z_warning!r} / {self.z_critical!r}"
            )
        if self.min_delta < 0.0:
            raise ObserverConfigError(f"min_delta {self.min_delta!r} must be >= 0")
        if self.std_floor <= 0.0:
            raise ObserverConfigError(f"std_floor {self.std_floor!r} must be > 0")


@dataclass(frozen=True)
class ObserverSpec:
    """One declarative longitudinal observer.

    ``min_samples`` gates each *daily* reading: a (group, day) cell with
    fewer contributing samples produces no reading at all — thin data
    neither updates the baseline nor can fire an event, which is what
    keeps a months-long sparse stream (1–3 measured days per month) from
    alarming on noise.  ``weight`` scales the observer's contribution to
    the world-health index.
    """

    name: str
    kind: str
    scope: str
    min_samples: int = 8
    baseline: BaselineConfig = field(default_factory=BaselineConfig)
    weight: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        check_spec(self, ObserverConfigError, f"observer {self.name!r}")
        if not self.name:
            raise ObserverConfigError("observer needs a non-empty name")
        if self.kind not in OBSERVER_KINDS:
            raise ObserverConfigError(
                f"unknown observer kind {self.kind!r} "
                f"(expected one of {', '.join(OBSERVER_KINDS)})"
            )
        if self.scope not in OBSERVER_SCOPES:
            raise ObserverConfigError(
                f"unknown observer scope {self.scope!r} "
                f"(expected one of {', '.join(OBSERVER_SCOPES)})"
            )
        if self.min_samples < 1:
            raise ObserverConfigError(
                f"observer {self.name!r}: min_samples must be >= 1"
            )
        if self.weight <= 0.0:
            raise ObserverConfigError(f"observer {self.name!r}: weight must be > 0")

    @property
    def axes(self) -> Tuple[str, ...]:
        """What a group of this observer is keyed by: the scope's axis (none
        for the fleet), then the transport for latency, which is only
        comparable within one -- a DoQ series ramping up next to an
        established DoH series must warm its own baseline."""
        axes = () if self.scope == "fleet" else (self.scope,)
        return axes + ("transport",) if self.kind == "latency_p95" else axes


@dataclass(frozen=True)
class FleetSpec:
    """An observer spec file: ``[[observers]]`` tables (TOML) or an
    ``{"observers": [...]}`` object (JSON), the same structure as an SLO
    policy's ``slos``."""

    observers: Tuple[ObserverSpec, ...]

    def __post_init__(self) -> None:
        check_spec(self, ObserverConfigError, "observer spec")


class ObserverRegistry:
    """Named observer specs, looked up by the fleet and the CLI."""

    def __init__(self, specs: Iterable[ObserverSpec] = ()) -> None:
        self._specs: Dict[str, ObserverSpec] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: ObserverSpec) -> ObserverSpec:
        if spec.name in self._specs:
            raise ObserverConfigError(f"duplicate observer name {spec.name!r}")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ObserverSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ObserverConfigError(
                f"unknown observer {name!r} (known: {', '.join(self.names()) or 'none'})"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._specs)

    def specs(self) -> List[ObserverSpec]:
        """All registered specs, in name order (the fleet's canonical order)."""
        return [self._specs[name] for name in self.names()]

    def select(self, names: Optional[Iterable[str]]) -> List[ObserverSpec]:
        """The named specs (all of them for ``None``), in name order."""
        if names is None:
            return self.specs()
        return [self.get(name) for name in sorted(set(names))]

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ObserverRegistry":
        """A registry from a ``.toml`` or ``.json`` :class:`FleetSpec` file."""
        data = read_document(path, ObserverConfigError, "observer spec")
        what = f"observer spec {path}"
        return cls(spec_from_table(FleetSpec, data, ObserverConfigError, what).observers)


def default_registry() -> ObserverRegistry:
    """The built-in five-observer fleet.

    Thresholds are conservative on purpose (world-observer style): a
    months-long quiet stream should read as an unbroken run of silence
    checkpoints, with significance reserved for changes an operator would
    actually re-investigate — the poster's "did performance change
    drastically?" question, asked per day instead of per re-measurement.
    """
    return ObserverRegistry(
        (
            ObserverSpec(
                name="region-availability",
                kind="availability",
                scope="region",
                min_samples=8,
                baseline=BaselineConfig(
                    alpha=0.1, min_days=3, min_delta=0.05, std_floor=0.02
                ),
                weight=1.5,
                description="daily DNS-query success share per resolver region",
            ),
            ObserverSpec(
                name="resolver-p95-drift",
                kind="latency_p95",
                scope="resolver",
                min_samples=5,
                baseline=BaselineConfig(
                    alpha=0.05,
                    min_days=3,
                    min_delta=0.25,
                    relative=True,
                    std_floor=5.0,
                ),
                weight=1.0,
                description="daily p95 response time per resolver vs a "
                            "long-horizon EWMA baseline",
            ),
            ObserverSpec(
                name="establishment-error-share",
                kind="error_share",
                scope="fleet",
                min_samples=20,
                baseline=BaselineConfig(
                    alpha=0.1, min_days=3, min_delta=0.05, std_floor=0.01
                ),
                weight=1.25,
                description="share of queries failing in connection "
                            "establishment (the poster's dominant error group)",
            ),
            ObserverSpec(
                name="doq-adoption",
                kind="adoption_share",
                scope="fleet",
                min_samples=20,
                baseline=BaselineConfig(
                    alpha=0.1, min_days=3, min_delta=0.10, std_floor=0.02
                ),
                # An adoption shift is an ecosystem signal worth an event,
                # not a health incident: weight it low enough that it can
                # never sink the index below WATCH on its own.
                weight=0.5,
                description="share of successful encrypted queries carried "
                            "over DoQ or DoH3",
            ),
            ObserverSpec(
                name="answer-disagreement",
                kind="disagreement_rate",
                scope="fleet",
                min_samples=10,
                baseline=BaselineConfig(
                    alpha=0.1, min_days=2, min_delta=0.05, std_floor=0.01
                ),
                weight=1.5,
                description="daily cross-resolver answer disagreement rate "
                            "from the consensus diff engine",
            ),
        )
    )


def scaled_registry(min_samples_factor: float) -> ObserverRegistry:
    """The default fleet with every per-day sample gate scaled.

    Small demo campaigns (a couple of rounds per day) need lower gates
    than a production stream; scaling the whole fleet keeps the relative
    strictness of the observers intact.
    """
    if min_samples_factor <= 0.0:
        raise ObserverConfigError("min_samples_factor must be > 0")
    return ObserverRegistry(
        replace(spec, min_samples=max(1, int(spec.min_samples * min_samples_factor)))
        for spec in default_registry().specs()
    )
