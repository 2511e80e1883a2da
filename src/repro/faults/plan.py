"""Deterministic fault plans: time-windowed impairments on resolvers.

The paper's availability finding — ~311k of ~5.4M query attempts failed
(≈5.8%), dominated by connection-establishment errors with *no consistent
per-resolver pattern* — is a statement about transient behaviour.  A
static per-link Bernoulli loss rate cannot reproduce it; what is needed
is resolvers that are briefly refusing, silently dropping, mis-handshaking
or degraded, at different times, round after round.

A :class:`FaultPlan` is an explicit, seeded list of :class:`FaultEvent`
windows.  The plan is pure data: generating it draws no simulation state,
so the same seed always yields byte-identical plans across processes
(seeding uses CRC32, not Python's randomized ``hash``), and a plan can be
serialized, inspected and replayed.  The
:class:`~repro.faults.injector.FaultInjector` schedules the windows on
the virtual clock.

Besides the network kinds, a window can carry one of the five answer
kinds (:data:`ANSWER_KINDS`): for its duration the resolver answers one
``domain`` wrongly, in the way the kind names.  The clean world agrees
everywhere, so these are what the differencing engine (:mod:`repro.diff`)
has to classify back into its taxonomy.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.seeding import derive_rng
from repro.errors import CampaignConfigError


class FaultKind(str, Enum):
    """What a fault window does to the resolver it targets."""

    #: Every inbound SYN is answered with RST (fast "connection refused").
    OUTAGE_REFUSE = "outage_refuse"
    #: Every inbound SYN is silently dropped (client connect timeout).
    OUTAGE_DROP = "outage_drop"
    #: TLS handshakes are aborted with a fatal alert.
    TLS_WINDOW = "tls_window"
    #: Extra Bernoulli loss on every packet to/from the resolver's hosts.
    LOSS_SPIKE = "loss_spike"
    #: Extra one-way delay on every packet to/from the resolver's hosts.
    LATENCY_SPIKE = "latency_spike"
    #: Extra frontend service time per query (overload / slow start).
    DEGRADATION = "degradation"
    #: Answers for one domain are NXDOMAIN (diffs as nxdomain_vs_noerror).
    NXDOMAIN = "nxdomain"
    #: Answers for one domain are SERVFAIL (rcode_mismatch).
    SERVFAIL = "servfail"
    #: A records for one domain move into TEST-NET-3 (answer_set_mismatch).
    REWRITE = "rewrite"
    #: TTLs for one domain drop to 5 s (ttl_band_drift).
    TTL = "ttl"
    #: Answers for one domain are truncated, TC set (truncation).
    TRUNCATE = "truncate"


#: The answer kinds, in the order :meth:`FaultPlan.answer_faults` fills them.
ANSWER_KINDS = (
    FaultKind.NXDOMAIN,
    FaultKind.SERVFAIL,
    FaultKind.REWRITE,
    FaultKind.TTL,
    FaultKind.TRUNCATE,
)


#: Kinds whose magnitude is a probability in [0, 1].
_PROBABILITY_KINDS = frozenset({FaultKind.LOSS_SPIKE})
#: Kinds whose magnitude is a duration in milliseconds.
_DELAY_KINDS = frozenset({FaultKind.LATENCY_SPIKE, FaultKind.DEGRADATION})


@dataclass(frozen=True)
class FaultEvent:
    """One impairment window on one resolver deployment.

    ``magnitude`` is kind-dependent: a loss probability for
    :attr:`FaultKind.LOSS_SPIKE`, extra milliseconds for
    :attr:`FaultKind.LATENCY_SPIKE`/:attr:`FaultKind.DEGRADATION`, and
    unused (0) for the other kinds.  ``domain`` is the name an answer kind
    answers wrongly, and empty for every other kind.
    """

    kind: FaultKind
    hostname: str
    start_ms: float
    duration_ms: float
    magnitude: float = 0.0
    domain: str = ""

    def __post_init__(self) -> None:
        if not self.hostname:
            raise CampaignConfigError("fault event needs a target hostname")
        if (self.kind in ANSWER_KINDS) != bool(self.domain):
            raise CampaignConfigError(
                f"{self.kind.value} fault on {self.hostname}: an answer kind "
                f"names a domain and no other kind does (got {self.domain!r})"
            )
        if not math.isfinite(self.start_ms + self.duration_ms):
            raise CampaignConfigError(
                f"fault window [{self.start_ms!r}, +{self.duration_ms!r}) is not finite"
            )
        if self.start_ms < 0:
            raise CampaignConfigError(f"fault start {self.start_ms!r} is negative")
        if self.duration_ms <= 0:
            raise CampaignConfigError(f"fault duration {self.duration_ms!r} must be positive")
        if self.kind in _PROBABILITY_KINDS and not 0.0 < self.magnitude <= 1.0:
            raise CampaignConfigError(
                f"{self.kind.value} magnitude {self.magnitude!r} must be a loss rate in (0, 1]"
            )
        if self.kind in _DELAY_KINDS and self.magnitude <= 0.0:
            raise CampaignConfigError(
                f"{self.kind.value} magnitude {self.magnitude!r} must be positive milliseconds"
            )

    @property
    def end_ms(self) -> float:
        return self.start_ms + self.duration_ms

    def to_dict(self) -> Dict:
        data = {
            "kind": self.kind.value,
            "hostname": self.hostname,
            "start_ms": self.start_ms,
            "duration_ms": self.duration_ms,
            "magnitude": self.magnitude,
        }
        if self.domain:
            data["domain"] = self.domain
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultEvent":
        return cls(
            kind=FaultKind(data["kind"]),
            hostname=data["hostname"],
            start_ms=float(data["start_ms"]),
            duration_ms=float(data["duration_ms"]),
            magnitude=float(data.get("magnitude", 0.0)),
            domain=data.get("domain", ""),
        )


#: Default mix of fault kinds, weighted so connection-establishment
#: failures (refuse + drop + TLS) dominate the resulting error breakdown,
#: as the paper observed.
DEFAULT_KIND_WEIGHTS: Dict[FaultKind, float] = {
    FaultKind.OUTAGE_REFUSE: 0.32,
    FaultKind.OUTAGE_DROP: 0.26,
    FaultKind.TLS_WINDOW: 0.20,
    FaultKind.LOSS_SPIKE: 0.10,
    FaultKind.LATENCY_SPIKE: 0.06,
    FaultKind.DEGRADATION: 0.06,
}


@dataclass(frozen=True)
class FaultPlanConfig:
    """Knobs of the random plan generator.

    ``impaired_time_fraction`` is the expected fraction of each resolver's
    (time × availability) budget covered by fault windows; because a query
    landing inside an outage/TLS window fails deterministically, it is
    approximately the error rate those kinds contribute.  The default
    (together with the catalog's steady-state reliability tiers) lands
    the overall campaign error rate in the paper's ≈5–6% band.
    """

    impaired_time_fraction: float = 0.030
    mean_window_ms: float = 45 * 60 * 1000.0  # 45 virtual minutes
    min_window_ms: float = 5 * 60 * 1000.0
    kind_weights: Dict[FaultKind, float] = field(
        default_factory=lambda: dict(DEFAULT_KIND_WEIGHTS)
    )
    loss_spike_rate: float = 0.9
    latency_spike_ms: float = 350.0
    degradation_ms: float = 180.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.impaired_time_fraction < 1.0:
            raise CampaignConfigError("impaired_time_fraction must be in [0, 1)")
        if self.mean_window_ms <= 0 or self.min_window_ms <= 0:
            raise CampaignConfigError("fault window durations must be positive")
        if not self.kind_weights or any(w < 0 for w in self.kind_weights.values()):
            raise CampaignConfigError("kind_weights must be non-empty and non-negative")
        if not 0.0 < self.loss_spike_rate <= 1.0:
            raise CampaignConfigError("loss_spike_rate must be in (0, 1]")


def _stable_seed(*parts: object) -> int:
    """Process-independent 32-bit seed from arbitrary parts (CRC32, not hash)."""
    material = "|".join(str(part) for part in parts).encode("utf-8")
    return zlib.crc32(material) & 0xFFFFFFFF


def _check_horizon(horizon_ms: float) -> None:
    if not (math.isfinite(horizon_ms) and horizon_ms > 0):
        raise CampaignConfigError(
            f"fault horizon {horizon_ms!r} must be a positive, finite number of ms"
        )


class FaultPlan:
    """An immutable schedule of fault windows over a set of resolvers."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.start_ms, e.hostname, e.kind.value, e.domain)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.events == other.events

    def events_for(self, hostname: str) -> List[FaultEvent]:
        return [event for event in self.events if event.hostname == hostname]

    def restricted_to(self, hostnames: Iterable[str]) -> "FaultPlan":
        """The sub-plan touching only ``hostnames``.

        Because :meth:`generate` derives an independent RNG per hostname,
        restricting a plan equals generating one for the subset: a
        campaign shard arms exactly the windows the full serial campaign
        would have armed for its resolvers.
        """
        wanted = set(hostnames)
        return FaultPlan(event for event in self.events if event.hostname in wanted)

    @property
    def hostnames(self) -> List[str]:
        return sorted({event.hostname for event in self.events})

    # -- generation -----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        hostnames: Sequence[str],
        horizon_ms: float,
        seed: int = 0,
        config: Optional[FaultPlanConfig] = None,
    ) -> "FaultPlan":
        """Draw a seeded random plan covering ``[0, horizon_ms)``.

        Each resolver gets its own derived RNG (so adding or removing one
        hostname does not reshuffle the others), and window placement is
        uniform over the horizon — transient failures hit different
        resolvers at different times, which is what produces the paper's
        "no consistent pattern" observation.
        """
        _check_horizon(horizon_ms)
        config = config or FaultPlanConfig()
        kinds = list(config.kind_weights.keys())
        weights = [config.kind_weights[k] for k in kinds]
        events: List[FaultEvent] = []
        for hostname in hostnames:
            rng = random.Random(_stable_seed("fault-plan", seed, hostname))
            budget_ms = config.impaired_time_fraction * horizon_ms
            while budget_ms > 0:
                duration = max(
                    config.min_window_ms, rng.expovariate(1.0 / config.mean_window_ms)
                )
                duration = min(duration, horizon_ms)
                # Spend the budget in expectation: short leftover budgets
                # convert into a *chance* of one more window, so the
                # expected impaired time matches the configured fraction.
                if duration > budget_ms and rng.random() > budget_ms / duration:
                    break
                budget_ms -= duration
                start = rng.uniform(0.0, max(0.0, horizon_ms - duration))
                kind = rng.choices(kinds, weights=weights, k=1)[0]
                if kind in _PROBABILITY_KINDS:
                    magnitude = config.loss_spike_rate
                elif kind == FaultKind.LATENCY_SPIKE:
                    magnitude = config.latency_spike_ms
                elif kind == FaultKind.DEGRADATION:
                    magnitude = config.degradation_ms
                else:
                    magnitude = 0.0
                events.append(
                    FaultEvent(
                        kind=kind,
                        hostname=hostname,
                        start_ms=start,
                        duration_ms=duration,
                        magnitude=magnitude,
                    )
                )
        return cls(events)

    @classmethod
    def answer_faults(
        cls,
        hostnames: Sequence[str],
        domains: Sequence[str],
        horizon_ms: float,
        seed: int = 0,
        per_kind: int = 1,
    ) -> "FaultPlan":
        """``per_kind`` distinct (hostname, domain) pairs per answer kind,
        each faulted over the whole of ``[0, horizon_ms)``.

        The pairs are sorted, shuffled with a derived RNG and consumed in
        :data:`ANSWER_KINDS` order: a pure function of the inputs, so every
        process (and every shard) derives the identical plan.
        """
        _check_horizon(horizon_ms)
        if per_kind < 1:
            raise CampaignConfigError(f"per_kind must be >= 1, got {per_kind!r}")
        pairs = [(h, d) for h in sorted(hostnames) for d in sorted(domains)]
        needed = per_kind * len(ANSWER_KINDS)
        if len(pairs) < needed:
            raise CampaignConfigError(
                f"{len(pairs)} (hostname, domain) pairs cannot host "
                f"{needed} answer faults"
            )
        derive_rng(seed, "answer-faults").shuffle(pairs)
        return cls(
            FaultEvent(kind, hostname, 0.0, horizon_ms, domain=domain)
            for index, kind in enumerate(ANSWER_KINDS)
            for hostname, domain in pairs[index * per_kind:(index + 1) * per_kind]
        )

    # -- persistence ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            [event.to_dict() for event in self.events],
            separators=(",", ":"),
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls(FaultEvent.from_dict(item) for item in json.loads(text))

    def describe(self) -> str:
        """Human-readable summary: events per kind and per resolver count,
        then one line per answer fault."""
        by_kind: Dict[str, int] = {}
        for event in self.events:
            by_kind[event.kind.value] = by_kind.get(event.kind.value, 0) + 1
        kinds = ", ".join(f"{kind}={count}" for kind, count in sorted(by_kind.items()))
        return "\n".join(
            [
                f"FaultPlan: {len(self.events)} windows over "
                f"{len(self.hostnames)} resolvers ({kinds or 'none'})"
            ]
            + [
                f"  {event.hostname} {event.domain} -> {event.kind.value}"
                for event in self.events
                if event.domain
            ]
        )
