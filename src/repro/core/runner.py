"""Campaign orchestration: vantage × resolver × domain measurement sweeps.

A :class:`Campaign` reproduces the paper's measurement procedure.  In each
round, from each vantage point, for each target resolver:

1. issue one DoH query per study domain, measuring end-to-end response
   time (each query on a fresh connection by default, like ``dig``);
2. issue one ICMP ping and record the round-trip latency.

Every outcome — success or classified failure — lands in the
:class:`~repro.core.results.ResultStore` as one record.  A
:class:`RetryPolicy` optionally re-issues failed queries with exponential
backoff; the final record's ``attempts`` field counts the tries.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.core.errors_taxonomy import CONNECTION_ESTABLISHMENT_CLASSES, ErrorClass
from repro.core.probes import PingProbe, Probe, ProbeConfig, ProbeOutcome, make_probe
from repro.core.results import MeasurementRecord, ResultStore
from repro.core.scheduler import PeriodicSchedule
from repro.core.seeding import derive_rng
from repro.core.vantage import VantagePoint
from repro.errors import CampaignConfigError
from repro.netsim.network import Network
from repro.obs import (
    MetricsRegistry,
    SpanRecorder,
    get_metrics,
    get_recorder,
)
from repro.session import SessionBroker, SessionPolicy
from repro.transports import SESSION_TRANSPORTS, TRANSPORT_NAMES

#: Transports a campaign can measure (ping rides alongside, not listed).
VALID_TRANSPORTS = TRANSPORT_NAMES

#: Error classes a retry can plausibly help with: transient network and
#: connection-establishment conditions.  Protocol-level failures (bad
#: rcode, malformed message, HTTP error) repeat deterministically and are
#: not retried by default.
DEFAULT_RETRYABLE_CLASSES: FrozenSet[ErrorClass] = frozenset(
    CONNECTION_ESTABLISHMENT_CLASSES
    | {ErrorClass.CONNECTION_RESET, ErrorClass.TIMEOUT}
)


@dataclass(frozen=True)
class RetryPolicy:
    """Campaign-level retry behaviour for failed DNS queries.

    ``attempts`` is the total number of tries (1 = no retries).  The delay
    before attempt ``n+1`` is ``backoff_base_ms * backoff_factor**(n-1)``
    plus uniform jitter in ``[0, backoff_jitter_ms)`` drawn from the
    campaign's per-measurement RNG, so backoff stays deterministic under a
    fixed seed.
    """

    attempts: int = 1
    backoff_base_ms: float = 250.0
    backoff_factor: float = 2.0
    backoff_jitter_ms: float = 50.0
    retry_on: FrozenSet[ErrorClass] = DEFAULT_RETRYABLE_CLASSES
    #: Also store each intermediate failed attempt as a record with
    #: ``kind="dns_query_attempt"`` (final outcomes are always recorded).
    record_attempts: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.attempts, int) or self.attempts < 1:
            raise CampaignConfigError(
                f"retry attempts must be a positive integer, got {self.attempts!r}"
            )
        if self.backoff_base_ms < 0 or self.backoff_jitter_ms < 0:
            raise CampaignConfigError("retry backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise CampaignConfigError(
                f"backoff factor {self.backoff_factor!r} must be >= 1"
            )

    def should_retry(self, outcome: ProbeOutcome, attempt: int) -> bool:
        """Whether a failed ``attempt`` (1-based) warrants another try."""
        if outcome.success or attempt >= self.attempts:
            return False
        return outcome.error_class in self.retry_on

    def backoff_ms(self, attempt: int, rng: random.Random) -> float:
        """Delay before the attempt following ``attempt`` (1-based)."""
        delay = self.backoff_base_ms * self.backoff_factor ** (attempt - 1)
        if self.backoff_jitter_ms > 0:
            delay += rng.uniform(0.0, self.backoff_jitter_ms)
        return delay


@dataclass(frozen=True)
class ResolverTarget:
    """The campaign-facing view of one resolver under test."""

    hostname: str
    service_ip: str
    doh_path: str = "/dns-query"
    region: Optional[str] = None  # continent code, None if not geolocatable
    mainstream: bool = False

    def __post_init__(self) -> None:
        if not self.hostname or not self.service_ip:
            raise CampaignConfigError("target needs hostname and service_ip")


@dataclass(frozen=True)
class RoundProgress:
    """Snapshot handed to ``on_round_complete`` when a round finishes.

    "Finishes" means every (vantage, target) measurement set of that round
    has recorded its final outcomes — retries and pings included — which
    may be after later rounds have already started probing.
    """

    round_index: int
    completed_at_ms: float
    records_total: int
    errors_total: int
    measurements: int

    def describe(self) -> str:
        return (
            f"progress round={self.round_index} t_ms={self.completed_at_ms:.1f} "
            f"measurements={self.measurements} records={self.records_total} "
            f"errors={self.errors_total}"
        )


@dataclass
class CampaignConfig:
    """Parameters of one measurement campaign.

    ``transport`` selects the probe type — the paper's tool "enables
    researchers to issue traditional DNS, DoT, and DoH queries"; the study
    itself ran DoH, the default here.  ``transports`` (plural) turns the
    campaign into a scenario matrix: each measurement set sweeps every
    listed transport in order, and ``session_policy`` decides what happens
    to connections and session tickets between queries (see
    :mod:`repro.session`).
    """

    name: str
    domains: Sequence[str] = ("google.com", "amazon.com", "wikipedia.com")
    schedule: PeriodicSchedule = field(
        default_factory=lambda: PeriodicSchedule(rounds=3, interval_ms=8 * 3600 * 1000.0)
    )
    transport: str = "doh"
    #: When set, measure every listed transport per (vantage, target)
    #: instead of the single ``transport``.  A one-element tuple keeps the
    #: legacy RNG stream (byte-identical to ``transport=...``); with more
    #: transports each gets its own derived stream so adding one never
    #: perturbs another's records.
    transports: Optional[Sequence[str]] = None
    probe_config: ProbeConfig = field(default_factory=ProbeConfig)
    #: Session management between queries; ``None`` and the ``cold``
    #: policy are both the legacy per-query-teardown behaviour.
    session_policy: Optional[SessionPolicy] = None
    ping: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0
    #: Store the raw response message (hex) on each query record, enabling
    #: cross-resolver answer differencing (``repro.diff``).  Off by default:
    #: wire capture roughly doubles record size.
    capture_responses: bool = False

    def __post_init__(self) -> None:
        if not self.domains:
            raise CampaignConfigError("campaign needs at least one domain")
        if self.transport not in VALID_TRANSPORTS:
            raise CampaignConfigError(f"unknown transport {self.transport!r}")
        if self.transports is not None:
            if not self.transports:
                raise CampaignConfigError("transports must list at least one transport")
            unknown = [t for t in self.transports if t not in VALID_TRANSPORTS]
            if unknown:
                raise CampaignConfigError(f"unknown transports {unknown!r}")
            if len(set(self.transports)) != len(self.transports):
                raise CampaignConfigError("transports must not repeat")
            self.transports = tuple(self.transports)

    @property
    def transport_list(self) -> Sequence[str]:
        """The transports this campaign measures, in sweep order."""
        if self.transports is not None:
            return self.transports
        return (self.transport,)


class Campaign:
    """Runs one measurement campaign over the simulated world."""

    #: The ambient recorder and registry, read when run() starts (so
    #: ``with tracing():`` wraps run()): the protocol layers can only read
    #: that pair, and the campaign reports where they do.
    _active_recorder: SpanRecorder
    _active_metrics: MetricsRegistry

    def __init__(
        self,
        network: Network,
        vantages: Sequence[VantagePoint],
        targets: Sequence[ResolverTarget],
        config: CampaignConfig,
        store: Optional[ResultStore] = None,
        monitor: Optional[object] = None,
        on_round_complete: Optional[Callable[[RoundProgress], None]] = None,
    ) -> None:
        if not vantages:
            raise CampaignConfigError("campaign needs at least one vantage point")
        if not targets:
            raise CampaignConfigError("campaign needs at least one target")
        self.network = network
        self.vantages = list(vantages)
        self.targets = list(targets)
        self.config = config
        self.store = store if store is not None else ResultStore()
        self.on_round_complete = on_round_complete
        # One broker per Campaign instance: sharded runs build a fresh
        # world and a fresh Campaign per shard, so session caches can
        # never leak across shard boundaries by construction.
        policy = config.session_policy
        self._sessions: Optional[SessionBroker] = (
            SessionBroker(policy, network.loop)
            if policy is not None and policy.enabled
            else None
        )
        self._monitor = monitor
        self._campaign_span = 0
        self._round_spans: Dict[int, int] = {}
        self._round_outstanding: Dict[int, int] = {}
        self._errors_total = 0

    # -- execution -------------------------------------------------------------

    def run(self) -> ResultStore:
        """Schedule all rounds and drive the event loop to completion."""
        loop = self.network.loop
        recorder = self._active_recorder = get_recorder()
        metrics = self._active_metrics = get_metrics()
        if recorder.enabled:
            self._campaign_span = recorder.begin(
                "campaign",
                loop.now,
                campaign=self.config.name,
                transport=",".join(self.config.transport_list),
                vantages=len(self.vantages),
                targets=len(self.targets),
            )
        per_round = len(self.vantages) * len(self.targets)
        for round_index, round_start in self.config.schedule.round_items():
            start = max(round_start, loop.now)
            self._round_outstanding[round_index] = per_round
            if recorder.enabled:
                self._round_spans[round_index] = recorder.begin(
                    "round", start, parent_id=self._campaign_span, round=round_index
                )
            for vantage in self.vantages:
                for target in self.targets:
                    rng = self._rng_for(round_index, vantage, target)
                    offset = self.config.schedule.probe_offset(rng)
                    loop.call_at(
                        max(round_start + offset, loop.now),
                        self._measure_target,
                        round_index,
                        vantage,
                        target,
                        rng,
                    )
        self.network.run()
        if self._sessions is not None:
            self._sessions.close_all()
        if recorder.enabled and self._campaign_span:
            recorder.end(self._campaign_span, loop.now, records=len(self.store))
        if metrics.enabled:
            metrics.set_gauge("campaign.records", float(len(self.store)))
        return self.store

    def _rng_for(
        self, round_index: int, vantage: VantagePoint, target: ResolverTarget
    ) -> random.Random:
        """The (round, vantage, target) measurement's private RNG stream.

        Derived with a stable hash — not Python's salted ``hash`` — so the
        stream (and hence the probe stagger, backoff jitter, and every
        client-side draw) is identical across processes and identical
        whether the round runs inside a serial campaign or a shard.
        """
        return derive_rng(
            self.config.seed,
            "measurement",
            self.config.name,
            round_index,
            vantage.name,
            target.hostname,
        )

    def _transport_rng(
        self,
        round_index: int,
        vantage: VantagePoint,
        target: ResolverTarget,
        transport: str,
    ) -> random.Random:
        """RNG stream for one transport of a matrix measurement set.

        A single-transport campaign draws from the base measurement stream
        (so ``transports=("dot",)`` is byte-identical to the legacy
        ``transport="dot"``) and never comes here.  In a matrix each
        transport gets its own derived stream: adding or removing one
        transport never perturbs another's draws (and hence its records).
        """
        return derive_rng(
            self.config.seed,
            "measurement",
            self.config.name,
            round_index,
            vantage.name,
            target.hostname,
            transport,
        )

    # -- one (vantage, target) measurement set -----------------------------------

    def _make_probe(
        self,
        transport: str,
        vantage: VantagePoint,
        target: ResolverTarget,
        rng: random.Random,
    ) -> Probe:
        """Instantiate the probe for one transport of the campaign matrix.

        The campaign's probe config applies to every transport.  When a
        session policy is active the broker's wiring overrides its five
        session fields (reuse, ticket cache, early data, reject
        probability, certificate cost); otherwise they pass through
        unchanged.
        """
        wiring = {}
        if self._sessions is not None:
            key = (vantage.name, target.hostname, transport)
            wiring = vars(self._sessions.wiring(key))
        return make_probe(
            transport,
            vantage.host,
            target.service_ip,
            target.hostname,
            dataclasses.replace(
                self.config.probe_config, doh_path=target.doh_path, **wiring
            ),
            rng,
            self._active_recorder,
        )

    def _measure_target(
        self,
        round_index: int,
        vantage: VantagePoint,
        target: ResolverTarget,
        rng: random.Random,
    ) -> None:
        run = _TargetRun(self, round_index, vantage, target, rng)
        loop = self.network.loop
        recorder = self._active_recorder
        if recorder.enabled:
            run.span = recorder.begin(
                "measurement",
                loop.now,
                parent_id=self._round_spans.get(round_index) or None,
                vantage=vantage.name,
                resolver=target.hostname,
                round=round_index,
            )
        run.run_transport(0)
        if self.config.ping:
            run.ping_started = loop.now
            PingProbe(vantage.host, target.service_ip).send(run.on_ping)

    # -- recording -----------------------------------------------------------------

    def _record_query(
        self,
        round_index: int,
        vantage: VantagePoint,
        target: ResolverTarget,
        transport: str,
        domain: str,
        started_at: float,
        outcome: ProbeOutcome,
        attempts: int = 1,
        kind: str = "dns_query",
    ) -> None:
        record = MeasurementRecord(
            campaign=self.config.name,
            vantage=vantage.name,
            resolver=target.hostname,
            kind=kind,
            transport=transport,
            domain=domain,
            round_index=round_index,
            started_at_ms=started_at,
            duration_ms=outcome.duration_ms,
            success=outcome.success,
            error_class=outcome.error_class.value if outcome.error_class else None,
            rcode=outcome.rcode,
            http_status=outcome.http_status,
            http_version=outcome.http_version,
            tls_version=outcome.tls_version,
            response_size=outcome.response_size,
            connection_reused=outcome.connection_reused,
            attempts=attempts,
            connect_ms=outcome.connect_ms,
            tls_ms=outcome.tls_ms,
            query_ms=outcome.query_ms,
            failed_phase=outcome.failed_phase,
            response_wire=(
                outcome.response_wire.hex()
                if self.config.capture_responses
                and outcome.response_wire is not None
                else None
            ),
            # Session fields stay None (and absent from JSON) unless an
            # active policy governs this transport — legacy output frozen.
            session_state=(
                outcome.session_state
                if self._sessions is not None and transport in SESSION_TRANSPORTS
                else None
            ),
            session_policy=(
                self.config.session_policy.mode
                if self._sessions is not None and transport in SESSION_TRANSPORTS
                else None
            ),
        )
        self.store.add(record)
        if self._monitor is not None:
            self._monitor.observe(record)
        if kind == "dns_query" and not outcome.success:
            self._errors_total += 1
        metrics = self._active_metrics
        if metrics.enabled:
            metrics.inc("campaign.queries", transport=transport, kind=kind)
            if outcome.success:
                if outcome.duration_ms is not None:
                    metrics.observe(
                        "campaign.query_ms",
                        outcome.duration_ms,
                        transport=transport,
                    )
            elif outcome.error_class is not None:
                metrics.inc(
                    "campaign.query_errors",
                    error_class=outcome.error_class.value,
                    transport=transport,
                )

    def _record_ping(
        self,
        round_index: int,
        vantage: VantagePoint,
        target: ResolverTarget,
        started_at: float,
        outcome: ProbeOutcome,
    ) -> None:
        record = MeasurementRecord(
            campaign=self.config.name,
            vantage=vantage.name,
            resolver=target.hostname,
            kind="ping",
            transport="icmp",
            domain=None,
            round_index=round_index,
            started_at_ms=started_at,
            duration_ms=outcome.duration_ms,
            success=outcome.success,
            error_class=outcome.error_class.value if outcome.error_class else None,
        )
        self.store.add(record)
        if self._monitor is not None:
            self._monitor.observe(record)
        if not outcome.success:
            self._errors_total += 1
        metrics = self._active_metrics
        if metrics.enabled:
            metrics.inc("campaign.pings", success=outcome.success)
            if outcome.success and outcome.duration_ms is not None:
                metrics.observe("campaign.ping_ms", outcome.duration_ms)

    # -- round completion -----------------------------------------------------------

    def _round_done(self, round_index: int) -> None:
        """One (vantage, target) measurement set of ``round_index`` finished."""
        self._round_outstanding[round_index] -= 1
        if self._round_outstanding[round_index] > 0:
            return
        now = self.network.loop.now
        recorder = self._active_recorder
        span_id = self._round_spans.get(round_index)
        if recorder.enabled and span_id:
            recorder.end(span_id, now, records=len(self.store))
        metrics = self._active_metrics
        if metrics.enabled:
            metrics.inc("campaign.rounds_completed")
            metrics.set_gauge("campaign.records", float(len(self.store)))
            metrics.set_gauge("campaign.errors", float(self._errors_total))
        if self.on_round_complete is not None:
            self.on_round_complete(
                RoundProgress(
                    round_index=round_index,
                    completed_at_ms=now,
                    records_total=len(self.store),
                    errors_total=self._errors_total,
                    measurements=len(self.vantages) * len(self.targets),
                )
            )


class _TargetRun:
    """One (round, vantage, target) measurement set in flight.

    Every listed transport in order, per transport every domain in order,
    per domain one query and its retries, with the ping alongside.  The
    steps are methods and the position is state, where closures that
    named themselves were reference cycles pinning the whole probe until
    the collector ran (DESIGN.md, "Object lifetime"): the run is held by
    whatever it is waiting on — a probe's outcome callback, a backoff
    timer, the ping — and by nothing once the last of them has fired.
    """

    __slots__ = (
        "campaign", "round_index", "vantage", "target", "rng", "span", "parts",
        "transports", "domains", "t_index", "transport", "t_rng", "key", "probe",
        "managed", "d_index", "number", "started", "ping_started",
    )

    def __init__(
        self,
        campaign: Campaign,
        round_index: int,
        vantage: VantagePoint,
        target: ResolverTarget,
        rng: random.Random,
    ) -> None:
        config = campaign.config
        self.campaign = campaign
        self.round_index = round_index
        self.vantage = vantage
        self.target = target
        self.rng = rng
        self.span = 0
        self.parts = 1 + (1 if config.ping else 0)
        self.transports = config.transport_list
        self.domains = config.domains
        self.probe: Optional[Probe] = None

    def part_done(self) -> None:
        self.parts -= 1
        if self.parts == 0:
            campaign = self.campaign
            recorder = campaign._active_recorder
            if recorder.enabled and self.span:
                recorder.end(self.span, campaign.network.loop.now)
            campaign._round_done(self.round_index)

    def run_transport(self, t_index: int) -> None:
        transports = self.transports
        count = len(transports)
        if t_index >= count:
            self.part_done()
            return
        campaign = self.campaign
        vantage = self.vantage
        target = self.target
        self.t_index = t_index
        transport = self.transport = transports[t_index]
        t_rng = self.t_rng = (
            self.rng
            if count == 1
            else campaign._transport_rng(self.round_index, vantage, target, transport)
        )
        key = self.key = (vantage.name, target.hostname, transport)
        broker = campaign._sessions
        self.managed = (
            broker is not None
            and broker.keeps_probes
            and transport in SESSION_TRANSPORTS
        )
        if self.managed:
            self.probe = broker.checkout(
                key,
                t_rng,
                lambda: campaign._make_probe(transport, vantage, target, t_rng),
            )
        else:
            self.probe = campaign._make_probe(transport, vantage, target, t_rng)
        self.query_next(0)

    def query_next(self, index: int) -> None:
        if index >= len(self.domains):
            probe, self.probe = self.probe, None
            if self.managed:
                self.campaign._sessions.release(self.key, probe)
            else:
                probe.close()
            self.run_transport(self.t_index + 1)
            return
        self.d_index = index
        self.attempt(1)

    def attempt(self, number: int) -> None:
        campaign = self.campaign
        self.number = number
        self.started = campaign.network.loop.now
        broker = campaign._sessions
        if broker is not None:
            broker.before_query(self.key, self.probe)
        self.probe.query(
            self.domains[self.d_index], self.on_outcome, span_parent=self.span
        )

    def on_outcome(self, outcome: ProbeOutcome) -> None:
        campaign = self.campaign
        number = self.number
        transport = self.transport
        domain = self.domains[self.d_index]
        policy = campaign.config.retry
        broker = campaign._sessions
        if broker is not None:
            broker.after_query(self.key)
        if policy.should_retry(outcome, number):
            if policy.record_attempts:
                campaign._record_query(
                    self.round_index, self.vantage, self.target, transport, domain,
                    self.started, outcome, attempts=number,
                    kind="dns_query_attempt",
                )
            metrics = campaign._active_metrics
            if metrics.enabled:
                metrics.inc("campaign.retries", transport=transport)
            campaign.network.loop.call_later(
                policy.backoff_ms(number, self.t_rng), self.attempt, number + 1
            )
            return
        campaign._record_query(
            self.round_index, self.vantage, self.target, transport, domain,
            self.started, outcome, attempts=number,
        )
        self.query_next(self.d_index + 1)

    def on_ping(self, outcome: ProbeOutcome) -> None:
        campaign = self.campaign
        started = self.ping_started
        campaign._record_ping(self.round_index, self.vantage, self.target, started, outcome)
        recorder = campaign._active_recorder
        if recorder.enabled:
            recorder.emit(
                "probe",
                started,
                campaign.network.loop.now,
                parent_id=self.span or None,
                status="ok" if outcome.success else "error",
                transport="icmp",
                server=self.target.hostname,
            )
        self.part_done()
