"""Object lifetime: a finished probe frees itself.

Every connection a probe opens is a small object graph — sockets, TLS or
QUIC endpoints, HTTP sessions, the probe's shot and the runner's
measurement state — whose layers point at each other through hooks.  The
rule (DESIGN.md, "Object lifetime") is that a layer that closes reads the
hook it is about to call, drops every hook it was given, then calls the
one it read, exactly once; so reference counting frees the whole graph at
teardown and the cyclic collector, left on at its defaults, finds nothing.

These tests run with the collector *disabled* and ask it afterwards what
it would have had to free: the answer must be zero objects, for every row
of the transport table, every session policy and every way a probe can
end.  Weak references to each connection object say when it died, and
counting hooks say how often each ``on_close`` / ``on_error`` fired.

The dnswire / h2 / h3 memo tables are long-lived by design and hold no
connection objects; they are outside what is tracked here by construction
(only connection-layer classes are wrapped), not by an allow-list.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import weakref
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.core.errors_taxonomy import ErrorClass
from repro.core.probes import ProbeConfig, make_probe
from repro.core.results import ResultStore
from repro.core.runner import Campaign, CampaignConfig, ResolverTarget, RetryPolicy
from repro.core.scheduler import PeriodicSchedule
from repro.dnswire.types import TYPE_TXT
from repro.httpsim.h2 import H2ClientSession, H2ServerSession
from repro.netsim.host import EPHEMERAL_PORT_START
from repro.netsim.network import Network
from repro.netsim.packet import Datagram, Segment
from repro.netsim.sockets import SimTcpConnection, SimUdpSocket
from repro.quicsim.connection import (
    QuicClientConnection,
    QuicServerListener,
    _QuicServerConnection,
)
from repro.quicsim.packets import decode_packet
from repro.session import policy_from_name
from repro.tlssim.handshake import (
    TlsClientConnection,
    TlsServerConnection,
    _TlsEndpoint,
)
from repro.transports import SESSION_TRANSPORTS, TRANSPORT_NAMES, TRANSPORTS

from tests.conftest import add_host, make_quiet_network

#: Speaks all five transports; anycast, so it is near every vantage.
RESOLVER = "dns.adguard.com"
VANTAGE = "ec2-ohio"
POLICIES = ("cold", "keep-alive", "resumption", "zero-rtt")

#: Every class a connection is made of, on either end.
TRACKED = (
    SimTcpConnection,
    SimUdpSocket,
    TlsClientConnection,
    TlsServerConnection,
    QuicClientConnection,
    _QuicServerConnection,
    H2ClientSession,
    H2ServerSession,
)
#: The hooks a layer is given by the layer above it.
HOOKS = {
    SimTcpConnection: ("on_data", "on_close", "on_error", "_on_established"),
    SimUdpSocket: ("on_datagram",),
    _TlsEndpoint: ("on_application_data", "on_close", "on_error", "_on_established"),
    QuicClientConnection: ("on_error", "_on_established"),
}


class _CountingHook:
    """Data descriptor standing in for one hook attribute of one class.

    Stores what the layer above assigns, and hands the layer a wrapper
    that counts the call against the object's serial number.  The wrapper
    holds the serial, never the object, so the instrumentation adds no
    reference the code under test would have to break.
    """

    def __init__(self, name: str, fired: Counter) -> None:
        self.name = name
        self.slot = f"_lifetime_{name}"
        self.fired = fired

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.get(self.slot)

    def __set__(self, obj, value) -> None:
        if value is None:
            obj.__dict__[self.slot] = None
            return
        key = (obj.__dict__["_lifetime_serial"], self.name)
        fired = self.fired

        def counted(*args):
            fired[key] += 1
            return value(*args)

        obj.__dict__[self.slot] = counted


class Lifetimes:
    """Weak references to every tracked object made while installed, the
    number of times each ``on_close`` / ``on_error`` hook fired, and the
    FINs and QUIC close frames the network lost."""

    def __init__(self, monkeypatch) -> None:
        self.refs = []  # (serial, class name, weakref)
        self.fired: Counter = Counter()
        self.lost_fins = set()  # conn_id of a client FIN the network dropped
        self.server_fins = set()  # conn_id of every FIN a listening side sent
        self.lost_quic_closes = set()  # conn_id of a close frame the network dropped
        self.quic_server_conns = set()  # conn_id of every server connection made
        self._serials = itertools.count(1)
        for cls in TRACKED:
            self._wrap_init(monkeypatch, cls)
        for cls, names in HOOKS.items():
            for name in names:
                if name in ("on_close", "on_error"):
                    monkeypatch.setattr(
                        cls, name, _CountingHook(name, self.fired), raising=False
                    )
        self._wrap_transmit(monkeypatch)

    def _wrap_init(self, monkeypatch, cls) -> None:
        original = cls.__init__
        lifetimes = self

        def __init__(self, *args, **kwargs):
            serial = next(lifetimes._serials)
            self.__dict__["_lifetime_serial"] = serial
            original(self, *args, **kwargs)
            lifetimes.refs.append((serial, cls.__name__, weakref.ref(self)))
            if cls is _QuicServerConnection:
                lifetimes.quic_server_conns.add(self.conn_id)

        monkeypatch.setattr(cls, "__init__", __init__)

    def _wrap_transmit(self, monkeypatch) -> None:
        original = Network.transmit
        lifetimes = self

        def transmit(network, sender, packet):
            delivered = original(network, sender, packet)
            if isinstance(packet, Segment) and packet.flag == "FIN":
                if packet.src_port < EPHEMERAL_PORT_START:  # sent by the listening side
                    lifetimes.server_fins.add(packet.conn_id)
                elif not delivered:
                    lifetimes.lost_fins.add(packet.conn_id)
            elif (
                not delivered
                and isinstance(packet, Datagram)
                and packet.protocol == "udp"
                and packet.src_port >= EPHEMERAL_PORT_START
                and packet.dst_port in (853, 443)
            ):
                quic = decode_packet(packet.payload)
                if any(frame.get("type") == "close" for frame in quic.frames):
                    lifetimes.lost_quic_closes.add(quic.conn_id)
            return delivered

        monkeypatch.setattr(Network, "transmit", transmit)

    # -- what is alive ---------------------------------------------------------

    def alive(self):
        return [
            (serial, name, ref()) for serial, name, ref in self.refs if ref() is not None
        ]

    def alive_names(self):
        return sorted(name for _serial, name, _obj in self.alive())

    @property
    def high_water(self) -> int:
        return self.refs[-1][0] if self.refs else 0

    # -- what fired --------------------------------------------------------------

    def assert_each_hook_fired_at_most_once(self) -> None:
        """A connection ends once: one ``on_close`` or one ``on_error``, not both."""
        per_object: Counter = Counter()
        for (serial, _name), count in self.fired.items():
            per_object[serial] += count
        twice = {serial: count for serial, count in per_object.items() if count > 1}
        assert not twice, f"hooks fired more than once for one connection: {twice}"


@pytest.fixture
def lifetimes(monkeypatch):
    return Lifetimes(monkeypatch)


@contextmanager
def collector_off():
    """Run the body with the cyclic collector disabled, starting clean."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _pinned_by_timers(loop) -> set:
    """Ids of the objects a still-armed timer holds.

    A lost segment's retransmission, a crypto delay or a QUIC probe
    timeout stays in the heap after its connection closed; it fires into
    a closed layer, does nothing, and only then lets the object go.
    Cancelling them instead would change ``sim.events_per_record``.
    """
    pinned = set()
    for timer in loop._heap:
        callback = timer[2]
        if callback is None:
            continue
        holders = [getattr(callback, "__self__", None), *timer[3]]
        holders += [c.cell_contents for c in getattr(callback, "__closure__", None) or ()]
        for holder in holders:
            pinned.add(id(holder))
            for below in ("tcp", "_socket"):
                pinned.add(id(getattr(holder, below, None)))
    return pinned


@pytest.fixture(scope="module")
def world():
    from repro.catalog.resolvers import CATALOG
    from repro.experiments.world import build_world

    catalog = [entry for entry in CATALOG if entry.hostname == RESOLVER]
    return build_world(seed=9, catalog=catalog, warm_caches=True)


def _server_hosts(world):
    return world.deployment(RESOLVER).site_hosts()


def _leftover_server_halves(world) -> set:
    return {
        conn_id for host in _server_hosts(world) for conn_id in host._tcp_connections
    }


def _leftover_quic_server_conns(world) -> set:
    return {
        conn_id
        for site in world.deployment(RESOLVER).sites
        for frontend in site.frontends
        if isinstance(getattr(frontend, "listener", None), QuicServerListener)
        for conn_id in frontend.listener._connections
    }


# ---------------------------------------------------------------------------
# The matrix: transport x session policy x outcome, through Campaign
# ---------------------------------------------------------------------------


class _CheckingStore(ResultStore):
    """Checks, at every outcome, that what the probe opened is gone.

    ``add`` runs inside the runner's outcome callback, under the frames
    of the event that completed the query, so the check is scheduled for
    the same virtual instant: the next event the loop runs.
    """

    def __init__(self, lifetimes: Lifetimes, loop, client_host, keeps_alive: bool) -> None:
        super().__init__()
        self.lifetimes = lifetimes
        self.loop = loop
        self.client_host = client_host
        self.keeps_alive = keeps_alive
        self.checks = 0
        self.problems = []

    def add(self, record) -> None:
        super().add(record)
        if record.kind != "ping":
            self.loop.call_at(self.loop.now, self._check, self.lifetimes.high_water)

    def _is_client_side(self, obj) -> bool:
        if isinstance(obj, (TlsClientConnection, QuicClientConnection, H2ClientSession)):
            return True
        if isinstance(obj, SimTcpConnection):
            return obj.is_client
        return isinstance(obj, SimUdpSocket) and obj.host is self.client_host

    def _check(self, up_to: int) -> None:
        self.checks += 1
        pinned = _pinned_by_timers(self.loop)
        lingering = [
            name
            for serial, name, obj in self.lifetimes.alive()
            if serial <= up_to and self._is_client_side(obj) and id(obj) not in pinned
        ]
        if self.keeps_alive:
            # The broker's probe keeps one connection: its layers, once each.
            if max(Counter(lingering).values(), default=0) > 1:
                self.problems.append(lingering)
        elif lingering:
            self.problems.append(lingering)


@dataclasses.dataclass
class Scenario:
    """One way for a probe to end, and the knobs that bring it about."""

    name: str
    #: Connection kinds (of the transport table) the scenario applies to.
    kinds: tuple = ("tls", "quic", "udp")
    policies: tuple = POLICIES
    #: Probe deadline as a function of the reference phase timings.
    timeout_ms: object = None
    impairment: dict = dataclasses.field(default_factory=dict)
    doh_path: str = "/dns-query"
    retry: RetryPolicy = RetryPolicy()
    policy_overrides: dict = dataclasses.field(default_factory=dict)
    #: ``server_action(world, loop)`` scheduled half-way between the rounds.
    between_rounds: object = None
    #: Abort every server half this long after it is accepted.
    reset_after_ms: object = None
    #: Checked against the campaign's query records.
    expect: object = None


def _hang_up(conn: SimTcpConnection, how: str = "close") -> None:
    """The server process goes away: FIN (``close``) or RST (``abort``) to the
    peer, and the TLS endpoint that owned the connection, if any, closed too
    (an owner closes through its own ``close``; nothing in ``src`` closes a
    connection out from under the layer above it)."""
    owner = getattr(conn.on_data, "__self__", None)
    getattr(conn, how)()
    if isinstance(owner, _TlsEndpoint):
        owner.close()


def _close_server_halves(world, _loop) -> None:
    for host in _server_hosts(world):
        for conn in list(host._tcp_connections.values()):
            _hang_up(conn)


def _answered(record) -> bool:
    """Answered, if now and then with the SERVFAIL the deployment's own
    reliability model injects."""
    return record.success or record.error_class == ErrorClass.DNS_RCODE.value


SCENARIOS = [
    Scenario("answer", expect=lambda rs, ref: all(map(_answered, rs))),
    Scenario(
        "timeout-mid-connect",
        timeout_ms=lambda ref: 2.0,  # less than one round trip to anywhere
        expect=lambda rs, ref: rs and not any(r.success for r in rs),
    ),
    Scenario(
        "timeout-mid-handshake",
        kinds=("tls",),
        timeout_ms=lambda ref: ref.connect_ms + 0.5 * ref.tls_ms,
        expect=lambda rs, ref: any(r.failed_phase == "tls_handshake" for r in rs),
    ),
    Scenario(
        "timeout-mid-exchange",
        timeout_ms=lambda ref: (ref.connect_ms or 0.0) + (ref.tls_ms or 0.0)
        + 0.5 * ref.query_ms,
        expect=lambda rs, ref: any(
            r.error_class == ErrorClass.TIMEOUT.value for r in rs
        ),
    ),
    Scenario(
        "refused",
        kinds=("tls",),
        impairment={"syn_override": "refuse"},
        expect=lambda rs, ref: all(
            r.error_class == ErrorClass.CONNECT_REFUSED.value for r in rs
        ),
    ),
    Scenario(
        "reset-mid-stream",
        kinds=("tls",),
        # The acceptor runs at establishment: one handshake later the query
        # arrives, and the server takes at least 2 ms to answer it.
        reset_after_ms=lambda ref: ref.tls_ms + 1.0,
        expect=lambda rs, ref: any(
            r.error_class == ErrorClass.CONNECTION_RESET.value for r in rs
        ),
    ),
    Scenario(
        "tls-alert",
        kinds=("tls",),
        impairment={"tls_failure": True},
        # The alert and the FIN behind it race; when the FIN wins, the
        # client hears nothing and its own deadline ends the probe.
        expect=lambda rs, ref: all(r.failed_phase == "tls_handshake" for r in rs)
        and any(r.error_class == ErrorClass.TLS_HANDSHAKE.value for r in rs),
    ),
    Scenario(
        "http-non-200",
        kinds=("tls", "quic"),
        doh_path="/not-the-path",
        expect=lambda rs, ref: all(
            r.http_status is None or r.http_status != 200 for r in rs
        ),
    ),
    Scenario(
        "zero-rtt-rejected-then-replayed",
        kinds=("tls", "quic"),
        policies=("zero-rtt",),
        policy_overrides={"zero_rtt_reject_p": 1.0},
        expect=lambda rs, ref: all(map(_answered, rs))
        and not any(r.session_state == "zero_rtt" for r in rs),
    ),
    Scenario(
        "kept-alive-found-dead",
        kinds=("tls",),
        policies=("keep-alive",),
        between_rounds=_close_server_halves,
        expect=lambda rs, ref: all(map(_answered, rs))
        and [r.session_state for r in rs].count("cold") == 2,
    ),
    Scenario(
        "broker-evicts-idle",
        kinds=("tls", "quic"),
        policies=("keep-alive",),
        policy_overrides={"idle_ttl_ms": 1.0},
        # Idle between rounds, not between a round's two queries.
        expect=lambda rs, ref: all(map(_answered, rs))
        and [r.session_state for r in rs] == ["cold", "warm", "cold", "warm"],
    ),
    Scenario(
        "retries-recorded",
        impairment={"extra_loss_rate": 1.0},
        timeout_ms=lambda ref: 300.0,
        retry=RetryPolicy(attempts=3, record_attempts=True, backoff_base_ms=10.0),
        expect=lambda rs, ref: all(r.attempts == 3 for r in rs if r.kind == "dns_query")
        and sum(r.kind == "dns_query_attempt" for r in rs) == 2 * sum(
            r.kind == "dns_query" for r in rs
        ),
    ),
]


def _matrix():
    for transport in TRANSPORT_NAMES:
        row = TRANSPORTS[transport]
        for scenario in SCENARIOS:
            if row.connection not in scenario.kinds:
                continue
            if scenario.doh_path != "/dns-query" and row.framing not in ("http", "h3"):
                continue
            # Without a session there is one policy: every query stands alone.
            policies = scenario.policies if row.has_session else scenario.policies[:1]
            for policy in policies:
                yield pytest.param(
                    transport, policy, scenario, id=f"{transport}-{policy}-{scenario.name}"
                )


def _campaign(world, transport, policy_name, scenario, store, reference=None):
    loop = world.network.loop
    deployment = world.deployment(RESOLVER)
    policy = dataclasses.replace(
        policy_from_name(policy_name), **scenario.policy_overrides
    )
    probe_config = ProbeConfig(doh_path=scenario.doh_path)
    if scenario.timeout_ms is not None:
        probe_config = ProbeConfig(
            doh_path=scenario.doh_path, timeout_ms=scenario.timeout_ms(reference)
        )
    config = CampaignConfig(
        name=f"lifetime-{transport}-{policy_name}-{scenario.name}",
        domains=("google.com", "amazon.com"),
        schedule=PeriodicSchedule(
            rounds=2, interval_ms=20_000.0, start_ms=loop.now + 1.0, stagger_ms=0.0
        ),
        transports=(transport,),
        probe_config=probe_config,
        session_policy=policy,
        retry=scenario.retry,
        seed=3,
    )
    target = ResolverTarget(hostname=RESOLVER, service_ip=deployment.service_ip)
    return Campaign(
        network=world.network,
        vantages=[world.vantage(VANTAGE)],
        targets=[target],
        config=config,
        store=store,
    )


@pytest.fixture(scope="module")
def reference(world):
    """Phase timings of one cold, answered query per transport: what the
    deadline scenarios place their timeouts against."""
    timings = {}
    for transport in TRANSPORT_NAMES:
        store = ResultStore()
        _campaign(world, transport, "cold", SCENARIOS[0], store).run()
        world.network.run()
        timings[transport] = max(
            (r for r in store.records if r.kind == "dns_query" and r.success),
            key=lambda r: r.duration_ms,
        )
    return timings


@contextmanager
def _arranged(world, scenario, reference_record):
    """Put the world in the scenario's state; put it back afterwards."""
    loop = world.network.loop
    hosts = _server_hosts(world)
    listeners = [dict(host._tcp_listeners) for host in hosts]
    for host in hosts:
        for field_name, value in scenario.impairment.items():
            setattr(host.impairments, field_name, value)
        if scenario.reset_after_ms is not None:
            delay = scenario.reset_after_ms(reference_record)
            for port, acceptor in list(host._tcp_listeners.items()):

                def accept_then_reset(conn, acceptor=acceptor):
                    acceptor(conn)
                    loop.call_later(delay, _hang_up, conn, "abort")

                host._tcp_listeners[port] = accept_then_reset
    if scenario.between_rounds is not None:
        loop.call_at(loop.now + 10_000.0, scenario.between_rounds, world, loop)
    try:
        yield
    finally:
        for host, saved in zip(hosts, listeners):
            host.impairments.clear()
            host._tcp_listeners.clear()
            host._tcp_listeners.update(saved)


@pytest.mark.parametrize("transport,policy,scenario", _matrix())
def test_a_finished_campaign_leaves_nothing_for_the_collector(
    world, reference, lifetimes, transport, policy, scenario
):
    keeps_alive = policy == "keep-alive" and TRANSPORTS[transport].has_session
    store = _CheckingStore(
        lifetimes, world.network.loop, world.vantage(VANTAGE).host, keeps_alive
    )
    with collector_off(), _arranged(world, scenario, reference[transport]):
        campaign = _campaign(world, transport, policy, scenario, store, reference[transport])
        campaign.run()
        # Campaign.run closes the broker's kept-alive probes after the loop
        # has drained; their FINs and close frames are still in flight.
        world.network.run()
        del campaign
        unreachable = gc.collect()
    assert unreachable == 0, f"the collector found {unreachable} unreachable objects"

    queries = [r for r in store.records if r.kind != "ping"]
    assert len([r for r in queries if r.kind == "dns_query"]) == 4  # 2 rounds x 2 domains
    assert scenario.expect(queries, reference[transport]), [
        (r.kind, r.success, r.error_class, r.failed_phase, r.session_state, r.attempts)
        for r in queries
    ]

    # Client side: gone the instant each outcome callback returned.
    assert store.checks == len(queries)
    assert not store.problems, store.problems

    # Both sides, afterwards: nothing outlives the campaign but the server
    # halves whose FIN (or QUIC close frame) the network lost -- exactly those.
    orphans = lifetimes.lost_fins - lifetimes.server_fins
    assert _leftover_server_halves(world) == orphans
    quic_orphans = lifetimes.lost_quic_closes & lifetimes.quic_server_conns
    assert _leftover_quic_server_conns(world) == quic_orphans
    expected_alive = Counter()
    if orphans:
        expected_alive["SimTcpConnection"] = len(orphans)
        expected_alive["TlsServerConnection"] = len(orphans)
    if quic_orphans:
        expected_alive["_QuicServerConnection"] = len(quic_orphans)
    alive = Counter(lifetimes.alive_names())
    alive.pop("H2ServerSession", None)  # held by an orphan's hooks, if it got that far
    assert alive == expected_alive
    # The orphans are the world's to keep; tear them down for the next test.
    _close_server_halves(world, None)
    for site in world.deployment(RESOLVER).sites:
        for frontend in site.frontends:
            listener = getattr(frontend, "listener", None)
            if listener is not None:
                listener._connections.clear()

    lifetimes.assert_each_hook_fired_at_most_once()


# ---------------------------------------------------------------------------
# Outcomes a campaign cannot ask for: TC -> TCP fallback, fault plans armed
# ---------------------------------------------------------------------------


def test_tc_fallback_frees_the_socket_and_the_tcp_connection(world, lifetimes):
    deployment = world.deployment(RESOLVER)
    probe = make_probe(
        "do53", world.vantage(VANTAGE).host, deployment.service_ip, RESOLVER,
        ProbeConfig(), rng=random.Random(1),
    )
    outcomes = []
    with collector_off():
        probe.query("bulk.example-sites.net", outcomes.append, qtype=TYPE_TXT)
        world.network.run()
        probe.close()
        world.network.run()
        assert gc.collect() == 0
    assert len(outcomes) == 1
    assert outcomes[0].success and outcomes[0].error_detail == "via-tcp"
    made = Counter(name for _serial, name, _ref in lifetimes.refs)
    assert made["SimUdpSocket"] >= 1 and made["SimTcpConnection"] == 2
    assert lifetimes.alive_names() == []
    lifetimes.assert_each_hook_fired_at_most_once()


def test_an_oblivious_query_through_the_proxy_leaves_nothing_for_the_collector():
    """ODoH is ``Probe`` on DoH's row behind a relay whose client-facing side
    is its own h2 server; the relay keeps its upstream connections by design."""
    from repro.catalog.resolvers import CATALOG
    from repro.core.odoh import OdohProbe, OdohProbeConfig
    from repro.experiments.world import build_world

    target = "odoh-target.alekberg.net"
    catalog = [
        dataclasses.replace(entry, reliability="rock")
        for entry in CATALOG
        if entry.hostname == target
    ]
    world = build_world(seed=17, catalog=catalog)
    outcomes = []
    with collector_off():
        for seed, (name, config) in enumerate(
            (
                (target, OdohProbeConfig()),
                (target, OdohProbeConfig(timeout_ms=30.0)),  # gives up mid-connect
                ("not-a-target.example", OdohProbeConfig()),  # the relay's 502
            )
        ):
            probe = OdohProbe(
                world.vantage(VANTAGE).host, world.odoh_proxy_ip, world.odoh_proxy_name,
                name, config, rng=random.Random(seed),
            )
            probe.query("google.com", outcomes.append)
            world.network.run()
            probe.close()
        del probe
        assert gc.collect() == 0
    assert [o.success for o in outcomes] == [True, False, False]


@pytest.fixture
def fresh_world():
    from repro.catalog.resolvers import CATALOG
    from repro.experiments.world import build_world

    catalog = [
        entry for entry in CATALOG if entry.hostname in (RESOLVER, "dns.google")
    ]
    return build_world(seed=4, catalog=catalog, warm_caches=True)


def test_network_faults_and_answer_faults_armed(fresh_world, lifetimes):
    from repro.experiments.campaigns import (
        diff_campaign_config,
        fault_campaign_config,
    )
    from repro.faults import FaultPlan, FaultPlanConfig, inject_faults

    world = fresh_world
    hostnames = [RESOLVER, "dns.google"]
    targets = world.targets(hostnames)
    vantages = [world.vantage(VANTAGE), world.vantage("ec2-seoul")]
    with collector_off():
        config = fault_campaign_config(rounds=4, retry=RetryPolicy(attempts=2))
        plan = FaultPlan.generate(
            hostnames,
            horizon_ms=config.schedule.horizon_ms,
            seed=7,
            config=FaultPlanConfig(impaired_time_fraction=0.4),
        )
        inject_faults(world.network, [world.deployments[h] for h in hostnames], plan)
        faulted = Campaign(world.network, vantages, targets, config).run()

        diff_config = dataclasses.replace(
            diff_campaign_config(rounds=2),
            schedule=PeriodicSchedule(
                rounds=2, interval_ms=3_600_000.0, start_ms=world.network.loop.now + 1.0
            ),
        )
        answer_plan = FaultPlan.answer_faults(
            hostnames, diff_config.domains, diff_config.schedule.horizon_ms, seed=11
        )
        inject_faults(
            world.network, [world.deployments[h] for h in hostnames], answer_plan
        )
        differed = Campaign(world.network, vantages, targets, diff_config).run()
        world.network.run()
        assert gc.collect() == 0
    assert len(plan) and any(not r.success for r in faulted.records)
    assert any(r.attempts == 2 for r in faulted.records)
    assert len(differed) == 2 * 2 * 2 * len(diff_config.domains)
    orphans = lifetimes.lost_fins - lifetimes.server_fins
    leftover = {
        conn_id
        for deployment in world.deployments.values()
        for host in deployment.site_hosts()
        for conn_id in host._tcp_connections
    }
    assert leftover == orphans
    lifetimes.assert_each_hook_fired_at_most_once()


# ---------------------------------------------------------------------------
# The lost FIN: the one thing allowed to outlive a campaign
# ---------------------------------------------------------------------------


def test_a_lost_fin_leaves_exactly_its_server_half_behind(world, lifetimes, monkeypatch):
    """A FIN is sent once.  When the network drops it the server half stays
    ESTABLISHED and registered, with its TLS endpoint and HTTP/2 session,
    for the rest of the campaign (DESIGN.md divergence ledger; fixing it
    draws from the network RNG, so it waits for the golden-master
    migration).  Pinned: those halves, and nothing else, survive."""
    wrapped = Network.transmit
    dropped = []

    def transmit(network, sender, packet):
        if (
            isinstance(packet, Segment)
            and packet.flag == "FIN"
            and packet.src_port >= EPHEMERAL_PORT_START
            and len(dropped) < 2
        ):
            dropped.append(packet.conn_id)
            lifetimes.lost_fins.add(packet.conn_id)
            return False
        return wrapped(network, sender, packet)

    monkeypatch.setattr(Network, "transmit", transmit)
    store = ResultStore()
    with collector_off():
        _campaign(world, "doh", "cold", SCENARIOS[0], store).run()
        world.network.run()
        assert gc.collect() == 0  # reachable from the host, so not garbage
    assert len(dropped) == 2
    assert _leftover_server_halves(world) == set(dropped)
    assert Counter(lifetimes.alive_names()) == {
        "SimTcpConnection": 2, "TlsServerConnection": 2, "H2ServerSession": 2,
    }
    assert all(
        not obj.is_client and obj.state == SimTcpConnection.ESTABLISHED
        for _serial, name, obj in lifetimes.alive()
        if name == "SimTcpConnection"
    )
    _close_server_halves(world, None)
    assert lifetimes.alive_names() == []


@pytest.mark.slow
def test_the_ec2_campaign_keeps_only_the_server_halves_of_its_lost_fins(lifetimes):
    """The paper's campaign at the benchmark's size (seed 0, 6 rounds)."""
    from repro.experiments.campaigns import EC2_VANTAGE_NAMES, ec2_campaign_config
    from repro.experiments.world import build_world

    world = build_world(seed=0)
    campaign = Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in EC2_VANTAGE_NAMES],
        targets=world.targets(),
        config=ec2_campaign_config(rounds=6, seed=202),
    )
    with collector_off():
        store = campaign.run()
        assert gc.collect() == 0
    assert len(store) == 6552
    orphans = lifetimes.lost_fins - lifetimes.server_fins
    leftover = {
        conn_id
        for deployment in world.deployments.values()
        for host in deployment.site_hosts()
        for conn_id in host._tcp_connections
    }
    assert leftover == orphans
    assert len(orphans) == 2
    alive = Counter(lifetimes.alive_names())
    assert alive["SimTcpConnection"] == alive["TlsServerConnection"] == len(orphans)
    assert set(alive) <= {"SimTcpConnection", "TlsServerConnection", "H2ServerSession"}


# ---------------------------------------------------------------------------
# The same through the shard plan
# ---------------------------------------------------------------------------

PLAN_RESOLVERS = [
    "dns.google", "dns.quad9.net", "dns.adguard.com", "doh.opendns.com", "ordns.he.net",
]


@pytest.fixture
def kept_worlds(monkeypatch):
    """Hold every world a run builds.  A world is cyclic by design (hosts,
    network, deployments and frontends name each other) and dies once, with
    its campaign; kept alive, what the collector is asked about afterwards
    is what the probes left."""
    import repro.experiments.world as module

    kept = []
    build = module.build_world

    def build_and_keep(*args, **kwargs):
        kept.append(build(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(module, "build_world", build_and_keep)
    return kept


def _plan_config():
    return CampaignConfig(
        name="lifetime-plan",
        schedule=PeriodicSchedule(rounds=2, interval_ms=3_600_000.0),
        transports=TRANSPORT_NAMES,
        seed=7,
    )


def test_the_identity_plan_leaves_nothing_for_the_collector(kept_worlds):
    from repro.parallel import run_campaigns

    with collector_off():
        run = run_campaigns(
            [(_plan_config(), [VANTAGE, "ec2-seoul"], PLAN_RESOLVERS)], workers=1, shards=1
        )
        count = len(run.records())
        del run
        assert gc.collect() == 0
    assert count == 2 * 2 * 5 * (5 * 3 + 1)


def _ours(garbage) -> list:
    """What of ``garbage`` this repository made: instances of its classes and
    its functions (a closure or a bound method is unreachable through one)."""
    return [
        obj
        for obj in garbage
        if (getattr(type(obj), "__module__", None) or "").startswith("repro.")
        or (getattr(obj, "__module__", None) or "").startswith("repro.")
    ]


def test_a_pooled_run_into_a_warehouse_leaves_nothing_for_the_collector(
    kept_worlds, tmp_path
):
    """``measure --workers 2 --store``: the parent, and what each child runs.

    Starting a process pool imports ``signal`` and ``socket``, whose enum
    conversion leaves a few dozen unreachable stdlib objects behind the first
    time; so this test keeps what the collector finds and looks for ours.
    """
    from repro.parallel import execute_shard, plan_campaign, run_campaigns

    with collector_off():
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run = run_campaigns(
                [(_plan_config(), [VANTAGE, "ec2-seoul"], PLAN_RESOLVERS)],
                workers=2, shard_by="resolver", shards=2, store_dir=str(tmp_path / "wh"),
            )
            assert run.pool_used, run.fallback_reason
            count = len(run.warehouse)
            del run
            # The children are other processes; the function they run, here.
            tasks = plan_campaign(
                _plan_config(), [VANTAGE, "ec2-seoul"], PLAN_RESOLVERS,
                shard_by="resolver", shards=2,
                store_staging_dir=str(tmp_path / "staging"), segment_records=64,
            )
            staged = sum(execute_shard(task).record_count for task in tasks)
            gc.collect()
            ours = _ours(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    assert not ours, Counter(type(obj).__name__ for obj in ours)
    assert count == staged == 2 * 2 * 5 * (5 * 3 + 1)


# ---------------------------------------------------------------------------
# A closed layer is inert
# ---------------------------------------------------------------------------


def _hooks_of(obj) -> dict:
    for cls, names in HOOKS.items():
        if isinstance(obj, cls):
            return {name: getattr(obj, name) for name in names}
    return {}


class _Calls:
    """Application callbacks that count themselves."""

    def __init__(self) -> None:
        self.seen: Counter = Counter()

    def hook(self, name: str):
        def called(*_args) -> None:
            self.seen[name] += 1

        return called


@pytest.fixture
def pair():
    net = make_quiet_network()
    client = add_host(net, "client", "10.9.0.1")
    server = add_host(net, "server", "10.9.0.2", lat=50.11, lon=8.68, continent="EU")
    return net, client, server


def _tcp_pair(pair, calls: _Calls):
    """An established connection with counting hooks on both halves."""
    net, client, server = pair
    halves = {}

    def accept(conn: SimTcpConnection) -> None:
        halves["server"] = conn
        for name in ("on_data", "on_close", "on_error"):
            setattr(conn, name, calls.hook(f"server.{name}"))

    server.listen_tcp(80, accept)
    halves["client"] = SimTcpConnection.connect(
        client, server.ip, 80, calls.hook("client.established"),
        on_error=calls.hook("client.on_error"),
    )
    net.run()
    for name in ("on_data", "on_close"):
        setattr(halves["client"], name, calls.hook(f"client.{name}"))
    return net, halves["client"], halves["server"]


class TestAClosedTcpConnectionIsInert:
    def test_close_drops_every_hook_and_fires_none(self, pair):
        calls = _Calls()
        net, client, server = _tcp_pair(pair, calls)
        client.close()
        assert set(_hooks_of(client).values()) == {None}
        net.run()
        assert set(_hooks_of(server).values()) == {None}
        assert calls.seen == {"client.established": 1, "server.on_close": 1}

    def test_a_second_close_and_an_abort_do_nothing(self, pair):
        calls = _Calls()
        net, client, server = _tcp_pair(pair, calls)
        client.close()
        client.close()
        client.abort()
        net.run()
        server.close()
        server.abort()
        net.run()
        assert calls.seen == {"client.established": 1, "server.on_close": 1}
        assert client.state == server.state == SimTcpConnection.CLOSED

    def test_abort_reaches_the_peer_as_one_error(self, pair):
        calls = _Calls()
        net, client, server = _tcp_pair(pair, calls)
        server.abort()
        net.run()
        assert calls.seen == {"client.established": 1, "client.on_error": 1}
        assert set(_hooks_of(client).values()) == {None}

    def test_a_late_segment_reaches_no_callback(self, pair):
        calls = _Calls()
        net, client, server = _tcp_pair(pair, calls)
        client.send(b"in flight when the server closes")
        server.close()
        # The segment arrives at a half that is closed and unregistered;
        # handed to it directly, as a stale demux entry would, it is inert.
        ends = (client.local_ip, client.local_port, server.local_ip, server.local_port)
        server.handle_segment(Segment(*ends, "DATA", client.conn_id, b"late", 0))
        server.handle_segment(Segment(*ends, "FIN", client.conn_id))
        net.run()
        assert "server.on_data" not in calls.seen and "server.on_close" not in calls.seen
        assert calls.seen["client.on_close"] == 1

    def test_a_late_retransmission_timer_fires_into_nothing(self, pair, monkeypatch):
        calls = _Calls()
        net, client, server = _tcp_pair(pair, calls)
        real = Network.transmit
        monkeypatch.setattr(
            Network, "transmit",
            lambda network, sender, packet: False
            if getattr(packet, "flag", "") == "DATA"
            else real(network, sender, packet),
        )
        client.send(b"lost, so a retransmission timer is armed")
        pending = net.loop.pending
        client.close()
        assert net.loop.pending >= pending  # the timer is still in the heap
        net.run()
        assert calls.seen == {"client.established": 1, "server.on_close": 1}

    def test_a_connect_timeout_fires_on_error_once_and_disarms(self, pair):
        net, client, server = pair
        server.blackholed = True
        calls = _Calls()
        conn = SimTcpConnection.connect(
            client, server.ip, 80, calls.hook("established"),
            on_error=calls.hook("on_error"), timeout_ms=500.0,
        )
        net.run()
        assert calls.seen == {"on_error": 1}
        assert set(_hooks_of(conn).values()) == {None}
        assert conn._connect_timer is None and conn._handshake_timer is None

    def test_a_closed_udp_socket_delivers_nothing(self, pair):
        net, client, server = pair
        calls = _Calls()
        echo = SimUdpSocket(server, 7)
        echo.on_datagram = lambda d: echo.sendto(d.payload, d.src_ip, d.src_port)
        sock = SimUdpSocket(client)
        sock.on_datagram = calls.hook("on_datagram")
        sock.sendto(b"x", server.ip, 7)
        sock.close()
        sock.close()
        net.run()
        assert sock.on_datagram is None and not calls.seen
        echo.close()


def _tls_pair(pair, calls: _Calls, server_config=None, client_config=None):
    from repro.tlssim.handshake import TlsClientConfig, TlsServerConfig

    net, client, server = pair
    ends = {}

    def accept(tcp: SimTcpConnection) -> None:
        tls = ends["server"] = TlsServerConnection(
            tcp, server_config or TlsServerConfig(),
            on_established=calls.hook("server.established"),
            on_error=calls.hook("server.on_error"),
        )
        tls.on_application_data = calls.hook("server.on_application_data")
        tls.on_close = calls.hook("server.on_close")

    server.listen_tcp(443, accept)

    def on_tcp(tcp: SimTcpConnection) -> None:
        tls = ends["client"] = TlsClientConnection(
            tcp, "lifetime.example", client_config or TlsClientConfig(),
            on_established=calls.hook("client.established"),
            on_error=calls.hook("client.on_error"),
        )
        tls.on_application_data = calls.hook("client.on_application_data")
        tls.on_close = calls.hook("client.on_close")

    SimTcpConnection.connect(client, server.ip, 443, on_tcp)
    return net, ends


class TestAClosedTlsEndpointIsInert:
    def test_close_drops_every_hook_on_both_ends(self, pair):
        calls = _Calls()
        net, ends = _tls_pair(pair, calls)
        net.run()
        assert calls.seen == {"client.established": 1, "server.established": 1}
        ends["client"].close()
        ends["client"].close()
        net.run()
        for end in ends.values():
            assert set(_hooks_of(end).values()) == {None}
            assert set(_hooks_of(end.tcp).values()) == {None}
            assert end.closed
        assert calls.seen == {
            "client.established": 1, "server.established": 1, "server.on_close": 1,
        }

    def test_a_late_crypto_delay_reaches_no_callback(self, pair):
        calls = _Calls()
        net, ends = _tls_pair(pair, calls)
        # Stop just after the server's first flight reached the client: its
        # answer (Finished, then established) waits behind a crypto delay.
        while "client" not in ends or ends["client"].negotiated_version is None:
            net.loop.advance(0.05)
        assert not ends["client"].established
        ends["client"].close()
        net.run()
        assert "client.established" not in calls.seen
        assert "client.on_error" not in calls.seen and "client.on_close" not in calls.seen
        assert calls.seen.get("server.on_close", 0) + calls.seen.get("server.on_error", 0) == 1

    def test_an_alert_is_one_error_on_the_client_and_silence_on_the_server(self, pair):
        calls = _Calls()
        net, client, server = pair
        server.impairments.tls_failure = True
        net, ends = _tls_pair(pair, calls)
        net.run()
        assert calls.seen == {"client.on_error": 1}
        for end in ends.values():
            assert set(_hooks_of(end).values()) == {None}

    def test_a_peer_reset_is_one_error(self, pair):
        calls = _Calls()
        net, ends = _tls_pair(pair, calls)
        net.run()
        ends["server"].tcp.abort()
        net.run()
        assert calls.seen["client.on_error"] == 1 and "client.on_close" not in calls.seen
        assert set(_hooks_of(ends["client"]).values()) == {None}


class TestAClosedQuicConnectionIsInert:
    def test_close_drops_callbacks_streams_and_the_socket_hook(self, pair):
        net, client, server = pair
        calls = _Calls()
        listener = QuicServerListener(server, 853, lambda conn, sid, data: None)
        conn = QuicClientConnection(
            client, server.ip, 853, "lifetime.example",
            on_established=calls.hook("established"), on_error=calls.hook("on_error"),
        )
        conn.open_stream(b"never answered", calls.hook("response"))
        net.run(until=net.loop.now + 400.0)
        assert calls.seen == {"established": 1}
        conn.close()
        conn.close()
        assert set(_hooks_of(conn).values()) == {None}
        assert conn._responses == {} and conn._queued_streams == []
        assert conn._socket.on_datagram is None
        net.run()
        assert calls.seen == {"established": 1}
        assert listener.connection_count == 0

    def test_a_connect_timeout_is_one_error(self, pair):
        from repro.quicsim.connection import QuicConfig

        net, client, server = pair
        server.blackholed = True
        calls = _Calls()
        conn = QuicClientConnection(
            client, server.ip, 853, "lifetime.example",
            config=QuicConfig(connect_timeout_ms=900.0),
            on_established=calls.hook("established"), on_error=calls.hook("on_error"),
        )
        conn.open_stream(b"query", calls.hook("response"))
        net.run()
        assert calls.seen == {"on_error": 1}
        assert conn.closed and set(_hooks_of(conn).values()) == {None}


@pytest.mark.parametrize("transport", SESSION_TRANSPORTS)
def test_a_torn_down_kept_alive_connection_reads_closed_and_is_replaced(
    world, lifetimes, transport
):
    """``Probe.query`` re-establishes over a connection that died underneath
    it, exactly as before: teardown keeps ``live.conn.closed`` readable."""
    deployment = world.deployment(RESOLVER)
    probe = make_probe(
        transport, world.vantage(VANTAGE).host, deployment.service_ip, RESOLVER,
        ProbeConfig(reuse_connections=True), rng=random.Random(5),
    )
    outcomes = []
    with collector_off():
        probe.query("google.com", outcomes.append)
        world.network.run()
        first = probe._live.conn
        if TRANSPORTS[transport].connection == "tls":
            _close_server_halves(world, None)  # the server hangs up
        else:
            first.close()  # a QUIC connection only closes from this end
        world.network.run()
        assert first.closed
        assert set(_hooks_of(first).values()) == {None}
        probe.query("amazon.com", outcomes.append)
        world.network.run()
        assert probe._live.conn is not first
        probe.close()
        probe.close()
        world.network.run()
        del first
        assert gc.collect() == 0
    assert [o.success for o in outcomes] == [True, True]
    assert [o.session_state for o in outcomes] == ["cold", "cold"]
    assert lifetimes.alive_names() == []
    lifetimes.assert_each_hook_fired_at_most_once()
