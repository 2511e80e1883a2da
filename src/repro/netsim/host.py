"""Simulated hosts.

A :class:`Host` is a named endpoint with an IPv4 address, geographic
coordinates, a continent code (used by the latency model's route-inflation
table), and an access profile.  Hosts expose the registration surface used
by the socket layer: UDP port bindings, TCP listeners, per-connection demux,
and an ICMP policy.

Application code should not normally touch the ``_deliver_*`` methods; they
are invoked by :class:`repro.netsim.network.Network` when packets arrive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import AddressError, SocketError
from repro.netsim.geo import Coordinates
from repro.netsim.latency import SERVER, AccessProfile
from repro.netsim.packet import Datagram, Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.icmp import IcmpPolicy
    from repro.netsim.network import Network
    from repro.netsim.sockets import SimTcpConnection

#: First ephemeral port handed out by :meth:`Host.allocate_port`.
EPHEMERAL_PORT_START = 49152


@dataclass
class HostImpairments:
    """Time-varying impairments placed on a host by a fault injector.

    These are the mutation points the fault subsystem uses to model
    transient outages and degradations; they compose with (and take
    precedence over) the host's static policies.  All fields are reverted
    by the injector when a fault window closes.

    Attributes
    ----------
    syn_override:
        ``"refuse"`` answers every inbound SYN with RST, ``"drop"``
        silently discards it (the client times out).  ``None`` defers to
        the host's normal :attr:`Host.syn_policy`.
    tls_failure:
        When True the host aborts every TLS handshake it serves with a
        fatal alert (models certificate/configuration breakage windows).
    extra_loss_rate:
        Additional Bernoulli loss applied to every packet sent to or from
        this host (a loss spike on its links).
    extra_delay_ms:
        Additional one-way delay applied to every packet sent to or from
        this host (a latency spike / congested path).
    extra_processing_ms:
        Additional frontend service time per query (slow-start /
        overload degradation).
    """

    syn_override: Optional[str] = None
    tls_failure: bool = False
    extra_loss_rate: float = 0.0
    extra_delay_ms: float = 0.0
    extra_processing_ms: float = 0.0

    #: True while any field is off its neutral value.  Not a field: every
    #: assignment to one brings it up to date, because the fault injector
    #: writes a few times per window and ``Network.transmit`` reads it
    #: twice per packet.
    any_active = False

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        object.__setattr__(
            self,
            "any_active",
            self.syn_override is not None
            or self.tls_failure
            or self.extra_loss_rate > 0.0
            or self.extra_delay_ms > 0.0
            or self.extra_processing_ms > 0.0,
        )

    def clear(self) -> None:
        """Reset every impairment to its neutral value."""
        self.syn_override = None
        self.tls_failure = False
        self.extra_loss_rate = 0.0
        self.extra_delay_ms = 0.0
        self.extra_processing_ms = 0.0


class Host:
    """One simulated machine attached to a :class:`Network`.

    Parameters
    ----------
    name:
        Unique human-readable identifier (``"vantage-ohio"``,
        ``"site-cloudflare-fra"``).
    ip:
        Unicast IPv4 address, unique within the network.
    coords:
        Geographic position used for propagation delay.
    continent:
        Two-letter continent code (``"NA"``, ``"EU"``, ``"AS"``, ``"OC"``).
    access:
        Access-link profile; defaults to a well-connected server.
    """

    def __init__(
        self,
        name: str,
        ip: str,
        coords: Coordinates,
        continent: str,
        access: AccessProfile = SERVER,
    ) -> None:
        self.name = name
        self.ip = ip
        self.coords = coords
        self.continent = continent
        self.access = access
        self.network: Optional["Network"] = None
        self.icmp_policy: Optional["IcmpPolicy"] = None

        self._udp_handlers: Dict[int, Callable[[Datagram, "Host"], None]] = {}
        self._tcp_listeners: Dict[int, Callable[["SimTcpConnection"], None]] = {}
        self._tcp_connections: Dict[int, "SimTcpConnection"] = {}
        self._next_port = EPHEMERAL_PORT_START
        #: Session tickets the TLS / QUIC servers on this host have issued:
        #: ticket id -> expiry on the virtual clock.  On the host, not the
        #: connection, so that a new connection can honour a ticket an
        #: earlier one issued (see :func:`repro.tlssim.session.register_ticket`).
        self.tls_tickets: Dict[int, float] = {}
        self.quic_tickets: Dict[int, float] = {}
        #: When True the host ignores all inbound packets (simulates a host
        #: that is down or firewalled off; used for availability modelling).
        self.blackholed = False
        #: Optional connection-admission policy consulted for each inbound
        #: SYN: return "accept", "refuse" (RST back) or "drop" (silent).
        #: Used by resolver deployments to model flaky availability.
        self.syn_policy: Optional[Callable[[Segment], str]] = None
        #: Mutable impairment state driven by the fault-injection subsystem
        #: (see :mod:`repro.faults`); neutral by default.
        self.impairments = HostImpairments()

    # -- port management ---------------------------------------------------

    def allocate_port(self) -> int:
        """Return a fresh ephemeral port number."""
        port = self._next_port
        self._next_port += 1
        if self._next_port > 65535:
            self._next_port = EPHEMERAL_PORT_START
        return port

    def bind_udp(self, port: int, handler: Callable[[Datagram, "Host"], None]) -> None:
        """Register ``handler(datagram, host)`` for UDP packets to ``port``."""
        if port in self._udp_handlers:
            raise AddressError(f"{self.name}: UDP port {port} already bound")
        self._udp_handlers[port] = handler

    def unbind_udp(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    def listen_tcp(self, port: int, acceptor: Callable[["SimTcpConnection"], None]) -> None:
        """Register ``acceptor(connection)`` for inbound TCP connections."""
        if port in self._tcp_listeners:
            raise AddressError(f"{self.name}: TCP port {port} already listening")
        self._tcp_listeners[port] = acceptor

    def close_tcp_listener(self, port: int) -> None:
        self._tcp_listeners.pop(port, None)

    def tcp_listener(self, port: int) -> Optional[Callable[["SimTcpConnection"], None]]:
        return self._tcp_listeners.get(port)

    # -- connection demux ----------------------------------------------------

    def register_connection(self, conn: "SimTcpConnection") -> None:
        self._tcp_connections[conn.conn_id] = conn

    def unregister_connection(self, conn_id: int) -> None:
        self._tcp_connections.pop(conn_id, None)

    def connection(self, conn_id: int) -> Optional["SimTcpConnection"]:
        return self._tcp_connections.get(conn_id)

    # -- delivery (called by Network) ---------------------------------------

    def deliver_datagram(self, dgram: Datagram) -> None:
        """Dispatch an arriving UDP/ICMP datagram."""
        if self.blackholed:
            return
        if dgram.protocol == "icmp":
            from repro.netsim.icmp import handle_icmp  # local import: cycle

            handle_icmp(self, dgram)
            return
        handler = self._udp_handlers.get(dgram.dst_port)
        if handler is not None:
            handler(dgram, self)
        # Unbound UDP ports silently drop, as real stacks do from the point
        # of view of a sender that never sees the ICMP port-unreachable.

    def deliver_segment(self, segment: Segment) -> None:
        """Dispatch an arriving TCP segment."""
        if self.blackholed:
            return
        conn = self._tcp_connections.get(segment.conn_id)
        if conn is not None:
            conn.handle_segment(segment)
            return
        if segment.flag == "SYN":
            # Fault-injection override pre-empts both the listener table and
            # the deployment's own admission policy: an outage window turns
            # the whole host away regardless of its steady-state behaviour.
            override = self.impairments.syn_override
            if override == "refuse":
                self._refuse(segment)
                return
            if override == "drop":
                return
            acceptor = self._tcp_listeners.get(segment.dst_port)
            if acceptor is None:
                self._refuse(segment)
                return
            if self.syn_policy is not None:
                verdict = self.syn_policy(segment)
                if verdict == "refuse":
                    self._refuse(segment)
                    return
                if verdict == "drop":
                    return
            from repro.netsim.sockets import SimTcpConnection  # local import: cycle

            SimTcpConnection.accept_from_syn(self, segment, acceptor)
            return
        # Segment for a connection we no longer know: real stacks answer RST
        # to non-RST segments; we simply drop, which the peer handles by RTO.

    def _refuse(self, syn: Segment) -> None:
        """Answer a SYN to a closed port with RST (connection refused)."""
        if self.network is None:
            raise SocketError(f"{self.name} is not attached to a network")
        rst = Segment(
            src_ip=syn.dst_ip,
            src_port=syn.dst_port,
            dst_ip=syn.src_ip,
            dst_port=syn.src_port,
            flag="RST",
            conn_id=syn.conn_id,
        )
        self.network.transmit(self, rst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name} ip={self.ip} {self.continent})"
