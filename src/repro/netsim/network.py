"""The network fabric: host registry, unicast/anycast routing, delivery.

:class:`Network` owns the event loop, the latency model, and a seeded RNG
(used for per-packet jitter and loss).  Sending is a single call —
:meth:`Network.transmit` — which resolves the destination (following anycast
groups to the lowest-latency site), samples loss and one-way delay, and
schedules delivery on the event loop.

Anycast is modelled the way it behaves in practice for measurement studies:
BGP routes a client to a stable nearby site, so site selection here is the
minimum fixed one-way delay from the source.  The outcome of routing, the
concrete destination host and the path to it, is cached per (source IP,
destination IP) until the topology changes, so a packet costs one lookup.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import AddressError, RoutingError
from repro.netsim.clock import EventLoop
from repro.netsim.host import Host
from repro.netsim.latency import LatencyModel, PathCharacteristics
from repro.netsim.packet import Datagram, Segment
from repro.netsim.trace import EventTrace
from repro.obs import get_metrics

Packet = Union[Datagram, Segment]


def _packet_protocol(packet: Packet) -> str:
    return "tcp" if isinstance(packet, Segment) else packet.protocol


class Network:
    """A simulated Internet: hosts, anycast groups, and packet delivery."""

    def __init__(
        self,
        loop: Optional[EventLoop] = None,
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
        trace: Optional[EventTrace] = None,
    ) -> None:
        self.loop = loop if loop is not None else EventLoop()
        self.latency = latency_model if latency_model is not None else LatencyModel.internet_default()
        self.rng = random.Random(seed)
        self.trace = trace
        self._hosts_by_ip: Dict[str, Host] = {}
        self._hosts_by_name: Dict[str, Host] = {}
        self._anycast: Dict[str, List[Host]] = {}
        self._routes: Dict[Tuple[str, str], Tuple[Host, PathCharacteristics]] = {}
        self._path_cache: Dict[Tuple[str, str], PathCharacteristics] = {}

    # -- topology ------------------------------------------------------------

    def attach(self, host: Host) -> Host:
        """Attach a host to the network; its unicast IP becomes routable."""
        if host.ip in self._hosts_by_ip:
            raise AddressError(f"duplicate IP {host.ip} ({host.name})")
        if host.name in self._hosts_by_name:
            raise AddressError(f"duplicate host name {host.name}")
        self._hosts_by_ip[host.ip] = host
        self._hosts_by_name[host.name] = host
        self._routes.clear()
        host.network = self
        return host

    def add_anycast(self, anycast_ip: str, sites: List[Host]) -> None:
        """Announce ``anycast_ip`` from every host in ``sites``.

        Sites must already be attached.  The anycast IP must not collide
        with any unicast address.
        """
        if not sites:
            raise AddressError(f"anycast group {anycast_ip} has no sites")
        if anycast_ip in self._hosts_by_ip:
            raise AddressError(f"anycast IP {anycast_ip} collides with a unicast host")
        for site in sites:
            if site.ip not in self._hosts_by_ip:
                raise AddressError(f"anycast site {site.name} is not attached")
        self._anycast[anycast_ip] = list(sites)
        self._routes.clear()

    def host_by_ip(self, ip: str) -> Optional[Host]:
        return self._hosts_by_ip.get(ip)

    def host_by_name(self, name: str) -> Optional[Host]:
        return self._hosts_by_name.get(name)

    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts_by_ip.values())

    def anycast_sites(self, anycast_ip: str) -> List[Host]:
        return list(self._anycast.get(anycast_ip, []))

    def is_anycast(self, ip: str) -> bool:
        return ip in self._anycast

    # -- routing ---------------------------------------------------------------

    def _route(self, src: Host, dst_ip: str) -> Tuple[Host, PathCharacteristics]:
        """The host ``dst_ip`` leads to from ``src`` and the path there (cached).

        An anycast address leads to its site with the lowest fixed one-way
        delay from ``src``.  :meth:`attach` and :meth:`add_anycast` empty the
        cache; an unroutable destination raises and is not cached.
        """
        key = (src.ip, dst_ip)
        route = self._routes.get(key)
        if route is None:
            dst = self._hosts_by_ip.get(dst_ip)
            if dst is None:
                sites = self._anycast.get(dst_ip)
                if sites is None:
                    raise RoutingError(f"no route to {dst_ip} from {src.name}")
                dst = min(sites, key=lambda s: self.path_between(src, s).fixed_one_way_ms)
            route = self._routes[key] = (dst, self.path_between(src, dst))
        return route

    def resolve_destination(self, src: Host, dst_ip: str) -> Host:
        """Resolve ``dst_ip`` to a concrete host, following anycast groups."""
        return self._route(src, dst_ip)[0]

    def path_between(self, src: Host, dst: Host) -> PathCharacteristics:
        """Deterministic path characteristics between two hosts (cached)."""
        key = (src.name, dst.name)
        path = self._path_cache.get(key)
        if path is None:
            path = self.latency.path(
                src.coords,
                dst.coords,
                src.continent,
                dst.continent,
                src.access,
                dst.access,
            )
            self._path_cache[key] = path
        return path

    def rtt_between(self, src: Host, dst_ip: str) -> float:
        """Base RTT (ms, no jitter) between ``src`` and ``dst_ip``."""
        return self._route(src, dst_ip)[1].base_rtt_ms

    # -- transmission ------------------------------------------------------------

    def transmit(
        self,
        src: Host,
        packet: Packet,
        on_lost: Optional[Callable[[Packet], None]] = None,
    ) -> bool:
        """Send one packet from ``src`` toward ``packet.dst_ip``.

        Samples loss and one-way delay, then schedules delivery.  Returns
        ``True`` if the packet was scheduled for delivery, ``False`` if it
        was lost (in which case ``on_lost`` — if provided — is invoked
        immediately so the sender can arm a retransmission timer).

        An unroutable destination is treated as loss rather than an error:
        from a measurement client's perspective a dead resolver and a
        blackholed path are indistinguishable (both end in a timeout).
        """
        metrics = get_metrics()
        trace = self.trace
        # The cache hit of _route, inlined: one lookup per packet.
        route = self._routes.get((src.ip, packet.dst_ip))
        if route is None:
            try:
                route = self._route(src, packet.dst_ip)
            except RoutingError:
                if trace is not None:
                    trace.record(self.loop.now, "unroutable", packet)
                if metrics.enabled:
                    metrics.inc("net.packets_unroutable", protocol=_packet_protocol(packet))
                if on_lost is not None:
                    on_lost(packet)
                return False
        dst, path = route
        # Transient impairments (fault windows) stack on top of the path's
        # steady-state characteristics at both endpoints.
        extra_delay = 0.0
        impaired = src.impairments.any_active or dst.impairments.any_active
        if impaired:
            if metrics.enabled:
                metrics.inc("net.fault_hits", protocol=_packet_protocol(packet))
            loss_rate = LatencyModel.combined_loss_rate(
                path.loss_rate,
                src.impairments.extra_loss_rate,
                dst.impairments.extra_loss_rate,
            )
            lost = loss_rate > 0 and self.rng.random() < loss_rate
            extra_delay = src.impairments.extra_delay_ms + dst.impairments.extra_delay_ms
        else:
            lost = LatencyModel.sample_loss(path, self.rng)
        if lost:
            if trace is not None:
                trace.record(self.loop.now, "lost", packet)
            if metrics.enabled:
                metrics.inc(
                    "net.packets_lost",
                    protocol=_packet_protocol(packet),
                    impaired=impaired,
                )
            if on_lost is not None:
                on_lost(packet)
            return False
        delay = LatencyModel.sample_one_way_ms(path, self.rng) + extra_delay
        if trace is not None:
            trace.record(self.loop.now, "sent", packet, delay_ms=delay)
        if metrics.enabled:
            protocol = _packet_protocol(packet)
            metrics.inc("net.packets_sent", protocol=protocol)
            metrics.inc("net.bytes_sent", packet.size, protocol=protocol)
        self.loop.call_later(delay, self._deliver, dst, packet)
        return True

    def _deliver(self, dst: Host, packet: Packet) -> None:
        if self.trace is not None:
            self.trace.record(self.loop.now, "delivered", packet)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("net.packets_delivered", protocol=_packet_protocol(packet))
        if isinstance(packet, Segment):
            dst.deliver_segment(packet)
        else:
            dst.deliver_datagram(packet)

    # -- convenience ----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop (delegates to :meth:`EventLoop.run`)."""
        return self.loop.run(until=until)

    @property
    def now(self) -> float:
        return self.loop.now
