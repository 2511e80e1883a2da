"""Applies a :class:`~repro.faults.plan.FaultPlan` to a simulated world.

The injector schedules two callbacks per fault window on the virtual
clock — apply at ``start_ms``, revert at ``end_ms`` — and recomputes the
:class:`~repro.netsim.host.HostImpairments` of every affected host from
the set of windows currently active there.  Recomputing (rather than
toggling fields) makes overlapping windows compose correctly: numeric
impairments stack, and an outage that outlasts a nested TLS window stays
in force until its own end.  An answer fault lands on the same
impairments, as a qname -> kind map the resolver frontends consult before
they send a response (:func:`mutate_response` applies it).

Everything is driven by the event loop, so injection is deterministic
given the plan, and arming the same plan on identically seeded worlds
yields packet-for-packet identical runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.dnswire.message import Message, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import ARdata
from repro.dnswire.types import RCODE_NXDOMAIN, RCODE_SERVFAIL, TYPE_A
from repro.errors import CampaignConfigError
from repro.faults.plan import ANSWER_KINDS, FaultEvent, FaultKind, FaultPlan
from repro.netsim.host import Host
from repro.netsim.network import Network

#: ``World.deployments`` mapping or any iterable of deployment objects.
DeploymentsLike = Union[Mapping[str, object], Iterable[object]]


class FaultInjector:
    """Schedules a fault plan's windows onto a network's virtual clock.

    Parameters
    ----------
    network:
        The simulated network whose event loop drives the windows.
    hosts_by_target:
        Maps each plan hostname to the hosts it impairs — normally every
        site of the resolver's deployment (see :func:`deployment_hosts`).
        Plan events naming an unknown hostname raise at :meth:`arm` time,
        so typos fail loudly instead of silently injecting nothing.
    """

    def __init__(
        self,
        network: Network,
        hosts_by_target: Mapping[str, Sequence[Host]],
        plan: FaultPlan,
    ) -> None:
        self.network = network
        self.plan = plan
        self._hosts_by_target: Dict[str, List[Host]] = {
            hostname: list(hosts) for hostname, hosts in hosts_by_target.items()
        }
        self._active: Dict[str, List[FaultEvent]] = {}
        self._armed = False
        self.applied_count = 0
        self.reverted_count = 0

    # -- arming ----------------------------------------------------------------

    def arm(self) -> int:
        """Schedule every window; returns the number of events armed.

        The plan's events are relative to 0 and start at ``now``, so a plan
        generated for a campaign horizon is armed just before the campaign
        runs.  Every window, answer kinds included, is in force on
        ``[start, end)``.
        """
        if self._armed:
            raise CampaignConfigError("fault injector is already armed")
        unknown = sorted(
            {e.hostname for e in self.plan.events} - set(self._hosts_by_target)
        )
        if unknown:
            raise CampaignConfigError(
                f"fault plan targets unknown hostnames: {', '.join(unknown)}"
            )
        base = self.network.loop.now
        for event in self.plan.events:
            self.network.loop.call_at(base + event.start_ms, self._apply, event)
            self.network.loop.call_at(base + event.end_ms, self._revert, event)
        self._armed = True
        return len(self.plan.events)

    # -- window lifecycle ------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        self._active.setdefault(event.hostname, []).append(event)
        self.applied_count += 1
        self._recompute(event.hostname)

    def _revert(self, event: FaultEvent) -> None:
        active = self._active.get(event.hostname, [])
        if event in active:
            active.remove(event)
            self.reverted_count += 1
        self._recompute(event.hostname)

    def _recompute(self, hostname: str) -> None:
        """Rebuild each affected host's impairments from its active windows."""
        active = self._active.get(hostname, [])
        for host in self._hosts_by_target[hostname]:
            imp = host.impairments
            imp.clear()
            for event in active:
                if event.kind == FaultKind.OUTAGE_REFUSE:
                    # Refuse wins over drop when both are active: the RST
                    # path is the observable one.
                    imp.syn_override = "refuse"
                elif event.kind == FaultKind.OUTAGE_DROP:
                    if imp.syn_override is None:
                        imp.syn_override = "drop"
                elif event.kind == FaultKind.TLS_WINDOW:
                    imp.tls_failure = True
                elif event.kind == FaultKind.LOSS_SPIKE:
                    imp.extra_loss_rate = 1.0 - (1.0 - imp.extra_loss_rate) * (
                        1.0 - event.magnitude
                    )
                elif event.kind == FaultKind.LATENCY_SPIKE:
                    imp.extra_delay_ms += event.magnitude
                elif event.kind == FaultKind.DEGRADATION:
                    imp.extra_processing_ms += event.magnitude
                elif event.kind in ANSWER_KINDS:
                    imp.answer_faults[Name.from_text(event.domain)] = event.kind

    # -- introspection ---------------------------------------------------------

    @property
    def active_events(self) -> List[FaultEvent]:
        """Windows currently in force (in plan order)."""
        return [e for events in self._active.values() for e in events]

    def describe(self) -> str:
        return (
            f"FaultInjector: {len(self.plan)} windows, "
            f"{self.applied_count} applied, {self.reverted_count} reverted, "
            f"{len(self.active_events)} active"
        )


def mutate_response(response: Message, kind: FaultKind) -> Message:
    """Apply one answer kind to a response message (in place, returned)."""
    if kind == FaultKind.NXDOMAIN:
        response.header.rcode = RCODE_NXDOMAIN
        response.answers = []
    elif kind == FaultKind.SERVFAIL:
        response.header.rcode = RCODE_SERVFAIL
        response.answers = []
    elif kind == FaultKind.REWRITE:
        # Each A record keeps its last octet and moves into TEST-NET-3.
        response.answers = [
            ResourceRecord(
                name=record.name,
                rdtype=record.rdtype,
                rdclass=record.rdclass,
                ttl=record.ttl,
                rdata=ARdata("203.0.113." + record.rdata.address.rsplit(".", 1)[-1]),
            )
            if record.rdtype == TYPE_A and isinstance(record.rdata, ARdata)
            else record
            for record in response.answers
        ]
    elif kind == FaultKind.TTL:
        # Five seconds sits in the "1s+" band; zone data lives in "1d+".
        response.answers = [record.with_ttl(5) for record in response.answers]
    elif kind == FaultKind.TRUNCATE:
        response.header.tc = True
        response.answers = []
    else:
        raise CampaignConfigError(f"{kind!r} is not an answer fault kind")
    return response


def deployment_hosts(deployments: "DeploymentsLike") -> Dict[str, List[Host]]:
    """Target map covering every site host of every resolver deployment.

    Accepts the ``World.deployments`` mapping (hostname →
    :class:`~repro.resolver.deployment.ResolverDeployment`) or any
    iterable of deployments (each carrying ``hostname`` and ``sites``).
    """
    if isinstance(deployments, Mapping):
        items = deployments.values()
    else:
        items = deployments
    return {
        deployment.hostname: [site.host for site in deployment.sites]  # type: ignore[attr-defined]
        for deployment in items
    }


def inject_faults(
    network: Network,
    deployments: "DeploymentsLike",
    plan: FaultPlan,
) -> FaultInjector:
    """Convenience: build an injector over whole deployments and arm it."""
    injector = FaultInjector(network, deployment_hosts(deployments), plan)
    injector.arm()
    return injector
