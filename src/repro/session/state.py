"""Per-(vantage, resolver, transport) session state on the virtual clock.

The :class:`SessionBroker` is the campaign-side owner of everything a
:class:`~repro.session.policy.SessionPolicy` needs to remember between
measurements:

* ``keep_alive`` — the live probe itself (its open connection), plus an
  idle timestamp and a streams-used counter that implement the idle-TTL
  and max-streams retirement rules *deterministically on the virtual
  clock* (no wall time anywhere);
* ``resumption``/``zero_rtt`` — a per-key :class:`ClampedSessionCache`
  holding the latest session ticket, with the ticket lifetime clamped to
  the policy's client-side maximum.

A broker is created per :class:`~repro.core.runner.Campaign` instance,
which makes session state *shard-local by construction*: every shard of
a parallel plan builds a fresh world and a fresh campaign, so no ticket
or live connection can leak across shards or worker processes.  This is
the determinism argument for the scenario matrix — see DESIGN.md §14.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional, Tuple

from repro.session.policy import SessionPolicy
from repro.tlssim.session import SessionCache, SessionTicket
from repro.transports import SESSION_TRANSPORTS

#: Broker key: (vantage name, resolver hostname, transport).
SessionKey = Tuple[str, str, str]


class ClampedSessionCache(SessionCache):
    """A :class:`SessionCache` that clamps ticket lifetimes client-side.

    Servers advertise their own ticket lifetime; a policy may refuse to
    use tickets older than ``max_lifetime_ms`` regardless.  The clamp is
    applied at store time so :meth:`SessionCache.lookup`'s exact-expiry
    semantics (invalid at ``issued + lifetime``) are inherited unchanged.
    """

    def __init__(self, max_lifetime_ms: Optional[float] = None) -> None:
        super().__init__()
        self.max_lifetime_ms = max_lifetime_ms

    def store(self, ticket: SessionTicket) -> None:
        if (
            self.max_lifetime_ms is not None
            and ticket.lifetime_ms > self.max_lifetime_ms
        ):
            ticket = dataclasses.replace(ticket, lifetime_ms=self.max_lifetime_ms)
        super().store(ticket)


@dataclasses.dataclass
class SessionWiring:
    """Probe-construction knobs one policy mode implies for one key."""

    reuse_connections: bool = False
    session_cache: Optional[SessionCache] = None
    enable_early_data: bool = False
    early_data_reject_p: float = 0.0
    cert_verify_ms: float = 0.0


class _Entry:
    """Mutable per-key state (keep-alive probes, ticket caches, counters)."""

    __slots__ = ("probe", "cache", "last_used_ms", "streams_used", "evictions")

    def __init__(self) -> None:
        self.probe: Optional[Any] = None
        self.cache: Optional[ClampedSessionCache] = None
        self.last_used_ms: float = 0.0
        self.streams_used: int = 0
        self.evictions: int = 0


class SessionBroker:
    """Owns session state for one campaign run.

    The campaign calls, per measurement and per transport:

    1. :meth:`checkout` (keep-alive only) to reuse or build the probe;
    2. :meth:`before_query` just before each query, which applies the
       idle-TTL / max-streams retirement rules on the virtual clock;
    3. :meth:`after_query` once the query completes;
    4. :meth:`release` when the measurement's domain list is done
       (keep-alive keeps the probe open; other modes close it).
    """

    def __init__(self, policy: SessionPolicy, loop: Any) -> None:
        self.policy = policy
        self._loop = loop
        self._entries: Dict[SessionKey, _Entry] = {}

    # -- wiring -----------------------------------------------------------

    @property
    def keeps_probes(self) -> bool:
        return self.policy.keeps_connections

    def wiring(self, key: SessionKey) -> SessionWiring:
        """Probe-config knobs for this key under the broker's policy."""
        transport = key[2]
        if transport not in SESSION_TRANSPORTS:
            return SessionWiring()
        policy = self.policy
        if policy.keeps_connections:
            return SessionWiring(
                reuse_connections=True,
                cert_verify_ms=policy.cert_verify_ms,
            )
        if policy.resumes_sessions:
            return SessionWiring(
                session_cache=self.cache_for(key),
                enable_early_data=policy.uses_early_data,
                early_data_reject_p=(
                    policy.zero_rtt_reject_p if policy.uses_early_data else 0.0
                ),
                cert_verify_ms=policy.cert_verify_ms,
            )
        return SessionWiring()

    def cache_for(self, key: SessionKey) -> ClampedSessionCache:
        entry = self._entries.setdefault(key, _Entry())
        if entry.cache is None:
            entry.cache = ClampedSessionCache(
                max_lifetime_ms=self.policy.ticket_lifetime_ms
            )
        return entry.cache

    # -- keep-alive probe lifecycle ---------------------------------------

    def checkout(
        self,
        key: SessionKey,
        rng: Any,
        factory: Callable[[], Any],
    ) -> Any:
        """The persistent probe for ``key``, rebinding its RNG per measurement."""
        entry = self._entries.setdefault(key, _Entry())
        if entry.probe is None:
            entry.probe = factory()
            entry.last_used_ms = self._loop.now
        else:
            # Each measurement owns a freshly derived RNG stream; the
            # persistent probe must draw from it, not from the stream of
            # the measurement that created the connection.
            entry.probe.rng = rng
        return entry.probe

    def before_query(self, key: SessionKey, probe: Any) -> None:
        """Apply idle-TTL and max-streams retirement before a query."""
        entry = self._entries.get(key)
        if entry is None or not self.policy.keeps_connections:
            return
        now = self._loop.now
        idle = now - entry.last_used_ms
        if entry.streams_used > 0 and (
            idle >= self.policy.idle_ttl_ms
            or entry.streams_used >= self.policy.max_streams
        ):
            probe.close()
            entry.streams_used = 0
            entry.evictions += 1
        entry.last_used_ms = now

    def after_query(self, key: SessionKey) -> None:
        entry = self._entries.get(key)
        if entry is None:
            return
        entry.streams_used += 1
        entry.last_used_ms = self._loop.now

    def release(self, key: SessionKey, probe: Any) -> None:
        """End of one measurement: keep-alive parks the probe, others close."""
        if self.policy.keeps_connections:
            entry = self._entries.setdefault(key, _Entry())
            entry.probe = probe
            entry.last_used_ms = self._loop.now
        else:
            probe.close()

    def close_all(self) -> None:
        for entry in self._entries.values():
            if entry.probe is not None:
                entry.probe.close()
                entry.probe = None

    # -- introspection ----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Per-key counters for tests and debugging (stable key order)."""
        out: Dict[str, Dict[str, Any]] = {}
        for key in sorted(self._entries):
            entry = self._entries[key]
            cache = entry.cache
            out["/".join(key)] = {
                "live_probe": entry.probe is not None,
                "streams_used": entry.streams_used,
                "evictions": entry.evictions,
                "tickets": len(cache) if cache is not None else 0,
                "cache_hits": cache.hits if cache is not None else 0,
                "cache_misses": cache.misses if cache is not None else 0,
            }
        return out

    def __len__(self) -> int:
        return len(self._entries)


__all__ = [
    "ClampedSessionCache",
    "SESSION_TRANSPORTS",
    "SessionBroker",
    "SessionKey",
    "SessionWiring",
]
