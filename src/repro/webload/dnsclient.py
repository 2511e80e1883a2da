"""The browser-side stub resolver.

Resolves domains through a configured upstream (DoH with a kept-alive
connection — how browsers actually run DoH — or classic Do53), and caches
answers by TTL like a real stub, so only the *first* lookup of each domain
during a page load pays the resolver round trip.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.probes import ProbeConfig, make_probe
from repro.errors import CampaignConfigError, ResolutionFailed
from repro.netsim.host import Host

ResolveCallback = Callable[[Optional[List[str]], Optional[Exception]], None]


@dataclass
class StubResolverConfig:
    """Upstream choice and cache behaviour."""

    transport: str = "doh"  # "doh" | "do53"
    reuse_connections: bool = True
    cache_ttl_ms: float = 300_000.0
    timeout_ms: float = 5000.0

    def __post_init__(self) -> None:
        if self.transport not in ("doh", "do53"):
            raise CampaignConfigError(f"unknown stub transport {self.transport!r}")


class StubResolver:
    """Client-side resolver bound to one upstream recursive resolver."""

    def __init__(
        self,
        host: Host,
        resolver_ip: str,
        resolver_name: str,
        config: Optional[StubResolverConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.config = config or StubResolverConfig()
        self.rng = rng if rng is not None else random.Random(0)
        self._cache: Dict[str, Tuple[List[str], float]] = {}
        self._pending: Dict[str, List[ResolveCallback]] = {}
        self.lookups = 0
        self.cache_hits = 0
        self.upstream_queries = 0
        self.total_lookup_ms = 0.0
        self._probe = make_probe(
            self.config.transport,
            host,
            resolver_ip,
            resolver_name,
            ProbeConfig(
                reuse_connections=self.config.reuse_connections,
                timeout_ms=self.config.timeout_ms,
            ),
            rng=self.rng,
        )

    @property
    def _loop(self):
        assert self.host.network is not None
        return self.host.network.loop

    def resolve(self, domain: str, callback: ResolveCallback) -> None:
        """Resolve ``domain`` to addresses; cached answers return instantly."""
        self.lookups += 1
        cached = self._cache.get(domain)
        now = self._loop.now
        if cached is not None and now < cached[1]:
            self.cache_hits += 1
            callback(list(cached[0]), None)
            return
        waiters = self._pending.get(domain)
        if waiters is not None:
            # Coalesce with the in-flight lookup, as real stubs do.
            waiters.append(callback)
            return
        self._pending[domain] = [callback]
        self.upstream_queries += 1
        started = now

        def on_outcome(outcome) -> None:
            self.total_lookup_ms += self._loop.now - started
            callbacks = self._pending.pop(domain, [])
            if outcome.success and outcome.answers:
                self._cache[domain] = (
                    list(outcome.answers),
                    self._loop.now + self.config.cache_ttl_ms,
                )
                for waiting in callbacks:
                    waiting(list(outcome.answers), None)
            else:
                error = ResolutionFailed(
                    f"{domain}: {outcome.error_class or 'no addresses'}"
                )
                for waiting in callbacks:
                    waiting(None, error)

        self._probe.query(domain, on_outcome)

    def flush_cache(self) -> None:
        self._cache.clear()

    def close(self) -> None:
        self._probe.close()
