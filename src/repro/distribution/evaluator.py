"""Evaluates a distribution strategy on the simulated platform.

For each simulated "browsing" query: the strategy picks resolver(s), the
evaluator issues the DoH query (racing picks in parallel, first response
wins), and both the response time and the exposure (who saw which domain)
are recorded.  The result carries the performance distribution and the
privacy metrics side by side.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.stats import BoxplotStats, summarize
from repro.core.probes import ProbeConfig, make_probe
from repro.distribution.strategies import Strategy
from repro.errors import CampaignConfigError

if False:  # pragma: no cover - typing only
    from repro.experiments.world import World


@dataclass
class PrivacyMetrics:
    """How much each resolver operator learned."""

    queries_seen: Dict[str, int]
    domains_seen: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def total_sightings(self) -> int:
        return sum(self.queries_seen.values())

    @property
    def max_share(self) -> float:
        """Fraction of sightings at the most-exposed resolver (1.0 = full profile)."""
        total = self.total_sightings
        if not total:
            return 0.0
        return max(self.queries_seen.values()) / total

    @property
    def entropy_bits(self) -> float:
        """Shannon entropy of the query distribution over resolvers."""
        total = self.total_sightings
        if not total:
            return 0.0
        entropy = 0.0
        for count in self.queries_seen.values():
            if count:
                p = count / total
                entropy -= p * math.log2(p)
        return entropy

    @property
    def normalized_entropy(self) -> float:
        """Entropy / log2(#resolvers that saw anything); 1.0 = perfectly even."""
        seen = sum(1 for count in self.queries_seen.values() if count)
        if seen <= 1:
            return 0.0
        return self.entropy_bits / math.log2(seen)

    def profile_fraction(self, resolver: str, all_domains: Set[str]) -> float:
        """Fraction of the user's distinct domains this resolver observed."""
        if not all_domains:
            return 0.0
        return len(self.domains_seen.get(resolver, set()) & all_domains) / len(all_domains)

    @property
    def max_profile_fraction(self) -> float:
        """Largest per-resolver share of the distinct-domain profile."""
        all_domains: Set[str] = set()
        for domains in self.domains_seen.values():
            all_domains |= domains
        if not all_domains:
            return 0.0
        return max(
            (len(domains) / len(all_domains) for domains in self.domains_seen.values()),
            default=0.0,
        )


@dataclass
class DistributionOutcome:
    """Result of one strategy evaluation."""

    strategy_name: str
    latency: BoxplotStats
    privacy: PrivacyMetrics
    failures: int
    queries: int

    def describe(self) -> str:
        return (
            f"{self.strategy_name:<16} median {self.latency.median:7.1f} ms "
            f"(q3 {self.latency.q3:7.1f})  max-share {self.privacy.max_share:.0%}  "
            f"entropy {self.privacy.entropy_bits:.2f} bits  "
            f"profile {self.privacy.max_profile_fraction:.0%}  "
            f"failures {self.failures}/{self.queries}"
        )


def evaluate_strategy(
    world: "World",
    vantage_name: str,
    strategy: Strategy,
    domains: Sequence[str],
    queries: int = 60,
    seed: int = 0,
    probe_config: Optional[ProbeConfig] = None,
) -> DistributionOutcome:
    """Run ``queries`` simulated lookups under ``strategy``.

    Domains are drawn round-robin from ``domains`` (every domain recurs,
    as in real browsing).  Racing strategies issue parallel probes and the
    first successful response stops the clock.
    """
    if queries <= 0:
        raise CampaignConfigError("need at least one query")
    if not domains:
        raise CampaignConfigError("need at least one domain")
    rng = random.Random(seed)
    vantage = world.vantage(vantage_name)
    config = probe_config or ProbeConfig()

    durations: List[float] = []
    failures = 0
    queries_seen: Dict[str, int] = {}
    domains_seen: Dict[str, Set[str]] = {}

    for index in range(queries):
        domain = domains[index % len(domains)]
        picks = strategy.pick(domain, rng)
        for hostname in picks:
            queries_seen[hostname] = queries_seen.get(hostname, 0) + 1
            domains_seen.setdefault(hostname, set()).add(domain)

        first: List[float] = []
        outstanding = [len(picks)]

        def on_outcome(outcome) -> None:
            outstanding[0] -= 1
            if outcome.success and not first:
                first.append(outcome.duration_ms)

        for hostname in picks:
            deployment = world.deployment(hostname)
            probe = make_probe(
                "doh",
                vantage.host,
                deployment.service_ip,
                hostname,
                config,
                rng=random.Random(rng.getrandbits(32)),
            )
            probe.query(domain, on_outcome)
        world.network.run()
        if first:
            durations.append(first[0])
        else:
            failures += 1

    if not durations:
        raise CampaignConfigError(
            f"strategy {strategy.name} produced no successful queries"
        )
    return DistributionOutcome(
        strategy_name=strategy.name,
        latency=summarize(durations),
        privacy=PrivacyMetrics(queries_seen=queries_seen, domains_seen=domains_seen),
        failures=failures,
        queries=queries,
    )
