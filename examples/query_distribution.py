#!/usr/bin/env python
"""Query distribution: the privacy/performance trade-off, quantified.

The paper's discussion argues the encrypted-DNS ecosystem needs more
viable resolvers so clients can spread queries and deny any one operator
a full browsing profile.  This example runs the standard distribution
strategies (single resolver, round-robin, uniform random, hash-sticky,
latency-weighted, racing) over measured resolvers from one vantage point
and prints both sides of the trade-off for each.

Run:  python examples/query_distribution.py [vantage]
"""

import sys

from repro.analysis.response_times import resolver_medians
from repro.distribution import (
    HashStickyStrategy,
    RacingStrategy,
    RoundRobinStrategy,
    SingleResolverStrategy,
    UniformRandomStrategy,
    WeightedStrategy,
    evaluate_strategy,
)
from repro.experiments.campaigns import study_legs
from repro.experiments.world import build_world
from repro.parallel import run_campaigns

#: A diversified candidate set: mainstream + the paper's local winners.
CANDIDATES = [
    "dns.google",
    "dns.quad9.net",
    "security.cloudflare-dns.com",
    "ordns.he.net",
    "freedns.controld.com",
]

#: Simulated browsing mix (all resolvable in the simulated hierarchy).
DOMAINS = [
    "google.com", "amazon.com", "wikipedia.com",
    "www.google.com", "www.amazon.com", "www.wikipedia.org",
    "host1.example-sites.net", "host2.example-sites.net",
    "host3.example-sites.net", "host4.example-sites.net",
]


def main() -> None:
    vantage = sys.argv[1] if len(sys.argv) > 1 else "ec2-ohio"
    print("calibrating with a short campaign...")
    store = run_campaigns(
        study_legs(home_rounds=0, ec2_rounds=4, target_hostnames=CANDIDATES),
        world_seed=15,
    ).store
    medians = resolver_medians(store, vantage=vantage, resolvers=CANDIDATES)

    strategies = [
        SingleResolverStrategy("dns.google"),
        RoundRobinStrategy(CANDIDATES),
        UniformRandomStrategy(CANDIDATES),
        HashStickyStrategy(CANDIDATES),
        WeightedStrategy(medians),
        RacingStrategy(CANDIDATES, fanout=2),
    ]

    world = build_world(seed=15)
    print(f"\nstrategy comparison from {vantage} (60 queries each):\n")
    for strategy in strategies:
        outcome = evaluate_strategy(world, vantage, strategy, DOMAINS,
                                    queries=60, seed=8)
        print(outcome.describe())

    print(
        "\nreading: max-share/profile = what the most-exposed operator saw;"
        "\nsingle resolver is fastest-but-total-exposure, racing buys tail"
        "\nlatency with extra exposure, hash-sticky shards the profile."
    )


if __name__ == "__main__":
    main()
