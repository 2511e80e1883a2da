#!/usr/bin/env python
"""Quickstart: measure a few DoH resolvers from one vantage point.

Builds the simulated Internet (the full study world: DNS hierarchy, 91
resolver deployments, seven vantage points), then issues DoH queries and
ICMP pings from the Ohio EC2 vantage point against a handful of resolvers
and prints the results — the smallest end-to-end use of the library.

Run:  python examples/quickstart.py
"""

import random

from repro.core.probes import PingProbe, ProbeConfig, make_probe
from repro.experiments.world import build_world

RESOLVERS = [
    "dns.google",
    "dns.quad9.net",
    "security.cloudflare-dns.com",
    "ordns.he.net",  # non-mainstream: Hurricane Electric
    "dns.brahma.world",  # non-mainstream: unicast, Frankfurt
    "dns.twnic.tw",  # non-mainstream: unicast, Taipei
]

DOMAINS = ["google.com", "amazon.com", "wikipedia.com"]


def main() -> None:
    print("building the simulated Internet (91 resolver deployments)...")
    world = build_world(seed=42)
    vantage = world.vantage("ec2-ohio")
    print(f"measuring from {vantage.region_label}\n")

    print(f"{'resolver':<30} {'median DoH (ms)':>16} {'ping (ms)':>10}")
    for hostname in RESOLVERS:
        deployment = world.deployment(hostname)
        probe = make_probe(
            "doh",
            vantage.host,
            deployment.service_ip,
            hostname,
            ProbeConfig(),
            rng=random.Random(1),
        )
        durations = []
        for domain in DOMAINS:
            outcomes = []
            probe.query(domain, outcomes.append)
            world.network.run()
            outcome = outcomes[0]
            if outcome.success:
                durations.append(outcome.duration_ms)

        pings = []
        PingProbe(vantage.host, deployment.service_ip).send(pings.append)
        world.network.run()
        ping = pings[0]

        median = sorted(durations)[len(durations) // 2] if durations else None
        ping_text = f"{ping.duration_ms:.1f}" if ping.success else "no reply"
        median_text = f"{median:.1f}" if median is not None else "failed"
        kind = "anycast" if deployment.anycast else "unicast"
        print(f"{hostname:<30} {median_text:>16} {ping_text:>10}   ({kind})")


if __name__ == "__main__":
    main()
