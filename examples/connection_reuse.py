#!/usr/bin/env python
"""Connection reuse ablation: where DoH's latency actually goes.

Related work (Zhu et al., Böttger et al.) found that most of DoT/DoH's
overhead is handshakes and is amortized by connection reuse.  This example
quantifies that on the simulated platform, measuring the same resolver
from the same vantage point under four client policies:

* fresh connection per query, TLS 1.3 (the paper's dig-style methodology);
* fresh connection per query, TLS 1.2 (one extra round trip);
* fresh TCP + TLS 1.3 session resumption with 0-RTT early data;
* one persistent connection reused for every query (HTTP/2 multiplexed);
* DNS-over-QUIC, fresh per query (QUIC folds TCP+TLS into one round trip).

Run:  python examples/connection_reuse.py
"""

import random

from repro.analysis.render import render_table
from repro.analysis.stats import summarize
from repro.core.probes import ProbeConfig, make_probe
from repro.experiments.world import build_world
from repro.session import COLD_TERMS, SessionTerms
from repro.tlssim.session import SessionCache

RESOLVER = "dns.brahma.world"  # unicast in Frankfurt: clean RTT structure
VANTAGE = "ec2-ohio"
QUERIES = 30


def measure(
    world, policy_name, config, resolver=RESOLVER, transport="doh", session=COLD_TERMS
) -> tuple:
    vantage = world.vantage(VANTAGE)
    deployment = world.deployment(resolver)
    probe = make_probe(
        transport, vantage.host, deployment.service_ip, resolver, config, rng=random.Random(5),
        session=session,
    )
    durations = []
    for index in range(QUERIES):
        outcomes = []
        probe.query("google.com", outcomes.append)
        world.network.run()
        if outcomes[0].success:
            durations.append(outcomes[0].duration_ms)
    probe.close()
    rtt = world.network.rtt_between(vantage.host, deployment.service_ip)
    stats = summarize(durations)
    return (
        policy_name,
        f"{stats.median:.1f}",
        f"{stats.q1:.1f}",
        f"{stats.q3:.1f}",
        f"{stats.median / rtt:.2f}",
    )


def main() -> None:
    world = build_world(seed=3)
    rtt = world.network.rtt_between(
        world.vantage(VANTAGE).host, world.deployment(RESOLVER).service_ip
    )
    print(f"{RESOLVER} from {VANTAGE}: base RTT {rtt:.1f} ms\n")

    rows = [
        measure(world, "fresh, TLS 1.3 (paper method)", ProbeConfig()),
        measure(world, "fresh, TLS 1.2", ProbeConfig(tls_versions=("1.2",))),
        measure(
            world,
            "fresh TCP + TLS 1.3 0-RTT resumption",
            ProbeConfig(),
            session=SessionTerms(session_cache=SessionCache(), enable_early_data=True),
        ),
        measure(world, "persistent connection (h2 reuse)", ProbeConfig(reuse_connections=True)),
        # DoQ is measured against dns.adguard.com (which serves it); the
        # RTT-multiple column keeps the comparison fair across resolvers.
        measure(world, "fresh DoQ (dns.adguard.com)", ProbeConfig(),
                resolver="dns.adguard.com", transport="doq"),
    ]
    print(render_table(("client policy", "median ms", "q1", "q3", "x RTT"), rows))
    print(
        "\nfresh TLS 1.3 ~= 3 x RTT, TLS 1.2 ~= 4 x RTT, 0-RTT ~= 2 x RTT,\n"
        "reused connection ~= 1 x RTT, fresh DoQ ~= 2 x RTT:\n"
        "handshakes are the whole story."
    )


if __name__ == "__main__":
    main()
