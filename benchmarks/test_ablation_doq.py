"""A6 — Ablation: DNS-over-QUIC vs DNS-over-HTTPS.

DoQ (RFC 9250) folds transport and TLS into one round trip, so on the
same resolver from the same vantage point the fresh-query cost drops from
~3 x RTT (DoH) to ~2 x RTT, and 0-RTT resumption reaches ~1 x RTT — the
transport the encrypted-DNS ecosystem is moving toward, quantified on the
same substrate as the paper's DoH numbers.
"""

import random
from dataclasses import replace

import pytest

from repro.analysis.stats import median
from repro.catalog.resolvers import CATALOG
from repro.core.probes import DohProbe, DohProbeConfig, DoqProbe, ProbeConfig
from repro.experiments.world import build_world
from repro.tlssim.session import SessionCache
from benchmarks.conftest import print_artifact

RESOLVER = "dns.adguard.com"
QUERIES = 11


@pytest.fixture(scope="module")
def doq_world():
    catalog = [
        replace(entry, reliability="rock")
        for entry in CATALOG
        if entry.hostname == RESOLVER
    ]
    return build_world(seed=81, catalog=catalog)


def run_queries(world, probe) -> float:
    durations = []
    for _ in range(QUERIES):
        out = []
        probe.query("google.com", out.append)
        world.network.run()
        if out[0].success:
            durations.append(out[0].duration_ms)
    probe.close()
    world.network.run()
    return median(durations)


def test_doq_vs_doh(benchmark, doq_world):
    world = doq_world
    host = world.vantage("ec2-ohio").host
    deployment = world.deployment(RESOLVER)
    rtt = world.network.rtt_between(host, deployment.service_ip)

    def run_all():
        return {
            "DoH fresh (TLS 1.3)": run_queries(
                world,
                DohProbe(host, deployment.service_ip, RESOLVER,
                         DohProbeConfig(), rng=random.Random(1)),
            ),
            "DoQ fresh": run_queries(
                world,
                DoqProbe(host, deployment.service_ip, RESOLVER,
                         ProbeConfig(), rng=random.Random(1)),
            ),
            "DoQ 0-RTT resumed": run_queries(
                world,
                DoqProbe(host, deployment.service_ip, RESOLVER,
                         ProbeConfig(), rng=random.Random(1),
                         session_cache=SessionCache()),
            ),
            "DoQ reused connection": run_queries(
                world,
                DoqProbe(host, deployment.service_ip, RESOLVER,
                         ProbeConfig(reuse_connections=True),
                         rng=random.Random(1)),
            ),
        }

    medians = benchmark.pedantic(run_all, rounds=1, iterations=1)

    assert medians["DoQ fresh"] / rtt == pytest.approx(2.0, abs=0.65)
    assert medians["DoH fresh (TLS 1.3)"] / rtt == pytest.approx(3.0, abs=0.8)
    assert medians["DoQ fresh"] < medians["DoH fresh (TLS 1.3)"] - 0.7 * rtt
    assert medians["DoQ reused connection"] / rtt == pytest.approx(1.0, abs=0.5)
    # The 0-RTT series mixes the first (full) handshake with resumed ones;
    # its median still sits at or below the fresh series.
    assert medians["DoQ 0-RTT resumed"] <= medians["DoQ fresh"] + 1.0

    print_artifact(
        "A6: DoQ vs DoH on the same resolver (Ohio vantage)",
        "\n".join(
            f"{name:<24} {value:7.1f} ms = {value / rtt:.2f} x RTT ({rtt:.1f} ms)"
            for name, value in medians.items()
        ),
    )
