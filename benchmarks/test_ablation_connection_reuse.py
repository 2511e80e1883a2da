"""A1 — Ablation: connection reuse and session resumption.

Context from the related work the paper builds on (Zhu et al., Böttger et
al.): most of encrypted DNS's latency cost is handshakes, and reuse
amortizes it.  The ablation measures one unicast resolver from one vantage
point under four client policies and checks the canonical RTT multiples:

    persistent (h2 reuse)   ~ 1 x RTT
    TLS 1.3 0-RTT           ~ 2 x RTT
    fresh TLS 1.3           ~ 3 x RTT
    fresh TLS 1.2           ~ 4 x RTT
"""

import random

import pytest

from repro.analysis.stats import median
from repro.catalog.resolvers import CATALOG
from repro.core.probes import DohProbe, DohProbeConfig
from repro.experiments.world import build_world
from repro.session import COLD_TERMS, SessionTerms
from repro.tlssim.session import SessionCache
from benchmarks.conftest import print_artifact

RESOLVER = "dns.brahma.world"
QUERIES = 15


@pytest.fixture(scope="module")
def reuse_world():
    catalog = [entry for entry in CATALOG if entry.hostname == RESOLVER]
    return build_world(seed=21, catalog=catalog)


def measure_policy(world, config, session=COLD_TERMS) -> float:
    vantage = world.vantage("ec2-ohio")
    deployment = world.deployment(RESOLVER)
    probe = DohProbe(
        vantage.host, deployment.service_ip, RESOLVER, config, rng=random.Random(9),
        session=session,
    )
    durations = []
    for _ in range(QUERIES):
        outcomes = []
        probe.query("google.com", outcomes.append)
        world.network.run()
        if outcomes[0].success:
            durations.append(outcomes[0].duration_ms)
    probe.close()
    world.network.run()
    return median(durations)


def test_connection_reuse_ablation(benchmark, reuse_world):
    world = reuse_world
    rtt = world.network.rtt_between(
        world.vantage("ec2-ohio").host, world.deployment(RESOLVER).service_ip
    )

    def run_all():
        return {
            "fresh-1.3": measure_policy(world, DohProbeConfig()),
            "fresh-1.2": measure_policy(world, DohProbeConfig(tls_versions=("1.2",))),
            "0rtt": measure_policy(
                world,
                DohProbeConfig(),
                session=SessionTerms(session_cache=SessionCache(), enable_early_data=True),
            ),
            "reuse": measure_policy(world, DohProbeConfig(reuse_connections=True)),
        }

    medians = benchmark.pedantic(run_all, rounds=1, iterations=1)

    assert medians["reuse"] / rtt == pytest.approx(1.0, rel=0.2)
    assert medians["0rtt"] / rtt == pytest.approx(2.0, rel=0.2)
    assert medians["fresh-1.3"] / rtt == pytest.approx(3.0, rel=0.2)
    assert medians["fresh-1.2"] / rtt == pytest.approx(4.0, rel=0.2)
    assert (
        medians["reuse"] < medians["0rtt"] < medians["fresh-1.3"] < medians["fresh-1.2"]
    )

    print_artifact(
        "A1: connection reuse ablation",
        "\n".join(
            f"{name:<10} median {value:7.1f} ms = {value / rtt:.2f} x RTT ({rtt:.1f} ms)"
            for name, value in medians.items()
        ),
    )
