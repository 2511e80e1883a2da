"""Regressions fixed when the five probe classes became one.

Written against names that predate the unification (``DohProbe``,
``DotProbe``, the CLI), so each test runs — and fails — on the commit
before the fix.
"""

import json
import random

import pytest

from repro.catalog.resolvers import CATALOG
from repro.cli import main
from repro.core.probes import DohProbe, DohProbeConfig, DotProbe, ProbeConfig
from repro.experiments.world import build_world

#: Speaks every transport in the table.
RESOLVER = "dns.adguard.com"


@pytest.fixture(scope="module")
def world():
    catalog = [entry for entry in CATALOG if entry.hostname == RESOLVER]
    return build_world(seed=9, catalog=catalog, warm_caches=True)


@pytest.mark.parametrize(
    "probe_cls, config_cls",
    [(DohProbe, DohProbeConfig), (DotProbe, ProbeConfig)],
    ids=["doh", "dot"],
)
def test_dead_kept_alive_connection_is_re_established(world, probe_cls, config_cls):
    """A kept-alive connection that died between queries costs a fresh
    establishment, not a silent 5 s timeout.  (TLS drops writes on a
    closed TCP connection, so a probe that reuses it never hears back.)"""
    host = world.vantage("ec2-ohio").host
    probe = probe_cls(
        host, world.deployment(RESOLVER).service_ip, RESOLVER,
        config_cls(reuse_connections=True), rng=random.Random(1),
    )
    outcomes = []
    probe.query("google.com", outcomes.append)
    world.network.run()
    assert outcomes[0].success and outcomes[0].session_state == "cold"
    # The connection goes away underneath the probe.
    for conn in list(host._tcp_connections.values()):
        conn.close()
    world.network.run()
    probe.query("amazon.com", outcomes.append)
    world.network.run()
    probe.query("wikipedia.com", outcomes.append)
    world.network.run()
    probe.close()
    assert len(outcomes) == 3
    second, third = outcomes[1:]
    assert second.success, second.error_detail
    assert second.session_state == "cold" and not second.connection_reused
    assert second.duration_ms < 500.0  # the deadline is 5000
    assert third.success and third.session_state == "warm"


class TestTransportVocabularyReachesTheCli:
    """``doh3`` is a transport everywhere a transport can be named."""

    def test_trace_over_doh3(self, tmp_path, capsys):
        spans = tmp_path / "spans.jsonl"
        code = main([
            "trace", "--transport", "doh3", "--resolver", RESOLVER,
            "--rounds", "1", "--output", str(spans),
        ])
        assert code == 0
        assert "traced 4 records" in capsys.readouterr().out
        text = spans.read_text()
        assert '"transport":"doh3"' in text and '"name":"quic_handshake"' in text

    def test_diff_verify_requeries_over_doh3(self, tmp_path, capsys):
        cells = tmp_path / "cells.jsonl"
        code = main([
            "diff", "--transport", "doh3", "--rounds", "1",
            "--vantage", "ec2-ohio",
            "--resolver", RESOLVER, "dns.nextdns.io", "dns-family.adguard.com",
            "--faults", "--verify", "1", "--output", str(cells),
        ])
        assert code == 0
        assert "verified 5 disagreements x1 re-queries" in capsys.readouterr().err
        # Each injected fault is served again on the re-query.
        verdicts = [
            json.loads(line)
            for line in cells.read_text().splitlines()
            if '"status":"disagree"' in line
        ]
        assert len(verdicts) == 5
        for verdict in verdicts:
            assert verdict["transport"] == "doh3"
            assert verdict["verify_attempts"] == 1 and verdict["reproducible"] is True
