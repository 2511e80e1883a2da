"""The per-packet path under a whole campaign.

The unit tests of each mechanism live beside their module
(``test_netsim_clock``, ``test_netsim_network``, ``test_netsim_sockets``);
here a 5-resolver cold-DoH campaign checks what only a full run shows: no
timer is left to fire into a finished handshake, the loop drains, and the
traced, metered path produces the records of the plain one.
"""

import pytest

from repro.catalog.resolvers import CATALOG
from repro.core.runner import Campaign
from repro.experiments.campaigns import (
    EC2_VANTAGE_NAMES,
    SESSION_TARGET_HOSTNAMES,
    ec2_campaign_config,
)
from repro.experiments.world import build_world
from repro.netsim.sockets import SimTcpConnection
from repro.netsim.trace import EventTrace
from repro.obs import MetricsRegistry, tracing

HANDSHAKE_STATES = (SimTcpConnection.SYN_SENT, SimTcpConnection.SYN_RECEIVED)


def _campaign(trace=None):
    catalog = [e for e in CATALOG if e.hostname in SESSION_TARGET_HOSTNAMES]
    world = build_world(seed=11, catalog=catalog, trace=trace)
    campaign = Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in EC2_VANTAGE_NAMES],
        targets=world.targets(),
        config=ec2_campaign_config(rounds=2, seed=11),
    )
    return world, campaign


def test_no_handshake_timer_fires_into_a_finished_handshake(monkeypatch):
    world, campaign = _campaign()
    loop = world.network.loop
    real_call_later = loop.call_later
    armed, dead = [], []

    def call_later(delay, callback, *args):
        if getattr(callback, "__func__", None) is not SimTcpConnection._retransmit_handshake:
            return real_call_later(delay, callback, *args)
        conn = callback.__self__
        armed.append(conn)

        def dispatched(*call_args):
            if conn.state not in HANDSHAKE_STATES:
                dead.append(conn)
            callback(*call_args)

        return real_call_later(delay, dispatched, *args)

    monkeypatch.setattr(loop, "call_later", call_later)
    records = campaign.run().records
    doh = [r for r in records if r.transport == "doh"]
    assert len(doh) == 5 * 3 * 3 * 2
    # Every cold DoH query arms one timer per side (SYN, SYN-ACK) ...
    assert len(armed) >= 2 * sum(1 for r in doh if r.success)
    # ... and none of them is dispatched once its handshake is over.
    assert dead == []
    assert loop.pending == 0


def test_traced_and_metered_run_delivers_what_it_sends_and_changes_no_record():
    _, plain = _campaign()
    expected = [record.to_json() for record in plain.run().records]

    world, observed = _campaign(trace=EventTrace())
    world.network.trace.clear()  # drop the cache warm-up
    with tracing(metrics=MetricsRegistry(enabled=True)) as (_recorder, metrics):
        records = observed.run().records
    assert [record.to_json() for record in records] == expected

    sent = metrics.counters_matching("net.packets_sent")
    delivered = metrics.counters_matching("net.packets_delivered")
    assert sum(sent.values()) == sum(delivered.values()) > 0
    assert {key.split("{")[-1] for key in sent} == {key.split("{")[-1] for key in delivered}
    trace = world.network.trace
    assert len(trace.filter(kind="sent")) == len(trace.filter(kind="delivered")) == sum(sent.values())
    assert world.network.loop.pending == 0
