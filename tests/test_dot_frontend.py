"""Regression tests for the raw DoT (RFC 7858) transport path.

DoT's wire format is the 2-byte length-prefixed framing of TCP DNS over
a TLS stream.  These tests pin:

* the framing codec round-trips any message sequence, byte for byte,
  under arbitrary re-chunking;
* a stream that ends mid-frame surfaces the *named*
  :class:`~repro.errors.FramingError` — at the parser (``finish()``) and
  end-to-end at the probe when a server closes mid-response — instead of
  rotting into an anonymous timeout;
* DoT rides every downstream pipeline: phase attribution
  (``connect_ms``/``tls_ms``/``query_ms``), monitor group keys, and the
  observer fleet's transport-qualified latency groups (``(host, dot)``).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.errors_taxonomy import ErrorClass
from repro.core.probes import DotProbe, ProbeConfig
from repro.core.results import MeasurementRecord
from repro.core.runner import Campaign, CampaignConfig
from repro.core.scheduler import PeriodicSchedule
from repro.errors import FramingError
from repro.monitor import Monitor, default_policy
from repro.observers import BaselineConfig, ObserverFleet, ObserverSpec
from repro.resolver.frontends import LengthPrefixedStream
from repro.tlssim.handshake import TlsServerConfig, TlsServerConnection
from tests.conftest import add_host, make_mini_world, make_quiet_network

# ---------------------------------------------------------------------------
# Framing codec
# ---------------------------------------------------------------------------


class TestLengthPrefixedFraming:
    def test_round_trip_single_message(self):
        wire = LengthPrefixedStream.frame(b"\x12\x34hello")
        assert wire[:2] == b"\x00\x07"
        assert LengthPrefixedStream().feed(wire) == [b"\x12\x34hello"]

    def test_incremental_feed_reassembles(self):
        wire = LengthPrefixedStream.frame(b"abcdef")
        stream = LengthPrefixedStream()
        assert stream.feed(wire[:1]) == []
        assert stream.feed(wire[1:4]) == []
        assert stream.feed(wire[4:]) == [b"abcdef"]
        assert stream.pending == 0

    def test_empty_message_frames(self):
        assert LengthPrefixedStream().feed(
            LengthPrefixedStream.frame(b"")
        ) == [b""]

    @given(
        messages=st.lists(
            st.binary(min_size=0, max_size=300), min_size=1, max_size=8
        ),
        chunk=st.integers(min_value=1, max_value=64),
    )
    def test_property_any_chunking_round_trips(self, messages, chunk):
        wire = b"".join(LengthPrefixedStream.frame(m) for m in messages)
        stream = LengthPrefixedStream()
        out = []
        for offset in range(0, len(wire), chunk):
            out.extend(stream.feed(wire[offset : offset + chunk]))
        assert out == messages
        stream.finish()  # clean boundary: no error

    def test_mid_stream_truncation_raises_named_error(self):
        stream = LengthPrefixedStream()
        wire = LengthPrefixedStream.frame(b"x" * 40)
        assert stream.feed(wire[:17]) == []
        assert stream.pending == 17
        with pytest.raises(FramingError) as exc_info:
            stream.finish()
        assert "mid-frame" in str(exc_info.value)

    def test_truncated_length_prefix_raises(self):
        stream = LengthPrefixedStream()
        stream.feed(b"\x00")  # half a length prefix
        with pytest.raises(FramingError):
            stream.finish()


# ---------------------------------------------------------------------------
# Probe-level truncation: named error, not a timeout
# ---------------------------------------------------------------------------


def _truncating_dot_server(net, cut: int):
    """A DoT server that sends ``cut`` bytes of a framed response, then FIN."""
    server = add_host(net, "server", "10.9.0.2", lat=50.11, lon=8.68,
                      continent="EU")
    config = TlsServerConfig(alpn_preference=("dot",))

    def acceptor(tcp_conn):
        tls = TlsServerConnection(tcp_conn, config)

        def on_app_data(_data: bytes) -> None:
            framed = LengthPrefixedStream.frame(b"y" * 60)
            if cut:
                tls.send_application(framed[:cut])
            tls.close()

        tls.on_application_data = on_app_data

    server.listen_tcp(853, acceptor)
    return server


@pytest.mark.parametrize("cut,expect_framing", [(11, True), (0, False)])
def test_server_close_mid_frame_surfaces_framing_error(cut, expect_framing):
    net = make_quiet_network()
    client = add_host(net, "client", "10.9.0.1")
    server = _truncating_dot_server(net, cut=cut)

    outcomes = []
    probe = DotProbe(client, server.ip, "dns.example",
                     ProbeConfig(timeout_ms=30_000.0),
                     rng=random.Random(0))
    probe.query("example.com", outcomes.append)
    net.run()

    assert len(outcomes) == 1
    outcome = outcomes[0]
    assert not outcome.success
    if expect_framing:
        # Truncated mid-frame: the named FramingError, classified as
        # malformed DNS data — and long before the 30 s deadline.
        assert outcome.error_class is ErrorClass.DNS_MALFORMED
        assert "mid-frame" in (outcome.error_detail or "")
    else:
        # Clean close before any response bytes: a connection reset.
        assert outcome.error_class is ErrorClass.CONNECTION_RESET
    assert outcome.duration_ms is not None and outcome.duration_ms < 2000.0


# ---------------------------------------------------------------------------
# DoT in the downstream pipelines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dot_store():
    world = make_mini_world(seed=3)
    config = CampaignConfig(
        name="dot-check",
        schedule=PeriodicSchedule(rounds=2, interval_ms=60_000.0),
        transport="dot",
        ping=False,
        seed=77,
    )
    store = Campaign(
        network=world.network,
        vantages=[world.vantage("ec2-ohio")],
        targets=world.targets(["dns.google", "dns.quad9.net"]),
        config=config,
    ).run()
    store.canonical_sort()
    return store


def test_dot_records_carry_phase_attribution(dot_store):
    from repro.analysis.phases import phase_breakdown

    queries = [r for r in dot_store.records if r.kind == "dns_query"]
    assert queries and all(r.transport == "dot" for r in queries)
    for record in queries:
        if record.success:
            assert record.connect_ms is not None and record.connect_ms > 0
            assert record.tls_ms is not None and record.tls_ms > 0
            assert record.query_ms is not None

    breakdown = phase_breakdown(dot_store, "dns.google", "ec2-ohio")
    assert breakdown is not None
    assert breakdown.establishment_ms > 0
    assert 0.0 < breakdown.establishment_share < 1.0


def test_dot_monitor_groups_keyed_by_transport(dot_store):
    monitor = Monitor(default_policy())
    monitor.replay(dot_store.records)
    transports = {key[3] for key in monitor._groups}
    assert transports == {"dot"}


def test_dot_observer_latency_group_is_host_and_dot():
    spec = ObserverSpec(
        name="p95",
        kind="latency_p95",
        scope="resolver",
        min_samples=1,
        baseline=BaselineConfig(min_days=2),
    )
    fleet = ObserverFleet([spec])
    record = MeasurementRecord(
        campaign="dot-check",
        vantage="ec2-ohio",
        resolver="dns.google",
        kind="dns_query",
        transport="dot",
        domain="example.com",
        round_index=0,
        started_at_ms=0.0,
        duration_ms=25.0,
        success=True,
    )
    assert fleet._group_of(spec, record) == ("dns.google", "dot")
    assert spec.axes == ("resolver", "transport")
    doh3 = MeasurementRecord(
        campaign="dot-check",
        vantage="ec2-ohio",
        resolver="dns.google",
        kind="dns_query",
        transport="doh3",
        domain="example.com",
        round_index=0,
        started_at_ms=0.0,
        duration_ms=25.0,
        success=True,
    )
    assert fleet._group_of(spec, doh3) == ("dns.google", "doh3")
