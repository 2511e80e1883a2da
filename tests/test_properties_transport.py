"""Property-based tests for transport-layer and normalizer invariants.

These exercise the simulator under adversarial conditions hypothesis can
find: heavy jitter (reordering), arbitrary payload sizes and chunkings —
asserting that byte streams always arrive complete and in order — plus
the canonical-form invariants the answer differ rests on (idempotence,
answer-order independence, empty self-diff) over arbitrary wire messages.
"""

import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.dnswire.canonical import (
    TAXONOMY,
    canonical_form,
    canonical_form_from_wire,
    classify,
    diff_forms,
    normalize_message,
    ttl_band,
    ttl_band_floor,
)
from repro.dnswire.message import Header, Message, Question, ResourceRecord
from repro.dnswire.name import Name
from repro.dnswire.rdata import AaaaRdata, ARdata, CnameRdata, MxRdata, TxtRdata
from repro.dnswire.types import (
    CLASS_IN,
    TYPE_A,
    TYPE_AAAA,
    TYPE_CNAME,
    TYPE_MX,
    TYPE_TXT,
)
from repro.netsim.latency import AccessProfile
from repro.netsim.sockets import MSS, SimTcpConnection
from repro.quicsim.connection import QuicClientConnection, QuicConfig, QuicServerListener
from repro.tlssim.record import RecordStream, wrap_record
from tests.conftest import add_host, make_quiet_network

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_slow
@given(
    payload=st.binary(min_size=1, max_size=4 * MSS + 17),
    jitter_ms=st.floats(min_value=0.0, max_value=30.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_tcp_stream_in_order_despite_reordering(payload, jitter_ms, seed):
    """Heavy per-packet jitter reorders segments; the receiver must still
    deliver the exact byte stream in order."""
    net = make_quiet_network(seed=seed)
    net.latency.core_jitter_ms = jitter_ms  # reordering pressure
    a = add_host(net, "a", "10.0.0.1", lat=41.88, lon=-87.63)
    b = add_host(net, "b", "10.0.0.2", lat=39.96, lon=-83.00)
    received = []
    b.listen_tcp(443, lambda conn: setattr(conn, "on_data", received.append))
    SimTcpConnection.connect(a, b.ip, 443, lambda conn: conn.send(payload))
    net.run()
    assert b"".join(received) == payload


@_slow
@given(
    bodies=st.lists(st.binary(min_size=0, max_size=300), min_size=1, max_size=8),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_property_tls_records_survive_arbitrary_chunking(bodies, chunk):
    """A record stream fed in arbitrary-size chunks yields the same records."""
    wire = b"".join(wrap_record(23, body) for body in bodies)
    stream = RecordStream()
    records = []
    for offset in range(0, len(wire), chunk):
        records.extend(stream.feed(wire[offset : offset + chunk]))
    assert [payload for _t, payload in records] == bodies


@_slow
@given(
    payload=st.binary(min_size=1, max_size=3000),
    jitter_ms=st.floats(min_value=0.0, max_value=20.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_quic_stream_reassembly_under_reordering(payload, jitter_ms, seed):
    net = make_quiet_network(seed=seed)
    net.latency.core_jitter_ms = jitter_ms
    a = add_host(net, "a", "10.0.0.1", lat=41.88, lon=-87.63)
    b = add_host(net, "b", "10.0.0.2", lat=39.96, lon=-83.00)
    QuicServerListener(
        b, 853, lambda conn, sid, data: conn.respond_stream(sid, data), QuicConfig()
    )
    echoed = []
    conn = QuicClientConnection(a, b.ip, 853, "q.example")
    conn.open_stream(payload, echoed.append)
    net.run()
    assert echoed == [payload]


@_slow
@given(
    loss_rate=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_tcp_survives_loss(loss_rate, seed):
    """Any loss rate below the retransmission budget still delivers."""
    net = make_quiet_network(seed=seed)
    net.latency.core_loss_rate = loss_rate
    a = add_host(net, "a", "10.0.0.1", lat=41.88, lon=-87.63)
    b = add_host(net, "b", "10.0.0.2", lat=39.96, lon=-83.00)
    received = []
    errors = []
    b.listen_tcp(443, lambda conn: setattr(conn, "on_data", received.append))
    SimTcpConnection.connect(
        a, b.ip, 443,
        lambda conn: conn.send(b"x" * 2500),
        on_error=errors.append,
        timeout_ms=60_000.0,
    )
    net.run()
    # Either delivery succeeded in full, or the connection failed loudly
    # (handshake exhausted its retries) — never silent partial delivery.
    if not errors:
        assert b"".join(received) == b"x" * 2500


@_slow
@given(payloads=st.lists(st.binary(min_size=1, max_size=200), min_size=1, max_size=5))
def test_property_quic_concurrent_streams_isolated(payloads):
    """N concurrent streams never mix bytes."""
    net = make_quiet_network(seed=3)
    a = add_host(net, "a", "10.0.0.1", lat=41.88, lon=-87.63)
    b = add_host(net, "b", "10.0.0.2", lat=39.96, lon=-83.00)
    QuicServerListener(
        b, 853, lambda conn, sid, data: conn.respond_stream(sid, data), QuicConfig()
    )
    conn = QuicClientConnection(a, b.ip, 853, "q.example")
    results = {}
    for index, payload in enumerate(payloads):
        conn.open_stream(payload, lambda data, i=index: results.setdefault(i, data))
    net.run()
    assert results == {index: payload for index, payload in enumerate(payloads)}

# ---------------------------------------------------------------------------
# Canonical-normalizer invariants (the answer differ rests on these)
# ---------------------------------------------------------------------------

_LABEL_BYTES = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


@st.composite
def dns_names(draw):
    """Names with mixed-case labels — the normalizer must fold them."""
    labels = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 8))
        labels.append(bytes(draw(st.sampled_from(_LABEL_BYTES)) for _ in range(size)))
    return Name(labels)


@st.composite
def answer_records(draw):
    owner = draw(dns_names())
    ttl = draw(st.integers(0, 200_000))
    kind = draw(st.sampled_from(["a", "aaaa", "cname", "mx", "txt"]))
    if kind == "a":
        octets = [draw(st.integers(0, 255)) for _ in range(3)]
        return ResourceRecord(
            owner, TYPE_A, CLASS_IN, ttl, ARdata("10.%d.%d.%d" % tuple(octets))
        )
    if kind == "aaaa":
        return ResourceRecord(
            owner, TYPE_AAAA, CLASS_IN, ttl,
            AaaaRdata("2001:db8::%x" % draw(st.integers(0, 0xFFFF))),
        )
    if kind == "cname":
        return ResourceRecord(
            owner, TYPE_CNAME, CLASS_IN, ttl, CnameRdata(draw(dns_names()))
        )
    if kind == "mx":
        return ResourceRecord(
            owner, TYPE_MX, CLASS_IN, ttl,
            MxRdata(draw(st.integers(0, 100)), draw(dns_names())),
        )
    return ResourceRecord(
        owner, TYPE_TXT, CLASS_IN, ttl,
        TxtRdata([bytes(draw(st.sampled_from(_LABEL_BYTES))
                        for _ in range(draw(st.integers(1, 12))))]),
    )


@st.composite
def response_messages(draw):
    """Arbitrary response messages: any rcode, TC bit, mixed answer types."""
    qname = draw(dns_names())
    return Message(
        header=Header(
            msg_id=draw(st.integers(0, 0xFFFF)),
            qr=True,
            tc=draw(st.booleans()),
            ra=True,
            rcode=draw(st.integers(0, 5)),
        ),
        questions=[Question(qname, TYPE_A, CLASS_IN)],
        answers=draw(st.lists(answer_records(), max_size=5)),
    )


@given(message=response_messages())
def test_property_normalize_is_idempotent(message):
    once = normalize_message(message)
    assert normalize_message(once).to_wire() == once.to_wire()


@given(message=response_messages(), seed=st.randoms(use_true_random=False))
def test_property_canonical_form_ignores_answer_order(message, seed):
    shuffled = Message(
        header=message.header,
        questions=list(message.questions),
        answers=list(message.answers),
    )
    seed.shuffle(shuffled.answers)
    assert canonical_form(shuffled) == canonical_form(message)


@given(message=response_messages())
def test_property_canonical_form_ignores_name_case(message):
    def upper(name):
        return Name(tuple(label.upper() for label in name.labels))

    def upper_rdata(rdata):
        if isinstance(rdata, CnameRdata):
            return CnameRdata(upper(rdata.target))
        if isinstance(rdata, MxRdata):
            return MxRdata(rdata.preference, upper(rdata.exchange))
        return rdata

    shouted = Message(
        header=message.header,
        questions=[Question(upper(q.qname), q.qtype, q.qclass) for q in message.questions],
        answers=[
            ResourceRecord(upper(r.name), r.rdtype, r.rdclass, r.ttl, upper_rdata(r.rdata))
            for r in message.answers
        ],
    )
    assert canonical_form(shouted) == canonical_form(message)


@given(message=response_messages())
@example(
    # "2001:db8::0" reads back off the wire as "2001:db8::": two spellings
    # of one address must not show up as an `answers` mismatch.
    message=Message(
        header=Header(qr=True, ra=True),
        questions=[Question(Name.from_text("v6.example"), TYPE_AAAA, CLASS_IN)],
        answers=[
            ResourceRecord(
                Name.from_text("v6.example"), TYPE_AAAA, CLASS_IN, 300,
                AaaaRdata("2001:db8::0"),
            )
        ],
    )
)
def test_property_self_diff_is_empty_through_the_wire(message):
    """diff(normalize(m), normalize(m)) == [] even after a wire round trip."""
    form = canonical_form(message)
    rewired = canonical_form_from_wire(message.to_wire())
    assert diff_forms(rewired, form) == []
    assert classify([], rewired, form) == "agree"


@given(ttl=st.integers(0, 10_000_000))
def test_property_ttl_band_floor_is_band_stable(ttl):
    """A TTL and its band floor always land in the same band; floors are
    fixed points."""
    floor = ttl_band_floor(ttl)
    assert floor <= ttl
    assert ttl_band(floor) == ttl_band(ttl)
    assert ttl_band_floor(floor) == floor


@given(observed=response_messages(), expected=response_messages())
def test_property_classify_is_total_over_the_taxonomy(observed, expected):
    obs, exp = canonical_form(observed), canonical_form(expected)
    fields = diff_forms(obs, exp)
    label = classify(fields, obs, exp)
    if fields:
        assert label in TAXONOMY
    else:
        assert label == "agree"
