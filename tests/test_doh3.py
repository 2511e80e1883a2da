"""Tests for the DoH/3 frontend: HTTP/3 framing, probe, 0-RTT fallback.

DoH/3 is DoH semantics (paths, methods, HTTP statuses, cache-control)
on a QUIC transport — one HTTP/3 exchange per stream on UDP 443.  These
tests cover the h3 codec round-trips and named truncation errors, the
probe end-to-end against a catalog deployment, and the session-policy
invariant that a rejected 0-RTT attempt always lands as a well-formed
``resumed`` record, never as a lost query.
"""

from __future__ import annotations

import json
import random
import struct

import pytest
from hypothesis import given, strategies as st

from repro.catalog.resolvers import CATALOG
from repro.core.probes import Doh3Probe, Doh3ProbeConfig
from repro.core.runner import Campaign
from repro.errors import HttpProtocolError
from repro.experiments.campaigns import sessions_campaign_config
from repro.experiments.world import build_world
import repro.httpsim.h3 as h3
from repro.httpsim.h1 import HttpRequest, HttpResponse
from repro.httpsim.h3 import (
    H3CodecError,
    decode_h3_request,
    decode_h3_response,
    encode_h3_request,
    encode_h3_response,
)
from repro.session import SessionPolicy

#: A deployment speaking doq + doh3 (the session-transport catalog set).
DOH3_HOSTNAME = "dns.adguard.com"


def make_doh3_world(seed: int = 0):
    catalog = [e for e in CATALOG if e.hostname == DOH3_HOSTNAME]
    return build_world(seed=seed, catalog=catalog, warm_caches=True)


# ---------------------------------------------------------------------------
# HTTP/3 codec
# ---------------------------------------------------------------------------


class TestH3Codec:
    def test_request_round_trip(self):
        request = HttpRequest(
            method="POST",
            path="/dns-query",
            headers={"Content-Type": "application/dns-message"},
            body=b"\x00\x01query",
        )
        decoded = decode_h3_request(encode_h3_request(request, "dns.example"))
        assert decoded.method == "POST"
        assert decoded.path == "/dns-query"
        assert decoded.header("Content-Type") == "application/dns-message"
        assert decoded.body == b"\x00\x01query"

    def test_response_round_trip(self):
        response = HttpResponse(
            status=200,
            headers={"Content-Type": "application/dns-message"},
            body=b"\x00\x01answer",
        )
        decoded = decode_h3_response(encode_h3_response(response))
        assert decoded.status == 200
        assert decoded.body == b"\x00\x01answer"

    @given(
        body=st.binary(min_size=0, max_size=500),
        path=st.text(
            alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E),
            min_size=1,
            max_size=40,
        ),
    )
    def test_property_request_bodies_round_trip(self, body, path):
        request = HttpRequest(method="GET", path="/" + path, headers={}, body=body)
        decoded = decode_h3_request(encode_h3_request(request, "h"))
        assert decoded.body == body
        assert decoded.path == "/" + path

    @pytest.mark.parametrize("cut", [1, 4, 7])
    def test_truncated_stream_raises_named_error(self, cut):
        wire = encode_h3_request(
            HttpRequest("POST", "/dns-query", {}, b"x" * 32), "dns.example"
        )
        with pytest.raises(H3CodecError):
            decode_h3_request(wire[:-cut])

    def test_error_is_an_http_protocol_error(self):
        # The named error slots into the existing taxonomy.
        assert issubclass(H3CodecError, HttpProtocolError)
        with pytest.raises(H3CodecError):
            decode_h3_response(b"\x00\x00\x00\x00\x02hi")  # DATA before HEADERS

    def test_headers_must_be_json_object(self):
        import struct

        wire = struct.pack("!BI", 0x01, 4) + b"[42]"
        with pytest.raises(H3CodecError):
            decode_h3_request(wire)


_field_text = st.text(max_size=12)
_awkward_values = st.one_of(
    _field_text,
    st.sampled_from([0, 1, 200, True, False, 1.0, 200.0, None]),
    st.lists(st.integers(0, 3), max_size=2),
)


def _reference_frame(fields):
    """A HEADERS frame as it has always been: compact JSON, length-prefixed."""
    payload = json.dumps(fields, separators=(",", ":")).encode("utf-8")
    return struct.pack("!BI", 0x01, len(payload)) + payload


class TestH3FieldMaps:
    """The HEADERS frame of a field set is serialised and parsed once; that
    must not show."""

    @given(
        requests=st.lists(
            st.tuples(
                st.sampled_from(["GET", "POST"]),
                _field_text,
                _field_text,
                st.dictionaries(_field_text, _field_text, max_size=3),
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_property_requests_encode_as_ever_and_round_trip(self, requests):
        for method, path, host, headers in requests + requests:
            request = HttpRequest(method=method, path=path, headers=headers, body=b"")
            wire = encode_h3_request(request, host)
            assert wire == _reference_frame(
                {":method": method, ":path": path, ":authority": host, "headers": headers}
            )
            decoded = decode_h3_request(wire)
            assert (decoded.method, decoded.path, decoded.headers) == (method, path, headers)
            assert decoded.headers is not headers

    @given(
        responses=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 200, 404, True, False, 1.0, 200.0]),
                st.dictionaries(st.sampled_from(["a", "b"]), _awkward_values, max_size=2),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_property_any_status_and_value_encodes_as_ever(self, responses):
        for status, headers in responses + responses:
            wire = encode_h3_response(HttpResponse(status=status, headers=headers, body=b""))
            assert wire == _reference_frame({":status": status, "headers": headers})

    def test_equal_keys_with_different_json_do_not_share_an_entry(self):
        frames = [
            encode_h3_response(HttpResponse(status=status, headers={}, body=b""))
            for status in (1, True, 1.0, 1)
        ]
        assert [frame[5:] for frame in frames] == [
            b'{":status":1,"headers":{}}',
            b'{":status":true,"headers":{}}',
            b'{":status":1.0,"headers":{}}',
            b'{":status":1,"headers":{}}',
        ]

    def test_decode_hands_out_independent_messages(self):
        wire = encode_h3_response(
            HttpResponse(status=200, headers={"Content-Type": "x"}, body=b"abc")
        )
        first = decode_h3_response(wire)
        first.headers["Content-Type"] = "y"
        first.headers["extra"] = "1"
        second = decode_h3_response(wire)
        assert second.headers == {"Content-Type": "x"}
        assert second.headers is not decode_h3_response(wire).headers
        request_wire = encode_h3_request(
            HttpRequest(method="POST", path="/dns-query", headers={"Accept": "x"}, body=b"q"),
            "dns.example",
        )
        decode_h3_request(request_wire).headers.clear()
        assert decode_h3_request(request_wire).headers == {"Accept": "x"}

    @pytest.mark.parametrize("payload", [b"[42]", b"\xff", b"{", b""])
    def test_a_bad_field_map_raises_every_time(self, payload):
        wire = struct.pack("!BI", 0x01, len(payload)) + payload
        for _ in range(2):
            with pytest.raises(H3CodecError):
                decode_h3_request(wire)
            with pytest.raises(H3CodecError):
                decode_h3_response(wire)
        assert payload not in h3._FIELD_MAPS

    def test_tables_are_emptied_at_their_bounds(self, monkeypatch):
        monkeypatch.setattr(h3, "_HEADERS_FRAMES_MAX", 2)
        monkeypatch.setattr(h3, "_FIELD_MAPS_MAX", 2)
        for status in range(200, 205):
            response = HttpResponse(status=status, headers={"a": "b"}, body=b"")
            assert decode_h3_response(encode_h3_response(response)).status == status
            assert len(h3._HEADERS_FRAMES) <= 2
            assert len(h3._FIELD_MAPS) <= 2


# ---------------------------------------------------------------------------
# Probe end-to-end
# ---------------------------------------------------------------------------


class TestDoh3Probe:
    @pytest.fixture(scope="class")
    def world(self):
        return make_doh3_world(seed=4)

    def _outcome(self, world, config=None, seed=1, domain="google.com"):
        deployment = world.deployment(DOH3_HOSTNAME)
        probe = Doh3Probe(
            world.vantage("ec2-ohio").host,
            deployment.service_ip,
            DOH3_HOSTNAME,
            config or Doh3ProbeConfig(),
            rng=random.Random(seed),
        )
        outcomes = []
        probe.query(domain, outcomes.append)
        world.network.run()
        probe.close()
        assert len(outcomes) == 1
        return outcomes[0]

    def test_success_details(self, world):
        outcome = self._outcome(world)
        assert outcome.success
        assert outcome.rcode == 0
        assert outcome.http_status == 200
        assert outcome.http_version == "h3"
        assert outcome.answers

    def test_phase_attribution_present(self, world):
        outcome = self._outcome(world)
        # QUIC's combined handshake has no separate TCP connect phase:
        # the whole establishment lands in tls_ms.
        assert outcome.connect_ms is None
        assert outcome.tls_ms is not None and outcome.tls_ms > 0
        assert outcome.query_ms is not None and outcome.query_ms > 0

    def test_wrong_path_is_http_error(self, world):
        outcome = self._outcome(
            world, config=Doh3ProbeConfig(doh_path="/wrong-path")
        )
        assert not outcome.success
        assert outcome.http_status == 404


# ---------------------------------------------------------------------------
# 0-RTT rejection never loses a query
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("transports", [("doq", "doh3"), ("doh", "dot")])
def test_certain_zero_rtt_rejection_falls_back_never_loses(transports):
    """With the anti-replay filter rejecting *every* 0-RTT attempt, each
    resumption-eligible query must land as a well-formed ``resumed``
    record — the early data is replayed on the 1-RTT path, not lost."""
    policy = SessionPolicy(mode="zero_rtt", zero_rtt_reject_p=1.0)
    config = sessions_campaign_config(policy, rounds=2, transports=transports)
    world = build_world(
        seed=0,
        catalog=[e for e in CATALOG if e.hostname == DOH3_HOSTNAME],
        warm_caches=True,
    )
    store = Campaign(
        network=world.network,
        vantages=[world.vantage("ec2-ohio"), world.vantage("ec2-frankfurt")],
        targets=world.targets([DOH3_HOSTNAME]),
        config=config,
    ).run()
    store.canonical_sort()

    queries = [r for r in store.records if r.kind == "dns_query"]
    # Nothing lost: every scheduled query produced a record ...
    expected = 2 * 2 * len(transports) * len(config.domains)
    assert len(queries) == expected
    # ... every record is well-formed and successful ...
    for record in queries:
        assert record.success, (record.resolver, record.error_class)
        assert record.duration_ms is not None and record.duration_ms > 0
        assert record.session_policy == "zero_rtt"
        assert record.session_state in ("cold", "resumed")
    # ... and rejection happened: eligible handshakes resumed, none
    # carried early data.
    states = {r.session_state for r in queries}
    assert "resumed" in states
    assert "zero_rtt" not in states
