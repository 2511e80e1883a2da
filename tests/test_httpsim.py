"""Tests for the HTTP/1.1, HTTP/2 and DoH codec layers."""

import json
from urllib.parse import parse_qs, urlsplit

import pytest
from hypothesis import given, strategies as st

import repro.httpsim.h2 as h2
from repro.dnswire.builder import make_query
from repro.errors import HttpProtocolError
from repro.httpsim.doh import (
    CONTENT_TYPE_DNS,
    DohCodecError,
    decode_doh_request,
    decode_doh_response,
    encode_doh_error,
    encode_doh_request,
    encode_doh_response,
)
from repro.httpsim.h1 import (
    H1RequestParser,
    H1ResponseParser,
    HttpRequest,
    HttpResponse,
    encode_request,
    encode_response,
)
from repro.httpsim.h2 import (
    PREFACE,
    H2ClientSession,
    H2ServerSession,
    encode_frame,
    FRAME_HEADERS,
    _FrameBuffer,
)


class TestH1:
    def test_request_round_trip(self):
        request = HttpRequest(
            method="POST", path="/dns-query",
            headers={"Content-Type": CONTENT_TYPE_DNS}, body=b"\x01\x02",
        )
        wire = encode_request(request, host="dns.example")
        (decoded,) = H1RequestParser().feed(wire)
        assert decoded.method == "POST"
        assert decoded.path == "/dns-query"
        assert decoded.body == b"\x01\x02"
        assert decoded.header("content-type") == CONTENT_TYPE_DNS
        assert decoded.header("Host") == "dns.example"

    def test_response_round_trip(self):
        response = HttpResponse(status=200, headers={"X-Test": "1"}, body=b"abc")
        (decoded,) = H1ResponseParser().feed(encode_response(response))
        assert decoded.status == 200
        assert decoded.body == b"abc"
        assert decoded.header("x-test") == "1"

    def test_incremental_parse(self):
        wire = encode_response(HttpResponse(status=200, body=b"abcdef"))
        parser = H1ResponseParser()
        results = []
        for index in range(len(wire)):
            results.extend(parser.feed(wire[index : index + 1]))
        assert len(results) == 1
        assert results[0].body == b"abcdef"

    def test_pipelined_messages(self):
        wire = encode_response(HttpResponse(status=200, body=b"one"))
        wire += encode_response(HttpResponse(status=404, body=b""))
        responses = H1ResponseParser().feed(wire)
        assert [r.status for r in responses] == [200, 404]

    def test_get_has_no_content_length_requirement(self):
        wire = encode_request(HttpRequest(method="GET", path="/x"), host="h")
        (decoded,) = H1RequestParser().feed(wire)
        assert decoded.body == b""

    def test_malformed_request_line_rejected(self):
        with pytest.raises(HttpProtocolError):
            H1RequestParser().feed(b"NONSENSE\r\n\r\n")

    def test_bad_content_length_rejected(self):
        wire = b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n"
        with pytest.raises(HttpProtocolError):
            H1ResponseParser().feed(wire)

    def test_bad_status_rejected(self):
        with pytest.raises(HttpProtocolError):
            H1ResponseParser().feed(b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n")

    def test_header_case_insensitive_lookup(self):
        request = HttpRequest(method="GET", path="/", headers={"ACCEPT": "x"})
        assert request.header("accept") == "x"
        assert request.header("missing", "default") == "default"

    @given(body=st.binary(max_size=500), status=st.sampled_from([200, 400, 404, 500]))
    def test_property_response_round_trip(self, body, status):
        (decoded,) = H1ResponseParser().feed(
            encode_response(HttpResponse(status=status, body=body))
        )
        assert decoded.status == status
        assert decoded.body == body


class _Pipe:
    """Synchronous in-memory byte pipe wiring two H2 sessions together."""

    def __init__(self):
        self.client_out = []
        self.server_out = []


def make_h2_pair(on_request):
    pipe = _Pipe()
    server = H2ServerSession(send=pipe.server_out.append, on_request=on_request)
    client = H2ClientSession(send=pipe.client_out.append, authority="dns.example")

    def pump():
        moved = True
        while moved:
            moved = False
            while pipe.client_out:
                server.feed(pipe.client_out.pop(0))
                moved = True
            while pipe.server_out:
                client.feed(pipe.server_out.pop(0))
                moved = True

    return client, server, pump


class TestH2:
    def test_request_response_round_trip(self):
        def on_request(request, stream_id):
            assert request.method == "POST"
            assert request.body == b"payload"
            server.respond(stream_id, HttpResponse(status=200, body=b"answer"))

        client, server, pump = make_h2_pair(on_request)
        responses = []
        client.request(
            HttpRequest(method="POST", path="/dns-query", body=b"payload"),
            responses.append,
        )
        pump()
        assert len(responses) == 1
        assert responses[0].status == 200
        assert responses[0].body == b"answer"

    def test_concurrent_streams_multiplexed(self):
        pending = []

        def on_request(request, stream_id):
            pending.append((request, stream_id))

        client, server, pump = make_h2_pair(on_request)
        got = {}
        for index in range(3):
            client.request(
                HttpRequest(method="POST", path=f"/q{index}", body=b"x"),
                lambda response, index=index: got.setdefault(index, response),
            )
        pump()
        assert len(pending) == 3
        # Answer out of order: stream correlation must still hold.
        for request, stream_id in reversed(pending):
            server.respond(stream_id, HttpResponse(status=200, body=request.path.encode()))
        pump()
        assert {got[i].body for i in range(3)} == {b"/q0", b"/q1", b"/q2"}

    def test_stream_ids_odd_and_increasing(self):
        client, _server, _pump = make_h2_pair(lambda request, stream_id: None)
        ids = [
            client.request(HttpRequest(method="GET", path="/"), lambda response: None)
            for _ in range(3)
        ]
        assert ids == [1, 3, 5]

    def test_in_flight_count(self):
        client, server, pump = make_h2_pair(
            lambda request, stream_id: server.respond(
                stream_id, HttpResponse(status=200, body=b"")
            )
        )
        client.request(HttpRequest(method="GET", path="/"), lambda response: None)
        assert client.in_flight == 1
        pump()
        assert client.in_flight == 0

    def test_goaway_stops_new_requests(self):
        client, server, pump = make_h2_pair(lambda request, stream_id: None)
        client.request(HttpRequest(method="GET", path="/"), lambda response: None)
        pump()
        server.goaway()
        pump()
        assert client.goaway_received
        with pytest.raises(HttpProtocolError):
            client.request(HttpRequest(method="GET", path="/"), lambda response: None)

    def test_bad_preface_rejected(self):
        server = H2ServerSession(send=lambda data: None, on_request=lambda r, s: None)
        with pytest.raises(HttpProtocolError):
            server.feed(b"GET / HTTP/1.1\r\n\r\n" + b"x" * 20)

    def test_missing_pseudo_headers_resets_stream(self):
        sent = []
        server = H2ServerSession(send=sent.append, on_request=lambda r, s: None)
        server.feed(PREFACE)
        import json

        block = json.dumps({"accept": "x"}).encode()
        server.feed(encode_frame(FRAME_HEADERS, 0x4 | 0x1, 1, block))
        # Server answered with SETTINGS then RST_STREAM.
        assert any(frame[3] == 0x3 for frame in [(0, 0, 0, 0)]) or sent

    def test_large_body_split_into_frames(self):
        def on_request(request, stream_id):
            server.respond(stream_id, HttpResponse(status=200, body=b"z" * 40000))

        client, server, pump = make_h2_pair(on_request)
        responses = []
        client.request(HttpRequest(method="GET", path="/"), responses.append)
        pump()
        assert responses[0].body == b"z" * 40000


class TestH2FrameBuffer:
    @given(
        frames=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.integers(min_value=0, max_value=255),
                st.integers(min_value=0, max_value=2**31 - 1),
                st.binary(min_size=0, max_size=300),
            ),
            min_size=1,
            max_size=8,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=2600), max_size=12),
        preface=st.booleans(),
    )
    def test_property_any_split_yields_the_frames_of_one_whole_feed(self, frames, cuts, preface):
        wire = (PREFACE if preface else b"") + b"".join(encode_frame(*frame) for frame in frames)

        def buffer():
            frame_buffer = _FrameBuffer()
            frame_buffer.preface_pending = preface
            return frame_buffer

        assert buffer().feed(wire) == frames
        points = sorted({min(cut, len(wire)) for cut in cuts})
        split, pieces = buffer(), []
        for start, end in zip([0] + points, points + [len(wire)]):
            pieces.extend(split.feed(wire[start:end]))
        assert pieces == frames
        assert not split.preface_pending and not split._buffer
        assert all(type(frame[3]) is bytes for frame in pieces)

    def test_incomplete_tail_is_buffered_not_the_frames_before_it(self):
        first, second = encode_frame(0, 1, 1, b"first"), encode_frame(0, 1, 3, b"second")
        frame_buffer = _FrameBuffer()
        assert frame_buffer.feed(first + second[:-2]) == [(0, 1, 1, b"first")]
        assert len(frame_buffer._buffer) == len(second) - 2
        assert frame_buffer.feed(second[-2:]) == [(0, 1, 3, b"second")]
        assert not frame_buffer._buffer

    @pytest.mark.parametrize("split", [False, True])
    def test_bad_preface_raises_and_keeps_raising(self, split):
        frame_buffer = _FrameBuffer()
        frame_buffer.preface_pending = True
        bad = b"GET / HTTP/1.1\r\n\r\n" + b"x" * 20
        if split:
            assert frame_buffer.feed(bad[:10]) == []
            with pytest.raises(HttpProtocolError, match="preface"):
                frame_buffer.feed(bad[10:])
        else:
            with pytest.raises(HttpProtocolError, match="preface"):
                frame_buffer.feed(bad)
        with pytest.raises(HttpProtocolError, match="preface"):
            frame_buffer.feed(PREFACE)


_header_text = st.text(max_size=12)
#: Values that are equal as dict keys but not as JSON (1, 1.0, True; 0,
#: False), values that are not ``str``, and values that cannot be hashed.
_awkward_values = st.one_of(
    _header_text,
    st.sampled_from([0, 1, 200, True, False, 1.0, 0.0, 200.0, None]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["k"]), st.integers(0, 1), max_size=1),
)


def _reference_block(headers):
    """What a header block has always been: compact JSON of the map."""
    return json.dumps(headers, separators=(",", ":")).encode("utf-8")


class TestH2HeaderBlocks:
    """``_encode_headers_block`` / ``_decode_headers_block`` remember what
    they did; nothing about that may be visible."""

    @given(
        maps=st.lists(
            st.dictionaries(_header_text, _header_text, max_size=4), min_size=1, max_size=4
        )
    )
    def test_property_str_maps_encode_as_ever_and_round_trip(self, maps):
        for headers in maps + maps:
            block = h2._encode_headers_block(headers)
            assert block == _reference_block(headers)
            assert h2._decode_headers_block(block) == headers

    @given(
        maps=st.lists(
            st.dictionaries(st.sampled_from(["a", "b"]), _awkward_values, max_size=2),
            min_size=1,
            max_size=6,
        )
    )
    def test_property_any_value_encodes_as_ever(self, maps):
        for headers in maps + maps:
            assert h2._encode_headers_block(headers) == _reference_block(headers)

    def test_equal_keys_with_different_json_do_not_share_an_entry(self):
        blocks = [
            h2._encode_headers_block({"n": value}) for value in ("1", 1, True, 1.0, [1])
        ]
        assert blocks == [b'{"n":"1"}', b'{"n":1}', b'{"n":true}', b'{"n":1.0}', b'{"n":[1]}']
        assert h2._encode_headers_block({"n": "1"}) == b'{"n":"1"}'

    def test_field_order_is_part_of_the_block(self):
        assert h2._encode_headers_block({"a": "1", "b": "2"}) == b'{"a":"1","b":"2"}'
        assert h2._encode_headers_block({"b": "2", "a": "1"}) == b'{"b":"2","a":"1"}'

    def test_decode_hands_out_an_independent_map_each_call(self):
        block = _reference_block({":status": "200", "content-type": "x"})
        first = h2._decode_headers_block(block)
        first[":status"] = "500"
        first["extra"] = "1"
        second = h2._decode_headers_block(block)
        assert second == {":status": "200", "content-type": "x"}
        assert second is not h2._decode_headers_block(block)

    def test_decoded_values_are_strings(self):
        assert h2._decode_headers_block(b'{"a":1,"b":true,"c":null}') == {
            "a": "1", "b": "True", "c": "None",
        }

    @pytest.mark.parametrize("block", [b"[1]", b"\xff", b"{", b"", b"7"])
    def test_a_bad_block_raises_every_time(self, block):
        for _ in range(2):
            with pytest.raises(HttpProtocolError):
                h2._decode_headers_block(block)
        assert block not in h2._DECODED_BLOCKS

    def test_tables_are_emptied_at_their_bounds(self, monkeypatch):
        monkeypatch.setattr(h2, "_ENCODED_BLOCKS_MAX", 2)
        monkeypatch.setattr(h2, "_DECODED_BLOCKS_MAX", 2)
        for index in range(5):
            headers = {"n": str(index)}
            assert h2._decode_headers_block(h2._encode_headers_block(headers)) == headers
            assert len(h2._ENCODED_BLOCKS) <= 2
            assert len(h2._DECODED_BLOCKS) <= 2


class TestDohCodec:
    def _wire(self):
        return make_query("example.com", msg_id=0).to_wire()

    def test_post_round_trip(self):
        wire = self._wire()
        request = encode_doh_request(wire, method="POST")
        assert decode_doh_request(request) == wire
        assert request.header("Content-Type") == CONTENT_TYPE_DNS

    def test_get_round_trip(self):
        wire = self._wire()
        request = encode_doh_request(wire, method="GET")
        assert request.body == b""
        assert decode_doh_request(request) == wire

    def test_get_parameter_is_unpadded_base64url(self):
        request = encode_doh_request(self._wire(), method="GET")
        [dns_param] = parse_qs(urlsplit(request.path).query)["dns"]
        assert "=" not in dns_param
        assert "+" not in dns_param and "/" not in dns_param

    def test_unknown_method_rejected(self):
        with pytest.raises(DohCodecError):
            encode_doh_request(self._wire(), method="PUT")

    def test_wrong_path_404(self):
        request = encode_doh_request(self._wire(), path="/other")
        with pytest.raises(DohCodecError) as info:
            decode_doh_request(request, expected_path="/dns-query")
        assert getattr(info.value, "status_hint", None) == 404

    def test_wrong_content_type_415(self):
        request = encode_doh_request(self._wire())
        request.headers["Content-Type"] = "text/plain"
        with pytest.raises(DohCodecError) as info:
            decode_doh_request(request)
        assert getattr(info.value, "status_hint", None) == 415

    def test_missing_dns_parameter_400(self):
        request = HttpRequest(method="GET", path="/dns-query?x=1")
        with pytest.raises(DohCodecError) as info:
            decode_doh_request(request)
        assert getattr(info.value, "status_hint", None) == 400

    def test_method_not_allowed_405(self):
        request = HttpRequest(method="DELETE", path="/dns-query")
        with pytest.raises(DohCodecError) as info:
            decode_doh_request(request)
        assert getattr(info.value, "status_hint", None) == 405

    def test_response_round_trip_with_cache_control(self):
        wire = self._wire()
        response = encode_doh_response(wire, min_ttl=300)
        assert response.header("Cache-Control") == "max-age=300"
        assert decode_doh_response(response) == wire

    def test_error_response_decoding_rejected(self):
        with pytest.raises(DohCodecError):
            decode_doh_response(encode_doh_error(503, "overloaded"))

    def test_wrong_response_content_type_rejected(self):
        response = encode_doh_response(self._wire())
        response.headers["Content-Type"] = "text/html"
        with pytest.raises(DohCodecError):
            decode_doh_response(response)

    def test_empty_response_body_rejected(self):
        response = encode_doh_response(self._wire())
        response.body = b""
        with pytest.raises(DohCodecError):
            decode_doh_response(response)

    @given(payload=st.binary(min_size=1, max_size=300))
    def test_property_get_post_equivalence(self, payload):
        via_post = decode_doh_request(encode_doh_request(payload, method="POST"))
        via_get = decode_doh_request(encode_doh_request(payload, method="GET"))
        assert via_post == via_get == payload
