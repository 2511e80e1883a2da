"""Minimal HTTP/3 framing: one request or response per QUIC stream.

Real HTTP/3 rides QPACK-compressed header frames and DATA frames on
QUIC streams.  This model keeps the parts that matter for measurement —
a HEADERS frame followed by a DATA frame, one exchange per
bidirectional stream — and skips compression: header fields travel as a
compact JSON object, padded only by their natural size; a field set seen
before is not serialised or parsed again.  The framing is
``frame_type(1) | length(4, big-endian) | payload``.

The codec reuses :class:`~repro.httpsim.h1.HttpRequest` and
:class:`~repro.httpsim.h1.HttpResponse` as the parsed representation so
the DoH codec layer (:mod:`repro.httpsim.doh`) works unchanged on top.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Tuple

from repro.errors import HttpProtocolError
from repro.httpsim.h1 import HttpRequest, HttpResponse
from repro.obs import get_metrics

FRAME_DATA = 0x00
FRAME_HEADERS = 0x01

_FRAME_HEADER = struct.Struct("!BI")

#: Bounds of the two field-map tables; a full table is emptied.  One
#: ``session_matrix`` pass (the only benchmark load on this module) moves
#: 3,604 HEADERS frames of which 259 are distinct; an entry is ~0.3 KiB.
_HEADERS_FRAMES_MAX = 1024
_FIELD_MAPS_MAX = 1024
#: (pseudo-field types, pseudo-field items, header items) -> HEADERS frame.
#: Only ``str`` / ``int`` pseudo-fields over a ``str`` to ``str`` header map.
_HEADERS_FRAMES: Dict[tuple, bytes] = {}
#: HEADERS payload -> field map.  Only payloads that decoded to an object.
_FIELD_MAPS: Dict[bytes, Dict[str, object]] = {}


class H3CodecError(HttpProtocolError):
    """Malformed HTTP/3 stream payload."""


def _encode_frame(frame_type: int, payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(frame_type, len(payload)) + payload


def _decode_frames(data: bytes) -> List[Tuple[int, bytes]]:
    frames: List[Tuple[int, bytes]] = []
    cursor = 0
    while cursor < len(data):
        if cursor + _FRAME_HEADER.size > len(data):
            raise H3CodecError("truncated HTTP/3 frame header")
        frame_type, length = _FRAME_HEADER.unpack_from(data, cursor)
        cursor += _FRAME_HEADER.size
        if cursor + length > len(data):
            raise H3CodecError("truncated HTTP/3 frame payload")
        frames.append((frame_type, data[cursor : cursor + length]))
        cursor += length
    return frames


def _headers_frame(fields: Dict[str, object], headers: Dict[str, str]) -> bytes:
    """The HEADERS frame of the pseudo-fields ``fields`` (which it takes
    over) with ``headers`` nested under them."""
    key: Optional[tuple] = (
        tuple(map(type, fields.values())),
        tuple(fields.items()),
        tuple(headers.items()),
    )
    try:
        frame = _HEADERS_FRAMES.get(key)
    except TypeError:  # an unhashable value: serialised, not remembered
        frame = key = None
    if frame is None:
        fields["headers"] = headers
        frame = _encode_frame(
            FRAME_HEADERS, json.dumps(fields, separators=(",", ":")).encode("utf-8")
        )
        # The types are in the key, and only exact str / int are stored,
        # because values that are equal as dict keys can serialise
        # differently (200, 200.0; 1, True).
        if (
            key is not None
            and all(kind is str or kind is int for kind in key[0])
            and all(type(name) is str and type(value) is str for name, value in key[2])
        ):
            if len(_HEADERS_FRAMES) >= _HEADERS_FRAMES_MAX:
                _HEADERS_FRAMES.clear()
            _HEADERS_FRAMES[key] = frame
    return frame


def _split(data: bytes, what: str) -> Tuple[Dict[str, object], bytes]:
    frames = _decode_frames(data)
    if not frames or frames[0][0] != FRAME_HEADERS:
        raise H3CodecError(f"HTTP/3 {what} must start with a HEADERS frame")
    block = frames[0][1]
    fields = _FIELD_MAPS.get(block)
    if fields is None:
        try:
            fields = json.loads(block.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise H3CodecError(f"malformed HTTP/3 {what} headers: {exc}") from exc
        if not isinstance(fields, dict):
            raise H3CodecError(f"HTTP/3 {what} headers must be an object")
        if len(_FIELD_MAPS) >= _FIELD_MAPS_MAX:
            _FIELD_MAPS.clear()
        _FIELD_MAPS[block] = fields
    body = b"".join(payload for kind, payload in frames[1:] if kind == FRAME_DATA)
    # A fresh map per call; the nested ``headers`` map is copied by the caller.
    return dict(fields), body


def encode_h3_request(request: HttpRequest, host: str) -> bytes:
    """Serialize a request for one QUIC stream (adds :authority)."""
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("h3.requests", method=request.method)
    wire = _headers_frame(
        {":method": request.method, ":path": request.path, ":authority": host},
        request.headers,
    )
    if request.body:
        wire += _encode_frame(FRAME_DATA, request.body)
    return wire


def decode_h3_request(data: bytes) -> HttpRequest:
    fields, body = _split(data, "request")
    method = fields.get(":method")
    path = fields.get(":path")
    if not isinstance(method, str) or not isinstance(path, str):
        raise H3CodecError("HTTP/3 request missing :method or :path")
    headers = fields.get("headers", {})
    if not isinstance(headers, dict):
        raise H3CodecError("HTTP/3 request headers must be an object")
    return HttpRequest(method=method, path=path, headers=dict(headers), body=body)


def encode_h3_response(response: HttpResponse) -> bytes:
    wire = _headers_frame({":status": response.status}, response.headers)
    if response.body:
        wire += _encode_frame(FRAME_DATA, response.body)
    return wire


def decode_h3_response(data: bytes) -> HttpResponse:
    fields, body = _split(data, "response")
    status = fields.get(":status")
    if not isinstance(status, int):
        raise H3CodecError("HTTP/3 response missing :status")
    headers = fields.get("headers", {})
    if not isinstance(headers, dict):
        raise H3CodecError("HTTP/3 response headers must be an object")
    return HttpResponse(status=status, headers=dict(headers), body=body)


__all__ = [
    "FRAME_DATA",
    "FRAME_HEADERS",
    "H3CodecError",
    "decode_h3_request",
    "decode_h3_response",
    "encode_h3_request",
    "encode_h3_response",
]
