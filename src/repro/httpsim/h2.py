"""HTTP/2 framing: client/server sessions with stream multiplexing.

Frames use the real 9-byte header — ``length(3) | type(1) | flags(1) |
stream(4)`` — so sizes and segmentation are realistic.  Header blocks are
JSON-encoded name/value maps standing in for HPACK (the compression ratio
difference is a few dozen bytes, far below MSS granularity).  In the spirit
of HPACK's dynamic table, a header set seen before is not serialised or
parsed again.

Both sessions sit on top of a byte-stream ``send`` callable (typically
``TlsConnection.send_application``) and are fed inbound bytes via
:meth:`feed`.  The client session multiplexes concurrent requests on
odd-numbered streams, which is what lets a DoH client reuse one connection
for many in-flight queries.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import HttpProtocolError
from repro.httpsim.h1 import HttpRequest, HttpResponse
from repro.obs import get_metrics

FRAME_DATA = 0x0
FRAME_HEADERS = 0x1
FRAME_RST_STREAM = 0x3
FRAME_SETTINGS = 0x4
FRAME_GOAWAY = 0x7

FLAG_END_STREAM = 0x1
FLAG_END_HEADERS = 0x4
FLAG_ACK = 0x1  # on SETTINGS

#: The client connection preface (RFC 9113 §3.4).
PREFACE = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

_FRAME_HEADER = struct.Struct("!3sBBI")
MAX_FRAME_SIZE = 16384


def encode_frame(frame_type: int, flags: int, stream_id: int, payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME_SIZE:
        raise HttpProtocolError(f"frame payload {len(payload)} exceeds max")
    return _FRAME_HEADER.pack(len(payload).to_bytes(3, "big"), frame_type, flags, stream_id) + payload


#: Bounds of the two header-block tables; a full table is emptied.  One
#: ``session_matrix`` pass moves 3,580 blocks of which 217 are distinct; one
#: ``ec2_doh_cold`` pass 9,316 of which 1,784 (the ``Cache-Control`` max-age
#: follows the cache-aged TTL), and 79.9% of its lookups hit at this bound
#: against 80.9% with no bound.  An entry is ~0.3 KiB.
_ENCODED_BLOCKS_MAX = 1024
_DECODED_BLOCKS_MAX = 1024
#: header items, in order -> block.  Only maps of ``str`` to ``str``.
_ENCODED_BLOCKS: Dict[tuple, bytes] = {}
#: block -> header map.  Only blocks that decoded.
_DECODED_BLOCKS: Dict[bytes, Dict[str, str]] = {}


def _encode_headers_block(headers: Dict[str, str]) -> bytes:
    key: Optional[tuple] = tuple(headers.items())
    try:
        block = _ENCODED_BLOCKS.get(key)
    except TypeError:  # an unhashable value: serialised, not remembered
        block = key = None
    if block is None:
        block = json.dumps(headers, separators=(",", ":")).encode("utf-8")
        # Anything but str may equal a value that serialises differently
        # (1, 1.0 and True are one dict key and three JSON texts).
        if key is not None and all(
            type(name) is str and type(value) is str for name, value in key
        ):
            if len(_ENCODED_BLOCKS) >= _ENCODED_BLOCKS_MAX:
                _ENCODED_BLOCKS.clear()
            _ENCODED_BLOCKS[key] = block
    return block


def _decode_headers_block(payload: bytes) -> Dict[str, str]:
    headers = _DECODED_BLOCKS.get(payload)
    if headers is None:
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpProtocolError(f"bad header block: {exc}")
        if not isinstance(decoded, dict):
            raise HttpProtocolError("header block is not a map")
        headers = {str(k): str(v) for k, v in decoded.items()}
        if len(_DECODED_BLOCKS) >= _DECODED_BLOCKS_MAX:
            _DECODED_BLOCKS.clear()
        _DECODED_BLOCKS[payload] = headers
    return dict(headers)


class _FrameBuffer:
    """Incremental frame splitter."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.preface_pending = False

    def feed(self, data: bytes) -> List[Tuple[int, int, int, bytes]]:
        # With nothing buffered (nearly every feed) frames are cut straight
        # out of ``data``; only an incomplete tail is copied into the buffer.
        buffer = self._buffer
        if buffer:
            buffer += data
            source = buffer
        else:
            source = data
        frames = []
        offset = 0
        available = len(source)
        header_size = _FRAME_HEADER.size
        try:
            if self.preface_pending:
                if available < len(PREFACE):
                    return frames
                if bytes(source[: len(PREFACE)]) != PREFACE:
                    raise HttpProtocolError("bad HTTP/2 connection preface")
                offset = len(PREFACE)
                self.preface_pending = False
            while available - offset >= header_size:
                length_bytes, frame_type, flags, stream_id = _FRAME_HEADER.unpack_from(source, offset)
                end = offset + header_size + int.from_bytes(length_bytes, "big")
                if end > available:
                    break
                payload = bytes(source[offset + header_size : end])
                frames.append((frame_type, flags, stream_id & 0x7FFFFFFF, payload))
                offset = end
        finally:
            # Also on error: what was consumed stays consumed.
            if source is buffer:
                del buffer[:offset]
            elif offset < available:
                buffer += source[offset:]
        return frames


def response_frames(stream_id: int, response: HttpResponse) -> bytes:
    """One complete response on ``stream_id``: HEADERS, then DATA if it has a body.

    A function of its arguments alone, so a server whose request callback
    is held by the session can answer without naming the session (a
    callback that did would be a reference cycle with it).
    """
    headers = {":status": str(response.status)}
    headers.update(response.headers)
    flags = FLAG_END_HEADERS | (0 if response.body else FLAG_END_STREAM)
    out = encode_frame(FRAME_HEADERS, flags, stream_id, _encode_headers_block(headers))
    if response.body:
        for offset in range(0, len(response.body), MAX_FRAME_SIZE):
            chunk = response.body[offset : offset + MAX_FRAME_SIZE]
            end = FLAG_END_STREAM if offset + len(chunk) >= len(response.body) else 0
            out += encode_frame(FRAME_DATA, end, stream_id, chunk)
    return out


@dataclass
class _Stream:
    stream_id: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytearray = field(default_factory=bytearray)
    headers_complete: bool = False
    ended: bool = False


class H2ClientSession:
    """Client half of an HTTP/2 connection.

    ``send`` transmits raw bytes toward the server (through TLS).  Call
    :meth:`request` any number of times; each gets its own stream and its
    ``on_response(HttpResponse)`` callback fires when the stream ends.
    """

    def __init__(self, send: Callable[[bytes], None], authority: str) -> None:
        self._send = send
        self.authority = authority
        self._next_stream_id = 1
        self._streams: Dict[int, _Stream] = {}
        self._callbacks: Dict[int, Callable[[HttpResponse], None]] = {}
        self._frames = _FrameBuffer()
        self.goaway_received = False
        self.on_goaway: Optional[Callable[[], None]] = None
        # Connection preface + initial SETTINGS.
        self._send(PREFACE + encode_frame(FRAME_SETTINGS, 0, 0, b""))

    def request(
        self,
        request: HttpRequest,
        on_response: Callable[[HttpResponse], None],
    ) -> int:
        """Send a request on a new stream; returns the stream id."""
        if self.goaway_received:
            raise HttpProtocolError("connection is shutting down (GOAWAY)")
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("h2.requests", method=request.method)
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        headers = {
            ":method": request.method,
            ":scheme": "https",
            ":authority": self.authority,
            ":path": request.path,
        }
        headers.update(request.headers)
        self._callbacks[stream_id] = on_response
        flags = FLAG_END_HEADERS | (0 if request.body else FLAG_END_STREAM)
        out = encode_frame(FRAME_HEADERS, flags, stream_id, _encode_headers_block(headers))
        if request.body:
            for offset in range(0, len(request.body), MAX_FRAME_SIZE):
                chunk = request.body[offset : offset + MAX_FRAME_SIZE]
                end = FLAG_END_STREAM if offset + len(chunk) >= len(request.body) else 0
                out += encode_frame(FRAME_DATA, end, stream_id, chunk)
        self._send(out)
        return stream_id

    def feed(self, data: bytes) -> None:
        """Process inbound bytes from the server."""
        for frame_type, flags, stream_id, payload in self._frames.feed(data):
            if frame_type == FRAME_SETTINGS:
                if not flags & FLAG_ACK:
                    self._send(encode_frame(FRAME_SETTINGS, FLAG_ACK, 0, b""))
                continue
            if frame_type == FRAME_GOAWAY:
                self.goaway_received = True
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.inc("h2.goaway_received")
                if self.on_goaway is not None:
                    self.on_goaway()
                continue
            if frame_type == FRAME_RST_STREAM:
                self._streams.pop(stream_id, None)
                self._callbacks.pop(stream_id, None)
                metrics = get_metrics()
                if metrics.enabled:
                    metrics.inc("h2.rst_streams")
                continue
            stream = self._streams.setdefault(stream_id, _Stream(stream_id))
            if frame_type == FRAME_HEADERS:
                stream.headers.update(_decode_headers_block(payload))
                stream.headers_complete = bool(flags & FLAG_END_HEADERS)
            elif frame_type == FRAME_DATA:
                stream.body += payload
            if flags & FLAG_END_STREAM:
                self._finish(stream)

    def _finish(self, stream: _Stream) -> None:
        self._streams.pop(stream.stream_id, None)
        callback = self._callbacks.pop(stream.stream_id, None)
        if callback is None:
            return
        status_text = stream.headers.get(":status", "")
        try:
            status = int(status_text)
        except ValueError:
            raise HttpProtocolError(f"missing/bad :status {status_text!r}")
        plain_headers = {k: v for k, v in stream.headers.items() if not k.startswith(":")}
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("h2.responses", status=status)
        callback(HttpResponse(status=status, headers=plain_headers, body=bytes(stream.body)))

    @property
    def in_flight(self) -> int:
        """Number of streams awaiting a response."""
        return len(self._callbacks)


class H2ServerSession:
    """Server half of an HTTP/2 connection.

    ``on_request(request, stream_id)`` fires for each complete request; the
    application answers via :meth:`respond`.
    """

    def __init__(
        self,
        send: Callable[[bytes], None],
        on_request: Callable[[HttpRequest, int], None],
    ) -> None:
        self._send = send
        self._on_request = on_request
        self._streams: Dict[int, _Stream] = {}
        self._frames = _FrameBuffer()
        self._frames.preface_pending = True
        self._sent_settings = False

    def feed(self, data: bytes) -> None:
        for frame_type, flags, stream_id, payload in self._frames.feed(data):
            if not self._sent_settings:
                self._send(encode_frame(FRAME_SETTINGS, 0, 0, b""))
                self._sent_settings = True
            if frame_type == FRAME_SETTINGS:
                if not flags & FLAG_ACK:
                    self._send(encode_frame(FRAME_SETTINGS, FLAG_ACK, 0, b""))
                continue
            if frame_type in (FRAME_GOAWAY, FRAME_RST_STREAM):
                self._streams.pop(stream_id, None)
                continue
            stream = self._streams.setdefault(stream_id, _Stream(stream_id))
            if frame_type == FRAME_HEADERS:
                stream.headers.update(_decode_headers_block(payload))
                stream.headers_complete = bool(flags & FLAG_END_HEADERS)
            elif frame_type == FRAME_DATA:
                stream.body += payload
            if flags & FLAG_END_STREAM:
                self._dispatch(stream)

    def _dispatch(self, stream: _Stream) -> None:
        self._streams.pop(stream.stream_id, None)
        method = stream.headers.get(":method")
        path = stream.headers.get(":path")
        if method is None or path is None:
            self.reset_stream(stream.stream_id)
            return
        plain_headers = {k: v for k, v in stream.headers.items() if not k.startswith(":")}
        request = HttpRequest(method=method, path=path, headers=plain_headers, body=bytes(stream.body))
        self._on_request(request, stream.stream_id)

    def respond(self, stream_id: int, response: HttpResponse) -> None:
        """Send a complete response on ``stream_id``."""
        self._send(response_frames(stream_id, response))

    def reset_stream(self, stream_id: int, error_code: int = 0x1) -> None:
        self._send(encode_frame(FRAME_RST_STREAM, 0, stream_id, struct.pack("!I", error_code)))

    def goaway(self) -> None:
        self._send(encode_frame(FRAME_GOAWAY, 0, 0, struct.pack("!II", 0, 0)))
