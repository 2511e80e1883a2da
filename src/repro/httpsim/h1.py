"""HTTP/1.1 framing: encoders and incremental parsers.

Real wire format (CRLF line endings, ``Content-Length`` bodies).  Chunked
transfer encoding is not implemented — DoH messages always carry an exact
content length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import HttpProtocolError
from repro.obs import get_metrics

CRLF = b"\r\n"

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


@dataclass
class HttpRequest:
    """A parsed (or to-be-encoded) HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Case-insensitive header lookup."""
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return default


@dataclass
class HttpResponse:
    """A parsed (or to-be-encoded) HTTP response."""

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    reason: str = ""

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return default


def encode_request(request: HttpRequest, host: str) -> bytes:
    """Serialize a request (adds Host and Content-Length automatically)."""
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("h1.requests", method=request.method)
    lines = [f"{request.method} {request.path} HTTP/1.1".encode("ascii")]
    headers = dict(request.headers)
    headers.setdefault("Host", host)
    if request.body or request.method in ("POST", "PUT"):
        headers["Content-Length"] = str(len(request.body))
    for name, value in headers.items():
        lines.append(f"{name}: {value}".encode("ascii"))
    return CRLF.join(lines) + CRLF + CRLF + request.body


def encode_response(response: HttpResponse) -> bytes:
    """Serialize a response (adds Content-Length automatically)."""
    reason = response.reason or _REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}".encode("ascii")]
    headers = dict(response.headers)
    headers["Content-Length"] = str(len(response.body))
    for name, value in headers.items():
        lines.append(f"{name}: {value}".encode("ascii"))
    return CRLF.join(lines) + CRLF + CRLF + response.body


def _ascii(raw: bytes) -> str:
    """``raw`` as ASCII text; any other byte is a protocol error."""
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise HttpProtocolError(f"non-ASCII byte in {raw!r}")


class _H1Parser:
    """Incremental head+body parser shared by both directions."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._head: Optional[Tuple[bytes, Dict[str, str]]] = None
        self._body_needed = 0

    def _feed(self, data: bytes) -> List[Tuple[bytes, Dict[str, str], bytes]]:
        self._buffer += data
        completed = []
        while True:
            if self._head is None:
                end = self._buffer.find(CRLF + CRLF)
                if end < 0:
                    break
                head = bytes(self._buffer[:end])
                del self._buffer[: end + 4]
                lines = head.split(CRLF)
                start_line = lines[0]
                headers: Dict[str, str] = {}
                for line in lines[1:]:
                    if not line:
                        continue
                    name, sep, value = line.partition(b":")
                    if not sep:
                        raise HttpProtocolError(f"malformed header line {line!r}")
                    headers[_ascii(name).strip()] = _ascii(value).strip()
                self._head = (start_line, headers)
                length = headers.get("Content-Length") or headers.get("content-length") or "0"
                # Digits only: ``int`` would also take a sign, ``_`` and spaces.
                if not length.isdigit():
                    raise HttpProtocolError(f"bad Content-Length {length!r}")
                self._body_needed = int(length)
            if len(self._buffer) < self._body_needed:
                break
            body = bytes(self._buffer[: self._body_needed])
            del self._buffer[: self._body_needed]
            start_line, headers = self._head
            self._head = None
            self._body_needed = 0
            completed.append((start_line, headers, body))
        return completed


class H1RequestParser(_H1Parser):
    """Server-side incremental parser yielding :class:`HttpRequest`."""

    def feed(self, data: bytes) -> List[HttpRequest]:
        requests = []
        for start_line, headers, body in self._feed(data):
            parts = _ascii(start_line).split(" ")
            if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                raise HttpProtocolError(f"malformed request line {start_line!r}")
            requests.append(HttpRequest(method=parts[0], path=parts[1], headers=headers, body=body))
        return requests


class H1ResponseParser(_H1Parser):
    """Client-side incremental parser yielding :class:`HttpResponse`."""

    def feed(self, data: bytes) -> List[HttpResponse]:
        responses = []
        for start_line, headers, body in self._feed(data):
            parts = _ascii(start_line).split(" ", 2)
            if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
                raise HttpProtocolError(f"malformed status line {start_line!r}")
            try:
                status = int(parts[1])
            except ValueError:
                raise HttpProtocolError(f"bad status code in {start_line!r}")
            if get_metrics().enabled:
                get_metrics().inc("h1.responses", status=status)
            reason = parts[2] if len(parts) == 3 else ""
            responses.append(HttpResponse(status=status, headers=headers, body=body, reason=reason))
        return responses
