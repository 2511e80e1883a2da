"""RFC 8484: mapping DNS messages onto HTTP.

Two request forms are supported, as in the RFC and in real deployments:

* ``POST`` — the DNS message is the request body, with
  ``Content-Type: application/dns-message``;
* ``GET`` — the DNS message rides in a ``?dns=`` query parameter,
  base64url-encoded without padding (cache-friendly; pairs with
  ``msg_id = 0``).

Responses always carry the DNS message as an ``application/dns-message``
body with the TTL-derived ``Cache-Control`` the RFC suggests.
"""

from __future__ import annotations

import base64
from typing import Optional, Tuple
from urllib.parse import parse_qs, quote, urlsplit

from repro.errors import HttpError
from repro.httpsim.h1 import HttpRequest, HttpResponse
from repro.obs import get_metrics

CONTENT_TYPE_DNS = "application/dns-message"

#: Default URI template path used by most public resolvers.
DEFAULT_DOH_PATH = "/dns-query"


class DohCodecError(HttpError):
    """Raised when an HTTP message is not a valid DoH exchange.

    ``status_hint``, where given, is the HTTP status a server should
    answer with.  It is a constructor argument so that the error is raised
    as it is built: held in a local to be annotated first, it would be a
    reference cycle with its own traceback's frame.
    """

    def __init__(self, message: str, status_hint: Optional[int] = None) -> None:
        super().__init__(message)
        if status_hint is not None:
            self.status_hint = status_hint


def _b64url_encode(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).rstrip(b"=").decode("ascii")


def _b64url_decode(text: str) -> bytes:
    padding = -len(text) % 4
    try:
        return base64.urlsafe_b64decode(text + "=" * padding)
    except (ValueError, TypeError) as exc:
        raise DohCodecError(f"bad base64url dns parameter: {exc}")


def encode_doh_request(
    dns_wire: bytes,
    method: str = "POST",
    path: str = DEFAULT_DOH_PATH,
    accept_header: bool = True,
) -> HttpRequest:
    """Build the HTTP request carrying a DNS query."""
    metrics = get_metrics()
    if metrics.enabled:
        metrics.inc("doh.requests", method=method)
        metrics.observe("doh.query_bytes", len(dns_wire))
    headers = {}
    if accept_header:
        headers["Accept"] = CONTENT_TYPE_DNS
    if method == "POST":
        headers["Content-Type"] = CONTENT_TYPE_DNS
        return HttpRequest(method="POST", path=path, headers=headers, body=dns_wire)
    if method == "GET":
        query_path = f"{path}?dns={quote(_b64url_encode(dns_wire), safe='')}"
        return HttpRequest(method="GET", path=query_path, headers=headers, body=b"")
    raise DohCodecError(f"unsupported DoH method {method!r}")


def decode_doh_request(request: HttpRequest, expected_path: str = DEFAULT_DOH_PATH) -> bytes:
    """Extract the DNS query wire bytes from an HTTP request.

    Raises :class:`DohCodecError` with an HTTP-status hint attribute when
    the request is not a valid DoH query, so servers can answer 4xx.
    """
    split = urlsplit(request.path)
    if split.path != expected_path:
        raise DohCodecError(f"unknown path {split.path!r}", status_hint=404)
    if request.method == "POST":
        content_type = request.header("Content-Type", "")
        if content_type != CONTENT_TYPE_DNS:
            raise DohCodecError(f"unsupported media type {content_type!r}", status_hint=415)
        if not request.body:
            raise DohCodecError("empty POST body", status_hint=400)
        return request.body
    if request.method == "GET":
        params = parse_qs(split.query)
        values = params.get("dns")
        if not values:
            raise DohCodecError("missing dns parameter", status_hint=400)
        return _b64url_decode(values[0])
    raise DohCodecError(f"method {request.method} not allowed", status_hint=405)


def encode_doh_response(dns_wire: bytes, min_ttl: Optional[int] = None) -> HttpResponse:
    """Build the HTTP response carrying a DNS answer."""
    headers = {"Content-Type": CONTENT_TYPE_DNS}
    if min_ttl is not None:
        headers["Cache-Control"] = f"max-age={min_ttl}"
    return HttpResponse(status=200, headers=headers, body=dns_wire)


def encode_doh_error(status: int, detail: str = "") -> HttpResponse:
    """Build a non-200 DoH response (problem text body)."""
    body = detail.encode("utf-8")
    return HttpResponse(status=status, headers={"Content-Type": "text/plain"}, body=body)


def decode_doh_response(response: HttpResponse) -> bytes:
    """Extract the DNS answer wire bytes from an HTTP response."""
    metrics = get_metrics()
    if response.status != 200:
        if metrics.enabled:
            metrics.inc("doh.codec_errors", reason="http_status")
        raise DohCodecError(f"HTTP {response.status}", status_hint=response.status)
    content_type = response.header("Content-Type", "")
    if content_type != CONTENT_TYPE_DNS:
        if metrics.enabled:
            metrics.inc("doh.codec_errors", reason="content_type")
        raise DohCodecError(f"unexpected response content type {content_type!r}")
    if not response.body:
        if metrics.enabled:
            metrics.inc("doh.codec_errors", reason="empty_body")
        raise DohCodecError("empty DoH response body")
    if metrics.enabled:
        metrics.observe("doh.response_bytes", len(response.body))
    return response.body


def split_get_request(request: HttpRequest) -> Tuple[str, Optional[str]]:
    """(path, dns-parameter) view of a GET request (diagnostics helper)."""
    split = urlsplit(request.path)
    params = parse_qs(split.query)
    values = params.get("dns")
    return split.path, values[0] if values else None
