"""Oblivious DoH proxy (RFC 9230 §4.2).

The proxy is an HTTPS service that relays sealed ODoH messages between
clients and targets: ``POST /proxy?targethost=<host>&targetpath=<path>``.
It never sees plaintext queries (the body is sealed to the target) and the
target never sees the client address (connections originate at the proxy).

The proxy keeps one upstream HTTP/2 connection per target alive, so the
steady-state cost of the relay is one extra network hop each way plus the
proxy's processing time — which is exactly the latency penalty the study's
``odoh-target-*`` rows exhibit.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import HttpError
from repro.httpsim.h1 import HttpRequest, HttpResponse
from repro.httpsim.h2 import H2ClientSession, H2ServerSession, response_frames
from repro.httpsim.odoh_codec import CONTENT_TYPE_ODOH
from repro.netsim.host import Host
from repro.netsim.sockets import SimTcpConnection
from repro.tlssim.handshake import (
    TlsClientConfig,
    TlsClientConnection,
    TlsServerConfig,
    TlsServerConnection,
)

PROXY_PATH = "/proxy"


class OdohProxy:
    """An oblivious relay host."""

    def __init__(
        self,
        host: Host,
        target_registry: Dict[str, str],
    ) -> None:
        self.host = host
        self.target_registry = dict(target_registry)
        self.processing_delay_ms = 0.4
        self.tls_config = TlsServerConfig()
        self.requests_relayed = 0
        self.relay_errors = 0
        self._upstreams: Dict[str, Tuple[TlsClientConnection, H2ClientSession]] = {}
        host.listen_tcp(443, self._accept)

    @property
    def _loop(self):
        assert self.host.network is not None
        return self.host.network.loop

    # -- client-facing side ----------------------------------------------------

    def _accept(self, conn: SimTcpConnection) -> None:
        tls = TlsServerConnection(conn, self.tls_config)

        def handle_request(request: HttpRequest, stream_id: int) -> None:
            # Answered through ``tls``: the session holds this callback, so
            # naming the session here would be a cycle no teardown reaches.
            def send(response: HttpResponse) -> None:
                tls.send_application(response_frames(stream_id, response))

            self._loop.call_later(
                self.processing_delay_ms, self._relay, request, send
            )

        tls.on_application_data = H2ServerSession(
            send=tls.send_application, on_request=handle_request
        ).feed

    # -- relay logic -----------------------------------------------------------

    def _relay(self, request: HttpRequest, send: Callable[[HttpResponse], None]) -> None:
        split = urlsplit(request.path)
        if split.path != PROXY_PATH or request.method != "POST":
            send(HttpResponse(status=404, body=b"not a proxy endpoint"))
            return
        if request.header("Content-Type") != CONTENT_TYPE_ODOH:
            send(HttpResponse(status=415, body=b"expected oblivious DNS message"))
            return
        params = parse_qs(split.query)
        target_hosts = params.get("targethost")
        target_paths = params.get("targetpath", ["/dns-query"])
        if not target_hosts:
            send(HttpResponse(status=400, body=b"missing targethost"))
            return
        target_host = target_hosts[0]
        target_ip = self.target_registry.get(target_host)
        if target_ip is None:
            self.relay_errors += 1
            send(HttpResponse(status=502, body=b"unknown target"))
            return

        forwarded = HttpRequest(
            method="POST",
            path=target_paths[0],
            headers={"Content-Type": CONTENT_TYPE_ODOH},
            body=request.body,
        )

        def on_upstream_response(response: HttpResponse) -> None:
            self.requests_relayed += 1
            # Relay verbatim; the proxy cannot (and must not) inspect bodies.
            send(response)

        def on_failure(exc: Exception) -> None:
            self.relay_errors += 1
            self._upstreams.pop(target_host, None)
            send(HttpResponse(status=502, body=str(exc).encode()))

        self._with_upstream(
            target_host, target_ip,
            lambda session: self._safe_request(session, forwarded,
                                               on_upstream_response, on_failure),
            on_failure,
        )

    def _safe_request(self, session, request, on_response, on_failure) -> None:
        try:
            session.request(request, on_response)
        except HttpError as exc:
            on_failure(exc)

    def _with_upstream(
        self,
        target_host: str,
        target_ip: str,
        use: Callable[[H2ClientSession], None],
        on_failure: Callable[[Exception], None],
    ) -> None:
        """Run ``use(session)`` on a live upstream connection to the target."""
        existing = self._upstreams.get(target_host)
        if existing is not None:
            _tls, session = existing
            if not session.goaway_received:
                use(session)
                return
            del self._upstreams[target_host]

        def on_tls(tls: TlsClientConnection) -> None:
            session = H2ClientSession(
                send=tls.send_application, authority=target_host
            )
            tls.on_application_data = session.feed
            self._upstreams[target_host] = (tls, session)
            use(session)

        def on_tcp(conn: SimTcpConnection) -> None:
            TlsClientConnection(
                conn, target_host,
                TlsClientConfig(alpn=("h2",)),
                on_established=on_tls,
                on_error=on_failure,
            )

        SimTcpConnection.connect(
            self.host, target_ip, 443, on_tcp, on_error=on_failure
        )
