"""Static HTTPS servers for page objects.

A :class:`StaticWebServer` binds port 443 on a simulated host and serves
``GET /obj/<name>`` with a body of the registered size over TLS + HTTP/2
(or HTTP/1.1 by ALPN).  Bodies are synthetic (repeated filler bytes); only
their size matters for load timing.
"""

from __future__ import annotations

from typing import Dict

from repro.httpsim.h1 import H1RequestParser, HttpRequest, HttpResponse, encode_response
from repro.httpsim.h2 import H2ServerSession
from repro.netsim.host import Host
from repro.netsim.sockets import SimTcpConnection
from repro.tlssim.handshake import TlsServerConfig, TlsServerConnection


class StaticWebServer:
    """Serves fixed-size objects on one host."""

    def __init__(
        self,
        host: Host,
    ) -> None:
        self.host = host
        self.tls_config = TlsServerConfig()
        self.processing_delay_ms = 0.5
        self._objects: Dict[str, int] = {}
        self.requests_served = 0
        host.listen_tcp(443, self._accept)

    @property
    def _loop(self):
        assert self.host.network is not None
        return self.host.network.loop

    def register(self, name: str, size_bytes: int) -> None:
        """Make ``GET /obj/<name>`` return ``size_bytes`` of body."""
        self._objects[name] = size_bytes

    def _respond(self, request: HttpRequest, send) -> None:
        if not request.path.startswith("/obj/"):
            send(HttpResponse(status=404, body=b"not found"))
            return
        name = request.path[len("/obj/"):]
        size = self._objects.get(name)
        if size is None:
            send(HttpResponse(status=404, body=b"unknown object"))
            return
        self.requests_served += 1
        body = (name.encode("ascii", "replace") + b"-") * (
            size // (len(name) + 1) + 1
        )
        send(
            HttpResponse(
                status=200,
                headers={"Content-Type": "application/octet-stream"},
                body=body[:size],
            )
        )

    def _accept(self, conn: SimTcpConnection) -> None:
        tls = TlsServerConnection(conn, self.tls_config)
        state: Dict[str, object] = {}

        def handle_h2(request: HttpRequest, stream_id: int) -> None:
            session = state["session"]
            assert isinstance(session, H2ServerSession)
            self._loop.call_later(
                self.processing_delay_ms,
                self._respond,
                request,
                lambda response: session.respond(stream_id, response),
            )

        def on_app_data(data: bytes) -> None:
            if "session" not in state:
                if tls.negotiated_alpn == "h2":
                    state["session"] = H2ServerSession(
                        send=tls.send_application, on_request=handle_h2
                    )
                else:
                    state["session"] = H1RequestParser()
            session = state["session"]
            if isinstance(session, H2ServerSession):
                session.feed(data)
            else:
                assert isinstance(session, H1RequestParser)
                for request in session.feed(data):
                    self._loop.call_later(
                        self.processing_delay_ms,
                        self._respond,
                        request,
                        lambda response: tls.send_application(encode_response(response)),
                    )

        tls.on_application_data = on_app_data
