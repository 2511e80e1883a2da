"""The page loader: fetches a :class:`PageSpec` and times it.

Model (after how browsers actually behave, scoped to what affects the
DNS comparison):

* one HTTP/2 connection per origin, shared by every object from that
  domain (requests multiplex; the first object pays TCP + TLS);
* an object becomes fetchable the moment the object that discovered it
  finishes (parse time is folded into server/processing constants);
* DNS lookups go through the :class:`~repro.webload.dnsclient.StubResolver`
  — the first lookup of each domain pays the configured resolver's
  response time, on the critical path of that domain's first object.

Page load time is the instant the last object completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.httpsim.h1 import HttpRequest
from repro.httpsim.h2 import H2ClientSession
from repro.netsim.host import Host
from repro.tlssim.handshake import TlsClientConfig, TlsClientConnection
from repro.netsim.sockets import SimTcpConnection
from repro.webload.dnsclient import StubResolver
from repro.webload.page import ObjectSpec, PageSpec


@dataclass
class ObjectTiming:
    """Timing of one object fetch."""

    name: str
    domain: str
    started_ms: float
    finished_ms: Optional[float] = None
    size_bytes: int = 0

    @property
    def duration_ms(self) -> Optional[float]:
        if self.finished_ms is None:
            return None
        return self.finished_ms - self.started_ms


@dataclass
class PageLoadResult:
    """Outcome of one page load."""

    page_domains: List[str]
    plt_ms: Optional[float]
    success: bool
    error: Optional[str] = None
    objects: Dict[str, ObjectTiming] = field(default_factory=dict)
    dns_lookups: int = 0
    dns_cache_hits: int = 0
    dns_total_ms: float = 0.0
    bytes_fetched: int = 0

    def describe(self) -> str:
        if not self.success:
            return f"FAILED after {self.plt_ms or 0:.0f} ms: {self.error}"
        return (
            f"PLT {self.plt_ms:.1f} ms | {len(self.objects)} objects, "
            f"{self.bytes_fetched / 1024:.0f} kB | DNS: {self.dns_lookups} lookups "
            f"({self.dns_cache_hits} cached), {self.dns_total_ms:.1f} ms total"
        )


class PageLoader:
    """Loads pages from one client host through one stub resolver."""

    def __init__(
        self,
        host: Host,
        stub_resolver: StubResolver,
    ) -> None:
        self.host = host
        self.stub = stub_resolver
        self.timeout_ms = 60_000.0
        self._pool: Dict[str, object] = {}  # domain -> session | list of waiters

    @property
    def _loop(self):
        assert self.host.network is not None
        return self.host.network.loop

    # -- public API -----------------------------------------------------------

    def load(self, page: PageSpec, on_complete: Callable[[PageLoadResult], None]) -> None:
        """Load ``page``; ``on_complete`` fires exactly once."""
        state = _LoadState(self, page, on_complete)
        state.start()

    def close(self) -> None:
        """Drop pooled connections (between page loads)."""
        for entry in self._pool.values():
            tls = getattr(entry, "tls", None)
            if tls is not None:
                tls.close()
        self._pool.clear()

    # -- connection pool ----------------------------------------------------------

    def _with_connection(
        self,
        domain: str,
        ip: str,
        use: Callable[[H2ClientSession], None],
        fail: Callable[[Exception], None],
    ) -> None:
        entry = self._pool.get(domain)
        if isinstance(entry, _PooledConnection):
            use(entry.session)
            return
        if isinstance(entry, list):
            entry.append((use, fail))
            return
        waiters: List[Tuple[Callable, Callable]] = [(use, fail)]
        self._pool[domain] = waiters

        def on_tls(tls: TlsClientConnection) -> None:
            session = H2ClientSession(send=tls.send_application, authority=domain)
            tls.on_application_data = session.feed
            self._pool[domain] = _PooledConnection(tls=tls, session=session)
            for use_fn, _fail_fn in waiters:
                use_fn(session)

        def on_error(exc: Exception) -> None:
            self._pool.pop(domain, None)
            for _use_fn, fail_fn in waiters:
                fail_fn(exc)

        def on_tcp(conn: SimTcpConnection) -> None:
            TlsClientConnection(
                conn, domain, TlsClientConfig(alpn=("h2",)),
                on_established=on_tls, on_error=on_error,
            )

        SimTcpConnection.connect(self.host, ip, 443, on_tcp, on_error=on_error)


@dataclass
class _PooledConnection:
    tls: TlsClientConnection
    session: H2ClientSession


class _LoadState:
    """State of one in-flight page load."""

    def __init__(self, loader: PageLoader, page: PageSpec, on_complete) -> None:
        self.loader = loader
        self.page = page
        self.on_complete = on_complete
        self.result = PageLoadResult(
            page_domains=page.domains, plt_ms=None, success=False
        )
        self.started_at = loader._loop.now
        self.outstanding = 0
        self.done = False
        self.dns_lookups_before = loader.stub.upstream_queries
        self.dns_hits_before = loader.stub.cache_hits
        self.dns_ms_before = loader.stub.total_lookup_ms
        self._timer = loader._loop.call_later(loader.timeout_ms, self._timeout)

    def start(self) -> None:
        self._fetch(self.page.root)

    # -- object lifecycle -------------------------------------------------------

    def _fetch(self, spec: ObjectSpec) -> None:
        if self.done:
            return
        self.outstanding += 1
        timing = ObjectTiming(
            name=spec.name, domain=spec.domain, started_ms=self.loader._loop.now
        )
        self.result.objects[spec.name] = timing

        def fail(exc: Exception) -> None:
            self._fail(f"{spec.name} ({spec.domain}): {exc}")

        def on_addresses(addresses, error) -> None:
            if self.done:
                return
            if error is not None or not addresses:
                fail(error or ReproError("no addresses"))
                return
            self.loader._with_connection(
                spec.domain, addresses[0],
                lambda session: self._request(session, spec, timing, fail),
                fail,
            )

        self.loader.stub.resolve(spec.domain, on_addresses)

    def _request(self, session, spec: ObjectSpec, timing: ObjectTiming, fail) -> None:
        if self.done:
            return

        def on_response(response) -> None:
            if self.done:
                return
            if response.status != 200:
                fail(ReproError(f"HTTP {response.status}"))
                return
            timing.finished_ms = self.loader._loop.now
            timing.size_bytes = len(response.body)
            self.result.bytes_fetched += len(response.body)
            self.outstanding -= 1
            for child in self.page.children_of(spec.name):
                self._fetch(child)
            if self.outstanding == 0:
                self._succeed()

        try:
            session.request(
                HttpRequest(method="GET", path=f"/obj/{spec.name}"), on_response
            )
        except Exception as exc:
            fail(exc)

    # -- completion ------------------------------------------------------------------

    def _collect_dns_stats(self) -> None:
        stub = self.loader.stub
        self.result.dns_lookups = stub.upstream_queries - self.dns_lookups_before
        self.result.dns_cache_hits = stub.cache_hits - self.dns_hits_before
        self.result.dns_total_ms = stub.total_lookup_ms - self.dns_ms_before

    def _succeed(self) -> None:
        if self.done:
            return
        self.done = True
        self._timer.cancel()
        self.result.success = True
        self.result.plt_ms = self.loader._loop.now - self.started_at
        self._collect_dns_stats()
        self.on_complete(self.result)

    def _fail(self, message: str) -> None:
        if self.done:
            return
        self.done = True
        self._timer.cancel()
        self.result.success = False
        self.result.error = message
        self.result.plt_ms = self.loader._loop.now - self.started_at
        self._collect_dns_stats()
        self.on_complete(self.result)

    def _timeout(self) -> None:
        self._fail(f"page load exceeded {self.loader.timeout_ms:.0f} ms")
