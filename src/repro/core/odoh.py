"""Oblivious DoH measurement probe.

Measures end-to-end ODoH response time: seal the query to the target,
POST it to the oblivious proxy with ``?targethost=&targetpath=``, and open
the sealed response.  Compared with a plain DoH probe against the same
target, the difference isolates the relay's cost — one extra hop each way
plus proxy processing.

The stack is the DoH one (TCP, TLS, HTTP/2, HTTP status, DNS parse, all
in :class:`~repro.core.probes.Probe`) aimed at the proxy; ODoH adds only
the seal/open step around the HTTP body and the proxy's request path.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Optional, Tuple
from urllib.parse import quote

from repro.core.probes import Probe, ProbeConfig
from repro.httpsim.h1 import HttpRequest, HttpResponse
from repro.httpsim.odoh_codec import CONTENT_TYPE_ODOH, open_response, seal_query
from repro.netsim.host import Host
from repro.resolver.odoh_proxy import PROXY_PATH
from repro.transports import TRANSPORTS

#: DoH's row under ODoH's name (spans and labels say what was measured).
#: Not in the table: a campaign cannot sweep it, it needs a proxy.
_ODOH = dataclasses.replace(TRANSPORTS["doh"], name="odoh")


@dataclass(frozen=True)
class OdohProbeConfig(ProbeConfig):
    """Knobs of the ODoH probe: the shared ones plus the two ODoH has."""

    #: Oblivious proxies speak HTTP/2 only.
    http_versions: Tuple[str, ...] = ("h2",)
    target_path: str = "/dns-query"
    key_id: int = 7  # the target key generation the client believes in


class OdohProbe(Probe):
    """Measures one target through one oblivious proxy."""

    def __init__(
        self,
        host: Host,
        proxy_ip: str,
        proxy_name: str,
        target_hostname: str,
        config: Optional[OdohProbeConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(
            _ODOH, host, proxy_ip, proxy_name, config or OdohProbeConfig(), rng
        )
        self.target_hostname = target_hostname

    def _http_request(self, dns_wire: bytes) -> HttpRequest:
        path = (
            f"{PROXY_PATH}?targethost={quote(self.target_hostname)}"
            f"&targetpath={quote(self.config.target_path, safe='')}"
        )
        return HttpRequest(
            method="POST",
            path=path,
            headers={"Content-Type": CONTENT_TYPE_ODOH},
            body=seal_query(dns_wire, self.config.key_id),
        )

    def _dns_from_http(self, response: HttpResponse) -> bytes:
        return open_response(response.body, self.config.key_id)
