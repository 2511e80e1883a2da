"""TLS session tickets and the client-side session cache.

Resumption matters for the measurement platform's connection-reuse ablation:
a resumed TLS 1.3 handshake omits the certificate chain (smaller flights)
and may carry 0-RTT early data, removing one round trip entirely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

_ticket_ids = itertools.count(1)


@dataclass(frozen=True)
class SessionTicket:
    """An opaque resumption ticket issued by a server.

    Attributes
    ----------
    ticket_id:
        Unique identifier (stands in for the encrypted ticket blob).
    server_name:
        SNI the ticket was issued for; tickets are not portable.
    version:
        Negotiated TLS version at issuance ("1.3" or "1.2").
    allows_early_data:
        Whether the server permits 0-RTT data under this ticket.
    issued_at_ms:
        Virtual time of issuance.
    lifetime_ms:
        Validity window; expired tickets are ignored by the cache.
    """

    ticket_id: int
    server_name: str
    version: str
    allows_early_data: bool
    issued_at_ms: float
    lifetime_ms: float = 7 * 24 * 3600 * 1000.0

    def valid_at(self, now_ms: float) -> bool:
        return now_ms < self.issued_at_ms + self.lifetime_ms

    @classmethod
    def issue(
        cls,
        server_name: str,
        version: str,
        allows_early_data: bool,
        now_ms: float,
        lifetime_ms: float = 7 * 24 * 3600 * 1000.0,
    ) -> "SessionTicket":
        return cls(
            ticket_id=next(_ticket_ids),
            server_name=server_name,
            version=version,
            allows_early_data=allows_early_data,
            issued_at_ms=now_ms,
            lifetime_ms=lifetime_ms,
        )


def register_ticket(registry: Dict[int, float], ticket: SessionTicket) -> None:
    """Record a ticket a server just issued in its host's registry (ticket
    id -> expiry on the virtual clock), dropping the tickets expired by then.

    A server honours ticket ``t`` at ``now`` when ``registry.get(t, 0.0) >
    now``.  Ids and issue times only grow and a ``dict`` keeps insertion
    order, so the expired entries are at the front, and the registry holds
    the tickets of one lifetime, not of the whole campaign.
    """
    now_ms = ticket.issued_at_ms
    while registry:
        oldest = next(iter(registry))
        if registry[oldest] > now_ms:
            break
        del registry[oldest]
    registry[ticket.ticket_id] = now_ms + ticket.lifetime_ms


class SessionCache:
    """Client-side ticket store, one ticket per server name (most recent wins)."""

    def __init__(self) -> None:
        self._tickets: Dict[str, SessionTicket] = {}
        self.hits = 0
        self.misses = 0

    def store(self, ticket: SessionTicket) -> None:
        self._tickets[ticket.server_name] = ticket

    def lookup(self, server_name: str, now_ms: float) -> Optional[SessionTicket]:
        """A valid ticket for ``server_name``, or None."""
        ticket = self._tickets.get(server_name)
        if ticket is not None and ticket.valid_at(now_ms):
            self.hits += 1
            return ticket
        if ticket is not None:
            del self._tickets[server_name]
        self.misses += 1
        return None

    def invalidate(self, server_name: str) -> None:
        self._tickets.pop(server_name, None)

    def clear(self) -> None:
        self._tickets.clear()

    def __len__(self) -> int:
        return len(self._tickets)
