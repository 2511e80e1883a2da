"""Classification of measurement failures.

The paper reports that the most common errors were "related to a failure
to establish a connection".  To reproduce that analysis the platform tags
every failed probe with an :class:`ErrorClass`, derived from the exception
(or protocol condition) that ended the probe.
"""

from __future__ import annotations

from enum import Enum

from repro.errors import (
    ConnectionRefused,
    ConnectionReset,
    ConnectTimeout,
    DnsWireError,
    HttpError,
    HttpStatusError,
    ProbeTimeout,
    TlsError,
)


class ErrorClass(str, Enum):
    """Where in the exchange a probe failed."""

    CONNECT_REFUSED = "connect_refused"
    CONNECT_TIMEOUT = "connect_timeout"
    CONNECTION_RESET = "connection_reset"
    TLS_HANDSHAKE = "tls_handshake"
    HTTP_ERROR = "http_error"
    DNS_MALFORMED = "dns_malformed"
    DNS_RCODE = "dns_rcode"
    TIMEOUT = "timeout"
    OTHER = "other"

    @property
    def is_connection_establishment(self) -> bool:
        """True for the paper's dominant class: couldn't establish a connection."""
        return self in CONNECTION_ESTABLISHMENT_CLASSES


#: The paper's dominant error group: the probe never got a working
#: connection (TCP refused, TCP connect timed out, or TLS never finished).
CONNECTION_ESTABLISHMENT_CLASSES = frozenset(
    {
        ErrorClass.CONNECT_REFUSED,
        ErrorClass.CONNECT_TIMEOUT,
        ErrorClass.TLS_HANDSHAKE,
    }
)

#: The same group as record-level ``error_class`` strings, and in the
#: sorted order alert evidence lists them in.
ESTABLISHMENT_VALUES = frozenset(c.value for c in CONNECTION_ESTABLISHMENT_CLASSES)
ESTABLISHMENT_CLASS_VALUES = tuple(sorted(ESTABLISHMENT_VALUES))

#: Every ``error_class`` string: what a spec's list of error classes may hold.
ERROR_CLASS_VALUES = frozenset(c.value for c in ErrorClass)


def classify_error(exc: BaseException) -> ErrorClass:
    """Map an exception raised during a probe to its error class."""
    if isinstance(exc, ConnectionRefused):
        return ErrorClass.CONNECT_REFUSED
    if isinstance(exc, ConnectTimeout):
        return ErrorClass.CONNECT_TIMEOUT
    if isinstance(exc, ConnectionReset):
        return ErrorClass.CONNECTION_RESET
    if isinstance(exc, TlsError):
        return ErrorClass.TLS_HANDSHAKE
    if isinstance(exc, HttpStatusError):
        return ErrorClass.HTTP_ERROR
    if isinstance(exc, HttpError):
        return ErrorClass.HTTP_ERROR
    if isinstance(exc, DnsWireError):
        return ErrorClass.DNS_MALFORMED
    if isinstance(exc, ProbeTimeout):
        return ErrorClass.TIMEOUT
    return ErrorClass.OTHER
