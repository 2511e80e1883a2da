"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the boundary.  The measurement platform
additionally maps transport/protocol failures onto the error taxonomy in
:mod:`repro.core.errors_taxonomy` when recording results; the exception
classes here carry the raw failure.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulator errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the network simulator."""


class ClockError(SimulationError):
    """Raised when the virtual clock is misused (e.g. scheduling in the past)."""


class RoutingError(SimulationError):
    """Raised when a packet cannot be routed (unknown IP, no anycast site)."""


class AddressError(SimulationError):
    """Raised for malformed or conflicting simulated addresses."""


class SocketError(SimulationError):
    """Base class for simulated socket failures."""


class ConnectionRefused(SocketError):
    """The remote host has no listener on the destination port."""


class ConnectionReset(SocketError):
    """The remote end closed or aborted the connection mid-exchange."""


class ConnectTimeout(SocketError):
    """The transport-level connection attempt timed out."""


# ---------------------------------------------------------------------------
# DNS wire format errors
# ---------------------------------------------------------------------------


class DnsWireError(ReproError):
    """Base class for DNS message encoding/decoding failures."""


class NameError_(DnsWireError):
    """Raised for malformed domain names (length limits, bad labels).

    Named with a trailing underscore to avoid shadowing the ``NameError``
    builtin; exported as ``DnsNameError`` from :mod:`repro.dnswire`.
    """


class MessageTruncated(DnsWireError):
    """Raised when a wire message ends before a field completes."""


class MessageMalformed(DnsWireError):
    """Raised when a wire message violates the RFC 1035 grammar."""


class CompressionError(DnsWireError):
    """Raised for bad compression pointers (loops, forward references)."""


class FramingError(DnsWireError):
    """Raised when a length-prefixed DNS stream (TCP/DoT/DoQ framing,
    RFC 1035 §4.2.2) ends mid-frame or declares an impossible length.

    A named error — like :class:`ResultsFormatError` for result files —
    so a truncated stream fails loudly at the framing layer instead of
    rotting into an opaque probe timeout.
    """


# ---------------------------------------------------------------------------
# TLS / HTTP simulation errors
# ---------------------------------------------------------------------------


class TlsError(ReproError):
    """Base class for simulated TLS failures."""


class TlsHandshakeError(TlsError):
    """The simulated TLS handshake failed (version mismatch, server abort)."""


class HttpError(ReproError):
    """Base class for simulated HTTP failures."""


class HttpProtocolError(HttpError):
    """Malformed HTTP/1.1 framing or HTTP/2 frame sequence."""


class HttpStatusError(HttpError):
    """A non-2xx HTTP response where the caller required success."""

    def __init__(self, status: int) -> None:
        super().__init__(f"HTTP status {status}")
        self.status = status


# ---------------------------------------------------------------------------
# Resolver errors
# ---------------------------------------------------------------------------


class ResolverError(ReproError):
    """Base class for recursive-resolution failures."""


class ZoneError(ResolverError):
    """Raised for malformed or inconsistent zone data."""


class ResolutionFailed(ResolverError):
    """The recursive engine could not resolve the name (SERVFAIL)."""


# ---------------------------------------------------------------------------
# Measurement platform errors
# ---------------------------------------------------------------------------


class MeasurementError(ReproError):
    """Base class for measurement-platform failures."""


class ProbeTimeout(MeasurementError):
    """A probe did not complete within its deadline."""


class CampaignConfigError(MeasurementError):
    """A measurement campaign was configured inconsistently."""


class ShardWorkerError(MeasurementError):
    """A shard's child process ended without handing back a result.

    Raised by the parallel runner when a child is killed, runs out of
    memory or calls ``os._exit``: ``shard_key`` names the shard it was
    running and ``exitcode`` is the child's (negative for a signal).
    An exception raised *inside* a shard is not this error: it re-raises
    in the parent as its own type, with one of these as its cause to
    carry the shard key and the child's traceback (``exitcode`` is
    ``None`` there, the child was still running).
    """

    def __init__(
        self, message: str, shard_key: str = "", exitcode: Optional[int] = None
    ) -> None:
        super().__init__(message)
        self.shard_key = shard_key
        self.exitcode = exitcode


class ResultsFormatError(MeasurementError):
    """A results file failed to parse (malformed or truncated record).

    Raised instead of an anonymous ``json.JSONDecodeError`` when a JSONL
    results file or a warehouse segment contains a line that is not a
    valid :class:`~repro.core.results.MeasurementRecord`; the message
    names the file and the 1-based line number.
    """


class StoreError(MeasurementError):
    """A results warehouse was misused (missing manifest, double ingest)."""


class DiffInputError(MeasurementError):
    """Answer differencing was fed unusable input (no captured responses)."""


class MonitorConfigError(MeasurementError):
    """An SLO policy or monitor configuration is invalid (bad threshold,
    unknown objective kind, malformed policy file)."""


class ObserverConfigError(MeasurementError):
    """An observer spec or fleet configuration is invalid (unknown metric
    kind or scope, bad baseline parameters, malformed spec file)."""


class CatalogError(ReproError):
    """Raised for unknown resolvers or malformed catalog entries."""


class GeoError(ReproError):
    """Raised for geolocation database failures (unknown IP, bad prefix)."""


class AnalysisError(ReproError):
    """Raised when analysis inputs are empty or inconsistent."""
