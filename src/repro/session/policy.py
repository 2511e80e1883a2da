"""Session policies: how a campaign manages transport sessions over time.

A :class:`SessionPolicy` is a campaign dimension, exactly like the
transport or the retry policy: it describes what a *client population*
does between queries — tear everything down, keep connections open,
resume TLS sessions from tickets, or attempt QUIC/TLS 0-RTT early data.

The four modes map onto the related measurement literature:

``cold``
    Every query pays full connection establishment (the pre-session
    behaviour of this repo, and the pessimistic bound in the poster).
``keep_alive``
    Connections persist across queries up to an idle TTL and a
    max-streams budget (Hounsel et al.'s connection-reuse scenario).
``resumption``
    Each query opens a fresh connection but resumes TLS 1.3 / QUIC
    sessions from cached tickets, clamped to a client-side ticket
    lifetime (abbreviated handshakes, no early data).
``zero_rtt``
    Resumption plus 0-RTT early data, with a configurable probability
    that the server-side anti-replay filter rejects the early data and
    forces the 1-RTT resumed fallback (Kosek et al.'s DoQ scenario).

Policies are plain frozen dataclasses that round-trip losslessly
through JSON and a flat TOML form, so campaign specs can carry them.
Their values are checked against the shared :data:`repro.files.SHAPES`
table like every other spec: a value of the wrong type is refused, never
coerced.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple, Union

from repro.core.scheduler import MS_PER_DAY
from repro.errors import CampaignConfigError
from repro.files import check_shapes, read_document

#: Valid policy modes, in cold-to-hottest order.
SESSION_MODES: Tuple[str, ...] = ("cold", "keep_alive", "resumption", "zero_rtt")

#: States a single measurement can report (record ``session_state``).
SESSION_STATES: Tuple[str, ...] = ("cold", "warm", "resumed", "zero_rtt")

#: Record states that skipped full connection establishment.
WARM_STATES: Tuple[str, ...] = ("warm", "resumed", "zero_rtt")

#: The :data:`repro.files.SHAPES` entry each policy field must match.
_FIELD_SHAPES = {
    "mode": "text",
    "idle_ttl_ms": "number",
    "max_streams": "integer",
    "ticket_lifetime_ms": "number",
    "zero_rtt_reject_p": "number",
    "cert_verify_ms": "number",
}


def _normalize_mode(mode: str) -> str:
    return str(mode).strip().lower().replace("-", "_")


@dataclass(frozen=True)
class SessionPolicy:
    """What clients do with transport sessions between queries.

    Attributes
    ----------
    mode:
        One of :data:`SESSION_MODES`.  ``cold`` disables all session
        machinery and reproduces the legacy per-query teardown exactly.
    idle_ttl_ms:
        ``keep_alive`` only — a connection idle for at least this long
        (virtual clock) is torn down before the next query; eviction is
        exact at the boundary (``idle >= ttl`` evicts).
    max_streams:
        ``keep_alive`` only — after this many queries a connection is
        retired and the next query reconnects.
    ticket_lifetime_ms:
        ``resumption``/``zero_rtt`` — client-side clamp on how long a
        cached session ticket may be used, regardless of the lifetime
        the server advertised.
    zero_rtt_reject_p:
        ``zero_rtt`` only — probability that a 0-RTT attempt is rejected
        by the server's anti-replay filter, forcing the 1-RTT resumed
        fallback.  Drawn from the measurement's own derived RNG stream
        so rejection patterns are deterministic and shard-independent.
    cert_verify_ms:
        Client-side certificate-chain validation cost charged to every
        *full* handshake while the policy is active.  Resumed (PSK)
        handshakes skip it — on a 1-RTT TLS 1.3/QUIC handshake this CPU
        cost (plus the skipped certificate flight) is exactly what
        resumption saves, so it is part of the session cost model rather
        than of the transport defaults (which stay at zero to keep
        legacy campaigns byte-identical).
    """

    mode: str = "cold"
    idle_ttl_ms: float = 30_000.0
    max_streams: int = 100
    ticket_lifetime_ms: float = MS_PER_DAY
    zero_rtt_reject_p: float = 0.0
    cert_verify_ms: float = 3.0

    def __post_init__(self) -> None:
        check_shapes("session policy", vars(self), _FIELD_SHAPES, CampaignConfigError)
        object.__setattr__(self, "mode", _normalize_mode(self.mode))
        if self.mode not in SESSION_MODES:
            raise CampaignConfigError(
                f"unknown session mode {self.mode!r}; expected one of "
                + ", ".join(SESSION_MODES)
            )
        if self.idle_ttl_ms <= 0:
            raise CampaignConfigError("session idle_ttl_ms must be positive")
        if self.max_streams < 1:
            raise CampaignConfigError("session max_streams must be at least 1")
        if self.ticket_lifetime_ms <= 0:
            raise CampaignConfigError("session ticket_lifetime_ms must be positive")
        if not 0.0 <= self.zero_rtt_reject_p <= 1.0:
            raise CampaignConfigError("zero_rtt_reject_p must be within [0, 1]")
        if self.cert_verify_ms < 0:
            raise CampaignConfigError("cert_verify_ms must be non-negative")

    # -- behaviour queries ------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether any session machinery is active (``cold`` is inert)."""
        return self.mode != "cold"

    @property
    def keeps_connections(self) -> bool:
        return self.mode == "keep_alive"

    @property
    def resumes_sessions(self) -> bool:
        return self.mode in ("resumption", "zero_rtt")

    @property
    def uses_early_data(self) -> bool:
        return self.mode == "zero_rtt"

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionPolicy":
        unknown = sorted(set(data) - set(_FIELD_SHAPES))
        if unknown:
            raise CampaignConfigError(
                f"unknown session policy fields: {', '.join(unknown)}"
            )
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SessionPolicy":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignConfigError(f"malformed session policy JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise CampaignConfigError("session policy JSON must be an object")
        return cls.from_dict(data)

    def to_toml(self) -> str:
        """Flat ``key = value`` TOML, which :meth:`load` reads back losslessly."""
        lines = []
        for key, value in sorted(self.to_dict().items()):
            if isinstance(value, str):
                lines.append(f'{key} = "{value}"')
            elif isinstance(value, float):
                # repr() keeps full precision so the round-trip is exact.
                lines.append(f"{key} = {value!r}")
            else:
                lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SessionPolicy":
        """Load a policy from a ``.json`` or ``.toml`` file."""
        return cls.from_dict(read_document(path, CampaignConfigError, "session policy"))

    def describe(self) -> str:
        if self.mode == "cold":
            return "cold (full establishment per query)"
        if self.mode == "keep_alive":
            return (
                f"keep-alive (idle ttl {self.idle_ttl_ms:.0f} ms, "
                f"max {self.max_streams} streams)"
            )
        if self.mode == "resumption":
            return f"resumption (ticket lifetime {self.ticket_lifetime_ms:.0f} ms)"
        return (
            f"0-RTT (ticket lifetime {self.ticket_lifetime_ms:.0f} ms, "
            f"replay-reject p={self.zero_rtt_reject_p:g})"
        )


#: Named presets the CLI and experiments accept.  The preset *names*
#: use dashes (CLI-friendly); modes use underscores (identifier-friendly).
POLICY_PRESETS: Dict[str, SessionPolicy] = {
    "cold": SessionPolicy(mode="cold"),
    "keep-alive": SessionPolicy(mode="keep_alive"),
    "resumption": SessionPolicy(mode="resumption"),
    "zero-rtt": SessionPolicy(mode="zero_rtt", zero_rtt_reject_p=0.05),
}


def policy_from_name(name: str) -> SessionPolicy:
    """Resolve a preset name (``keep-alive``/``keep_alive``/...) to a policy."""
    key = _normalize_mode(name).replace("_", "-")
    if key in POLICY_PRESETS:
        return POLICY_PRESETS[key]
    raise CampaignConfigError(
        f"unknown session policy {name!r}; expected one of "
        + ", ".join(sorted(POLICY_PRESETS))
    )


__all__ = [
    "POLICY_PRESETS",
    "SESSION_MODES",
    "SESSION_STATES",
    "SessionPolicy",
    "WARM_STATES",
    "policy_from_name",
]
