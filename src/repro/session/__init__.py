"""Session-policy model: transport session management as a campaign dimension.

See DESIGN.md §14.  :class:`SessionPolicy` declares *what* clients do
between queries (cold / keep-alive / resumption / 0-RTT);
:class:`SessionBroker` owns the per-(vantage, resolver, transport) state
that implements it on the virtual clock and hands each probe its
:class:`SessionTerms`.
"""

from repro.session.policy import (
    POLICY_PRESETS,
    SESSION_MODES,
    SESSION_STATES,
    WARM_STATES,
    SessionPolicy,
    policy_from_name,
)
from repro.session.state import (
    COLD_TERMS,
    SESSION_TRANSPORTS,
    ClampedSessionCache,
    SessionBroker,
    SessionKey,
    SessionTerms,
)

__all__ = [
    "COLD_TERMS",
    "ClampedSessionCache",
    "POLICY_PRESETS",
    "SESSION_MODES",
    "SESSION_STATES",
    "SESSION_TRANSPORTS",
    "SessionBroker",
    "SessionKey",
    "SessionPolicy",
    "SessionTerms",
    "WARM_STATES",
    "policy_from_name",
]
