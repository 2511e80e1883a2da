"""Session-policy model: transport session management as a campaign dimension.

See DESIGN.md §14.  :class:`SessionPolicy` declares *what* clients do
between queries (cold / keep-alive / resumption / 0-RTT);
:class:`SessionBroker` owns the per-(vantage, resolver, transport) state
that implements it on the virtual clock.
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
    SESSION_TRANSPORTS,
    ClampedSessionCache,
    SessionBroker,
    SessionKey,
    SessionWiring,
)

__all__ = [
    "ClampedSessionCache",
    "POLICY_PRESETS",
    "SESSION_MODES",
    "SESSION_STATES",
    "SESSION_TRANSPORTS",
    "SessionBroker",
    "SessionKey",
    "SessionPolicy",
    "SessionWiring",
    "WARM_STATES",
    "policy_from_name",
]
