"""Property-based tests for the session-policy machinery.

Four invariants, checked with Hypothesis on the virtual clock:

* a resumed TLS 1.3 handshake is never slower than its full (cold)
  counterpart on the same path with the same configuration — the resumed
  flight skips the certificate chain and its client-side validation;
* keep-alive eviction is *exact* at the idle-TTL boundary (``idle >=
  ttl`` evicts, anything less keeps the connection) and at the
  max-streams budget;
* a rejected 0-RTT attempt always falls back to the 1-RTT resumed
  handshake — the early data is replayed, the exchange completes, and
  the outcome is well-formed (never lost), whatever the rejection
  probability;
* a :class:`~repro.session.SessionPolicy` written to a JSON or TOML file
  loads back losslessly, and a value of the wrong shape is refused, not
  coerced.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CampaignConfigError
from repro.files import spec_from_table, spec_to_table
from repro.netsim.sockets import SimTcpConnection
from repro.session import (
    POLICY_PRESETS,
    SESSION_MODES,
    SessionBroker,
    SessionPolicy,
)
from repro.tlssim.handshake import (
    TlsClientConfig,
    TlsClientConnection,
    TlsServerConfig,
    TlsServerConnection,
)
from repro.tlssim.session import SessionCache
from tests.conftest import add_host, make_quiet_network

try:
    import tomllib
except ImportError:  # Python < 3.11 reads no TOML spec, this one included
    tomllib = None
needs_tomllib = pytest.mark.skipif(tomllib is None, reason="TOML needs Python 3.11+")

# ---------------------------------------------------------------------------
# Policy serialization round-trips
# ---------------------------------------------------------------------------

_policies = st.builds(
    SessionPolicy,
    mode=st.sampled_from(SESSION_MODES),
    idle_ttl_ms=st.floats(min_value=1.0, max_value=1e9, allow_nan=False),
    max_streams=st.integers(min_value=1, max_value=10_000),
    ticket_lifetime_ms=st.floats(min_value=1.0, max_value=1e12, allow_nan=False),
    zero_rtt_reject_p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    cert_verify_ms=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)


def _json(policy: SessionPolicy) -> str:
    return json.dumps(spec_to_table(policy), sort_keys=True)


def _toml(policy: SessionPolicy) -> str:
    """Flat ``key = value`` TOML; ``repr`` keeps a float's full precision."""
    return "".join(
        f'{key} = "{value}"\n' if isinstance(value, str) else f"{key} = {value!r}\n"
        for key, value in sorted(spec_to_table(policy).items())
    )


def _load(root, name: str, text: str) -> SessionPolicy:
    path = root / name
    path.write_text(text, encoding="utf-8")
    return SessionPolicy.load(path)


class TestPolicyRoundTrip:
    @given(policy=_policies)
    @settings(max_examples=50, deadline=None)
    def test_json_round_trip_lossless(self, policy, tmp_path_factory):
        root = tmp_path_factory.mktemp("policies")
        assert _load(root, "p.json", _json(policy)) == policy

    @needs_tomllib
    @given(policy=_policies)
    @settings(max_examples=50, deadline=None)
    def test_toml_round_trip_lossless(self, policy, tmp_path_factory):
        root = tmp_path_factory.mktemp("policies")
        assert _load(root, "p.toml", _toml(policy)) == policy

    @given(policy=_policies)
    @settings(max_examples=20, deadline=None)
    def test_file_round_trip_both_formats(self, policy, tmp_path_factory):
        root = tmp_path_factory.mktemp("policies")
        files = [("p.json", _json(policy))]
        if tomllib is not None:  # the TOML half only: it needs Python 3.11+
            files.append(("p.toml", _toml(policy)))
        for name, text in files:
            assert _load(root, name, text) == policy

    def test_presets_round_trip(self, tmp_path):
        for name, policy in POLICY_PRESETS.items():
            assert _load(tmp_path, "p.json", _json(policy)) == policy, name
        if tomllib is None:  # the TOML half only: it needs Python 3.11+
            pytest.skip("TOML needs Python 3.11+; the JSON round trips ran")
        for name, policy in POLICY_PRESETS.items():
            assert _load(tmp_path, "p.toml", _toml(policy)) == policy, name

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_streams", 2.7),
            ("max_streams", True),
            ("max_streams", "100"),
            ("idle_ttl_ms", "30000"),
            ("idle_ttl_ms", math.inf),
            ("idle_ttl_ms", False),
            ("ticket_lifetime_ms", None),
            ("zero_rtt_reject_p", math.nan),
            ("cert_verify_ms", math.nan),
            ("mode", 7),
        ],
    )
    def test_wrong_shapes_refused_not_coerced(self, field, value):
        with pytest.raises(CampaignConfigError, match=f"session policy '{field}' must be"):
            spec_from_table(
                SessionPolicy,
                {"mode": "keep_alive", field: value},
                CampaignConfigError,
                "session policy",
            )

    def test_unknown_fields_rejected(self, tmp_path):
        with pytest.raises(CampaignConfigError):
            _load(tmp_path, "p.json", '{"mode": "cold", "bogus": 1}')

    def test_validation(self):
        with pytest.raises(CampaignConfigError):
            SessionPolicy(mode="piping-hot")
        with pytest.raises(CampaignConfigError):
            SessionPolicy(idle_ttl_ms=0.0)
        with pytest.raises(CampaignConfigError):
            SessionPolicy(zero_rtt_reject_p=1.5)
        with pytest.raises(CampaignConfigError):
            SessionPolicy(cert_verify_ms=-1.0)


# ---------------------------------------------------------------------------
# Keep-alive eviction: exact on the virtual clock
# ---------------------------------------------------------------------------


class _FakeLoop:
    def __init__(self) -> None:
        self.now = 0.0


class _FakeProbe:
    def __init__(self) -> None:
        self.closed = 0
        self.rng = None

    def close(self) -> None:
        self.closed += 1


def _one_query(broker, key, probe, at_ms):
    broker._loop.now = at_ms
    broker.before_query(key, probe)
    broker.after_query(key)


class TestKeepAliveEviction:
    KEY = ("v", "r", "doh")

    def _broker(self, **kwargs):
        loop = _FakeLoop()
        return SessionBroker(SessionPolicy(mode="keep_alive", **kwargs), loop), loop

    @given(
        ttl=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_idle_ttl_boundary_is_exact(self, ttl, fraction):
        broker, loop = self._broker(idle_ttl_ms=ttl)
        probe = _FakeProbe()
        broker.checkout(self.KEY, random.Random(0), lambda: probe)
        _one_query(broker, self.KEY, probe, 0.0)

        # Strictly inside the TTL: the connection survives.  Guard against
        # float underflow (ttl * fraction rounding back up to ttl).
        idle = ttl * fraction
        if idle < ttl:
            loop.now = idle
            broker.before_query(self.KEY, probe)
            assert probe.closed == 0

        # At the boundary (idle == ttl exactly): evicted.
        broker2, loop2 = self._broker(idle_ttl_ms=ttl)
        probe2 = _FakeProbe()
        broker2.checkout(self.KEY, random.Random(0), lambda: probe2)
        _one_query(broker2, self.KEY, probe2, 0.0)
        loop2.now = ttl
        broker2.before_query(self.KEY, probe2)
        assert probe2.closed == 1

    def test_just_below_boundary_survives(self):
        broker, loop = self._broker(idle_ttl_ms=30_000.0)
        probe = _FakeProbe()
        broker.checkout(self.KEY, random.Random(0), lambda: probe)
        _one_query(broker, self.KEY, probe, 0.0)
        loop.now = math.nextafter(30_000.0, 0.0)
        broker.before_query(self.KEY, probe)
        assert probe.closed == 0

    @given(max_streams=st.integers(min_value=1, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_max_streams_budget_is_exact(self, max_streams):
        broker, _loop = self._broker(idle_ttl_ms=1e12, max_streams=max_streams)
        probe = _FakeProbe()
        broker.checkout(self.KEY, random.Random(0), lambda: probe)
        for i in range(max_streams):
            _one_query(broker, self.KEY, probe, float(i))
            assert probe.closed == 0, f"evicted early after {i + 1} streams"
        # The (max_streams + 1)-th query must reconnect.
        broker.before_query(self.KEY, probe)
        assert probe.closed == 1

    def test_fresh_connection_never_evicted(self):
        # streams_used == 0 means the connection was just built; even a
        # huge clock jump must not tear it down before its first query.
        broker, loop = self._broker(idle_ttl_ms=1.0)
        probe = _FakeProbe()
        broker.checkout(self.KEY, random.Random(0), lambda: probe)
        loop.now = 1e9
        broker.before_query(self.KEY, probe)
        assert probe.closed == 0


# ---------------------------------------------------------------------------
# TLS timing: resumption is never slower, 0-RTT rejection never loses data
# ---------------------------------------------------------------------------


def _timed_connection(
    net, client, server_ip, cache, enable_early_data, reject_p, reject_seed,
    cert_verify_ms,
):
    """One TLS exchange; returns (tls, elapsed_to_response, response)."""
    detail = {}
    started = net.now

    def on_tcp(conn):
        tls = TlsClientConnection(
            conn,
            "dns.example",
            TlsClientConfig(
                versions=("1.3",),
                session_cache=cache,
                enable_early_data=enable_early_data,
                early_data_reject_p=reject_p,
                early_data_rng=random.Random(reject_seed),
                cert_verify_ms=cert_verify_ms,
            ),
            on_error=lambda exc: detail.setdefault("error", exc),
        )
        tls.on_application_data = lambda data: detail.setdefault(
            "response", (net.now, data)
        )
        tls.send_application(b"ping")
        detail["tls"] = tls

    SimTcpConnection.connect(client, server_ip, 443, on_tcp)
    net.run()
    assert "error" not in detail, detail.get("error")
    assert "response" in detail, "exchange never completed"
    at, data = detail["response"]
    detail["tls"].close()
    net.run()
    return detail["tls"], at - started, data


def _echo_server(net):
    client = add_host(net, "client", "10.0.0.1", lat=41.88, lon=-87.63)
    server = add_host(net, "server", "10.0.0.2", lat=50.11, lon=8.68,
                      continent="EU")
    config = TlsServerConfig(versions=("1.3",), allow_early_data=True)

    def acceptor(tcp_conn):
        tls = TlsServerConnection(tcp_conn, config)
        tls.on_application_data = (
            lambda data: tls.send_application(b"echo:" + data)
        )

    server.listen_tcp(443, acceptor)
    return client, server


class TestHandshakeTiming:
    @given(cert_verify_ms=st.floats(min_value=0.0, max_value=200.0,
                                    allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_resumed_never_slower_than_cold_same_seed(self, cert_verify_ms):
        net = make_quiet_network()
        client, server = _echo_server(net)
        cache = SessionCache()
        _tls1, cold_ms, _ = _timed_connection(
            net, client, server.ip, cache, False, 0.0, 0, cert_verify_ms
        )
        tls2, resumed_ms, _ = _timed_connection(
            net, client, server.ip, cache, False, 0.0, 0, cert_verify_ms
        )
        assert tls2.resumed
        # <= up to float accumulation: the two connections start at
        # different absolute virtual times, so identical logical delays
        # can differ by an ULP.
        assert resumed_ms <= cold_ms or math.isclose(
            resumed_ms, cold_ms, rel_tol=1e-9
        )
        if cert_verify_ms > 0.0:
            # The resumed flight skips certificate validation exactly.
            assert cold_ms - resumed_ms == pytest.approx(cert_verify_ms)

    @given(
        reject_p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        reject_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_zero_rtt_rejection_always_falls_back(self, reject_p, reject_seed):
        net = make_quiet_network()
        client, server = _echo_server(net)
        cache = SessionCache()
        _timed_connection(net, client, server.ip, cache, False, 0.0, 0, 0.0)

        tls, elapsed, data = _timed_connection(
            net, client, server.ip, cache, True, reject_p, reject_seed, 0.0
        )
        # Whatever the anti-replay filter decided, the exchange completed
        # with the early data either accepted or replayed on 1-RTT.
        assert data == b"echo:ping"
        assert tls.resumed
        if not tls.used_early_data:
            # Rejected: the 1-RTT resumed fallback costs one extra RTT.
            assert elapsed > 0.0

    def test_accepted_zero_rtt_faster_than_rejected(self):
        def run(reject_p):
            net = make_quiet_network()
            client, server = _echo_server(net)
            cache = SessionCache()
            _timed_connection(net, client, server.ip, cache, False, 0.0, 0, 0.0)
            return _timed_connection(
                net, client, server.ip, cache, True, reject_p, 7, 0.0
            )

        tls_ok, accepted_ms, _ = run(0.0)
        tls_no, rejected_ms, _ = run(1.0)
        assert tls_ok.used_early_data and not tls_no.used_early_data
        assert accepted_ms < rejected_ms
