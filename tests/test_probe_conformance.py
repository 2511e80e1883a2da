"""One conformance suite over the transport table.

Every row of :data:`repro.transports.TRANSPORTS` is driven through the
same :class:`~repro.core.probes.Probe`, so every row must honour the same
contract: complete exactly once, describe a success fully, account for
its time in phases, label connection reuse and session resumption the
same way, and tear down idempotently.  The suite is parametrised over the
table itself — a new row is covered the day it is added.
"""

import random

import pytest

from repro.core.errors_taxonomy import ErrorClass
from repro.core.probes import Probe, ProbeConfig, make_probe
from repro.core.runner import Campaign, CampaignConfig
from repro.core.scheduler import PeriodicSchedule
from repro.errors import CampaignConfigError
from repro.tlssim.session import SessionCache
from repro.transports import SESSION_TRANSPORTS, TRANSPORT_NAMES, TRANSPORTS

from tests.conftest import MINI_CATALOG_HOSTNAMES

#: Speaks all five transports; anycast, so it is near every vantage.
RESOLVER = "dns.adguard.com"
DEAD_RESOLVER = "dns.pumplex.com"
VANTAGE = "ec2-ohio"


@pytest.fixture(scope="module")
def world():
    from repro.catalog.resolvers import CATALOG
    from repro.experiments.world import build_world

    wanted = set(MINI_CATALOG_HOSTNAMES) | {RESOLVER}
    catalog = [entry for entry in CATALOG if entry.hostname in wanted]
    return build_world(seed=9, catalog=catalog, warm_caches=True)


def probe_for(
    world, transport, hostname=RESOLVER, seed=1, session_cache=None, **config
) -> Probe:
    return make_probe(
        transport,
        world.vantage(VANTAGE).host,
        world.deployment(hostname).service_ip,
        hostname,
        ProbeConfig(**config),
        rng=random.Random(seed),
        session_cache=session_cache,
    )


def run_query(world, probe, domain="google.com"):
    """One query, run to quiescence; asserts the exactly-once contract."""
    outcomes = []
    probe.query(domain, outcomes.append)
    world.network.run()
    assert len(outcomes) == 1, f"completed {len(outcomes)} times"
    return outcomes[0]


def test_the_table_is_what_the_suite_covers():
    assert set(TRANSPORT_NAMES) == {"doh", "dot", "do53", "doq", "doh3"}
    assert SESSION_TRANSPORTS == ("doh", "dot", "doq", "doh3")


@pytest.mark.parametrize("transport", TRANSPORT_NAMES)
class TestEveryTransport:
    def test_success_completes_once_and_is_fully_described(self, world, transport):
        probe = probe_for(world, transport)
        outcome = run_query(world, probe)
        probe.close()
        assert outcome.success, outcome.error_detail
        assert outcome.error_class is None and outcome.failed_phase is None
        assert outcome.rcode == 0
        assert outcome.answers
        assert outcome.response_wire
        assert outcome.response_size == len(outcome.response_wire)
        assert 0 < outcome.duration_ms < 1000.0

    def test_dead_resolver_completes_once_with_a_classified_error(
        self, world, transport
    ):
        probe = probe_for(world, transport, hostname=DEAD_RESOLVER, timeout_ms=1500.0)
        outcome = run_query(world, probe)
        probe.close()
        assert not outcome.success
        assert outcome.error_class is not None
        assert outcome.failed_phase is not None
        assert outcome.response_wire is None and outcome.answers == []
        # (start + timeout) - start in floats: one ULP over, depending on
        # where the shared world's clock stands.
        assert outcome.duration_ms <= 1500.0 + 1e-6

    def test_deadline_completes_once_as_a_timeout(self, world, transport):
        # 2 ms is less than one round trip to anywhere.
        probe = probe_for(world, transport, timeout_ms=2.0)
        outcome = run_query(world, probe)
        probe.close()
        assert not outcome.success
        assert outcome.error_class in (
            ErrorClass.TIMEOUT, ErrorClass.CONNECT_TIMEOUT
        )
        assert outcome.duration_ms <= 2.0 + 1e-6
        world.network.run()  # late packets must not complete it again

    def test_phase_timings_account_for_the_duration(self, world, transport):
        probe = probe_for(world, transport)
        outcome = run_query(world, probe)
        probe.close()
        kind = TRANSPORTS[transport].connection
        # TCP connect only under TLS; a handshake wherever there is one.
        assert (outcome.connect_ms is not None) == (kind == "tls")
        assert (outcome.tls_ms is not None) == (kind != "udp")
        assert outcome.query_ms is not None and outcome.query_ms > 0
        phases = (outcome.connect_ms or 0.0) + (outcome.tls_ms or 0.0) + outcome.query_ms
        assert phases <= outcome.duration_ms + 1e-6

    def test_reuse_goes_cold_then_warm(self, world, transport):
        probe = probe_for(world, transport, reuse_connections=True)
        first = run_query(world, probe)
        second = run_query(world, probe, domain="amazon.com")
        probe.close()
        assert first.success and second.success
        if not TRANSPORTS[transport].has_session:
            # Nothing to keep: every query stands alone.
            assert first.session_state is None and second.session_state is None
            assert not first.connection_reused and not second.connection_reused
            return
        assert first.session_state == "cold" and not first.connection_reused
        assert second.session_state == "warm" and second.connection_reused
        assert second.connect_ms is None and second.tls_ms is None
        assert second.duration_ms < first.duration_ms

    def test_fresh_probes_never_report_reuse(self, world, transport):
        probe = probe_for(world, transport)
        first = run_query(world, probe)
        second = run_query(world, probe)
        probe.close()
        expected = "cold" if TRANSPORTS[transport].has_session else None
        for outcome in (first, second):
            assert outcome.success and not outcome.connection_reused
            assert outcome.session_state == expected

    def test_close_is_idempotent(self, world, transport):
        probe = probe_for(world, transport, reuse_connections=True)
        probe.close()  # before any query
        assert run_query(world, probe).success
        probe.close()
        probe.close()
        world.network.run()
        # ... and a closed probe can be used again.
        again = run_query(world, probe)
        probe.close()
        assert again.success and not again.connection_reused

    def test_make_probe_records_carry_the_transport_name(self, world, transport):
        probe = probe_for(world, transport)
        assert isinstance(probe, Probe)
        assert probe.transport is TRANSPORTS[transport]
        store = Campaign(
            network=world.network,
            vantages=[world.vantage(VANTAGE)],
            targets=world.targets([RESOLVER]),
            config=CampaignConfig(
                name=f"conformance-{transport}",
                schedule=PeriodicSchedule(
                    rounds=1, interval_ms=1000.0, start_ms=world.network.loop.now
                ),
                transport=transport,
                ping=False,
            ),
        ).run()
        assert len(store) == 3
        assert {record.transport for record in store.records} == {transport}
        assert {record.kind for record in store.records} == {"dns_query"}


@pytest.mark.parametrize("transport", SESSION_TRANSPORTS)
class TestSessionTransports:
    def test_ticket_resumes_the_next_connection(self, world, transport):
        cache = SessionCache()
        config = dict(session_cache=cache, enable_early_data=False)
        first = run_query(world, probe_for(world, transport, **config))
        second = run_query(world, probe_for(world, transport, seed=2, **config))
        assert first.success and second.success
        assert first.session_state == "cold"
        assert second.session_state == "resumed"
        assert not second.connection_reused
        assert len(cache) == 1

    def test_early_data_rides_the_ticket(self, world, transport):
        cache = SessionCache()
        config = dict(session_cache=cache, enable_early_data=True)
        first = run_query(world, probe_for(world, transport, **config))
        second = run_query(world, probe_for(world, transport, seed=2, **config))
        assert first.success and second.success
        assert first.session_state == "cold"
        assert second.session_state == "zero_rtt"
        assert second.duration_ms < first.duration_ms

    def test_early_data_default_is_the_transports_habit(self, world, transport):
        """QUIC clients attempt 0-RTT unless told not to; TLS clients don't."""
        cache = SessionCache()
        run_query(world, probe_for(world, transport, session_cache=cache))
        second = run_query(world, probe_for(world, transport, seed=2, session_cache=cache))
        expected = "zero_rtt" if TRANSPORTS[transport].early_data else "resumed"
        assert second.session_state == expected


# ---------------------------------------------------------------------------
# The divergence ledger (DESIGN.md §3): rules the five former classes
# disagreed on, now stated once and checked for every row they apply to.
# ---------------------------------------------------------------------------

TLS_TRANSPORTS = tuple(n for n, row in TRANSPORTS.items() if row.connection == "tls")
HTTP_TRANSPORTS = tuple(
    n for n, row in TRANSPORTS.items() if row.framing in ("http", "h3")
)


@pytest.mark.parametrize("transport", TRANSPORT_NAMES)
def test_negative_answer_is_a_described_dns_failure(world, transport):
    """(d) a non-NOERROR answer is ``dns_rcode`` with ``rcode=N`` detail,
    and still carries the wire for answer differencing."""
    probe = probe_for(world, transport)
    outcome = run_query(world, probe, domain="no-such-name.google.com")
    probe.close()
    assert not outcome.success
    assert outcome.error_class is ErrorClass.DNS_RCODE
    assert outcome.rcode == 3
    assert outcome.error_detail == "rcode=3"
    assert outcome.failed_phase == "dns_parse"
    assert outcome.response_wire and outcome.answers == []


@pytest.mark.parametrize("transport", HTTP_TRANSPORTS)
def test_http_error_fails_in_the_http_exchange(world, transport):
    """(c) the status line is HTTP's: a non-200 never reaches ``dns_parse``."""
    probe = probe_for(world, transport, doh_path="/not-the-path")
    outcome = run_query(world, probe)
    probe.close()
    assert not outcome.success
    assert outcome.http_status == 404
    assert outcome.error_class is ErrorClass.HTTP_ERROR
    assert outcome.failed_phase == "http_exchange"
    assert outcome.session_state == "cold" and outcome.tls_version


@pytest.mark.parametrize("transport", TLS_TRANSPORTS)
def test_peer_close_before_the_answer_is_a_reset_not_a_timeout(world, transport):
    """(b) the server ends the stream while the query is outstanding."""
    sites = world.deployment(RESOLVER).sites
    for site in sites:
        site.host.impairments.extra_processing_ms = 1000.0  # hold the answer

    def hang_up() -> None:
        for site in sites:
            for conn in list(site.host._tcp_connections.values()):
                conn.close()

    world.network.loop.call_later(400.0, hang_up)
    try:
        probe = probe_for(world, transport)
        outcome = run_query(world, probe)
        probe.close()
    finally:
        for site in sites:
            site.host.impairments.extra_processing_ms = 0.0
    assert not outcome.success
    assert outcome.error_class is ErrorClass.CONNECTION_RESET
    assert 400.0 <= outcome.duration_ms < 1000.0


@pytest.mark.parametrize("transport", SESSION_TRANSPORTS)
def test_campaign_probe_config_reaches_every_session_transport(world, transport):
    """(e) with no session policy the campaign's own ``reuse_connections``
    applies to every transport that has a connection to keep."""
    store = Campaign(
        network=world.network,
        vantages=[world.vantage(VANTAGE)],
        targets=world.targets([RESOLVER]),
        config=CampaignConfig(
            name=f"ledger-e-{transport}",
            schedule=PeriodicSchedule(
                rounds=1, interval_ms=1000.0, start_ms=world.network.loop.now
            ),
            transport=transport,
            probe_config=ProbeConfig(reuse_connections=True),
            ping=False,
        ),
    ).run()
    reused = [record.connection_reused for record in store.records if record.success]
    assert len(reused) >= 2
    assert reused[0] is False and all(reused[1:])


def test_make_probe_rejects_names_outside_the_table(world):
    host = world.vantage(VANTAGE).host
    with pytest.raises(CampaignConfigError):
        make_probe("doh4", host, "192.0.2.1", "example.test")
