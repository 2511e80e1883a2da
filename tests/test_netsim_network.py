"""Tests for the network fabric: routing, anycast, delivery, loss."""

import pytest

from repro.errors import AddressError, RoutingError
from repro.netsim.packet import Datagram
from tests.conftest import add_host, make_quiet_network


def make_datagram(src, dst_ip, payload=b"x", dst_port=53):
    return Datagram(
        src_ip=src.ip, src_port=1000, dst_ip=dst_ip, dst_port=dst_port, payload=payload
    )


class TestTopology:
    def test_attach_and_lookup(self):
        net = make_quiet_network()
        host = add_host(net, "a", "10.0.0.1")
        assert net.host_by_ip("10.0.0.1") is host
        assert net.host_by_name("a") is host
        assert host.network is net

    def test_duplicate_ip_rejected(self):
        net = make_quiet_network()
        add_host(net, "a", "10.0.0.1")
        with pytest.raises(AddressError):
            add_host(net, "b", "10.0.0.1")

    def test_duplicate_name_rejected(self):
        net = make_quiet_network()
        add_host(net, "a", "10.0.0.1")
        with pytest.raises(AddressError):
            add_host(net, "a", "10.0.0.2")

    def test_hosts_listing(self):
        net = make_quiet_network()
        add_host(net, "a", "10.0.0.1")
        add_host(net, "b", "10.0.0.2")
        assert {h.name for h in net.hosts} == {"a", "b"}


class TestUnicastDelivery:
    def test_datagram_delivered_after_one_way_delay(self):
        net = make_quiet_network()
        src = add_host(net, "src", "10.0.0.1", lat=41.88, lon=-87.63)
        dst = add_host(net, "dst", "10.0.0.2", lat=39.96, lon=-83.00)
        arrivals = []
        dst.bind_udp(53, lambda dgram, host: arrivals.append((net.now, dgram.payload)))
        net.transmit(src, make_datagram(src, dst.ip, b"hello"))
        net.run()
        expected = net.path_between(src, dst).fixed_one_way_ms
        assert arrivals == [(pytest.approx(expected), b"hello")]

    def test_unroutable_counts_as_loss_not_error(self):
        net = make_quiet_network()
        src = add_host(net, "src", "10.0.0.1")
        lost = []
        delivered = net.transmit(src, make_datagram(src, "10.9.9.9"), on_lost=lost.append)
        assert delivered is False
        assert len(lost) == 1

    def test_resolve_destination_unknown_raises(self):
        net = make_quiet_network()
        src = add_host(net, "src", "10.0.0.1")
        with pytest.raises(RoutingError):
            net.resolve_destination(src, "10.9.9.9")

    def test_blackholed_host_silently_drops(self):
        net = make_quiet_network()
        src = add_host(net, "src", "10.0.0.1")
        dst = add_host(net, "dst", "10.0.0.2")
        arrivals = []
        dst.bind_udp(53, lambda dgram, host: arrivals.append(dgram))
        dst.blackholed = True
        net.transmit(src, make_datagram(src, dst.ip))
        net.run()
        assert arrivals == []

    def test_loss_invokes_on_lost(self):
        net = make_quiet_network()
        net.latency.core_loss_rate = 1.0  # every packet lost
        src = add_host(net, "src", "10.0.0.1")
        add_host(net, "dst", "10.0.0.2")
        lost = []
        assert not net.transmit(src, make_datagram(src, "10.0.0.2"), on_lost=lost.append)
        assert len(lost) == 1


class TestAnycast:
    def _net_with_sites(self):
        net = make_quiet_network()
        client_na = add_host(net, "client-na", "10.0.0.1", lat=41.88, lon=-87.63)
        client_eu = add_host(net, "client-eu", "10.0.0.2", lat=50.11, lon=8.68, continent="EU")
        site_na = add_host(net, "site-na", "10.1.0.1", lat=40.71, lon=-74.0)
        site_eu = add_host(net, "site-eu", "10.1.0.2", lat=52.37, lon=4.9, continent="EU")
        net.add_anycast("9.9.9.9", [site_na, site_eu])
        return net, client_na, client_eu, site_na, site_eu

    def test_nearest_site_selected_per_client(self):
        net, client_na, client_eu, site_na, site_eu = self._net_with_sites()
        assert net.resolve_destination(client_na, "9.9.9.9") is site_na
        assert net.resolve_destination(client_eu, "9.9.9.9") is site_eu

    def test_selection_is_stable(self):
        net, client_na, _c, site_na, _s = self._net_with_sites()
        first = net.resolve_destination(client_na, "9.9.9.9")
        second = net.resolve_destination(client_na, "9.9.9.9")
        assert first is second is site_na

    def test_rtt_between_uses_selected_site(self):
        net, client_na, _c, site_na, _s = self._net_with_sites()
        assert net.rtt_between(client_na, "9.9.9.9") == pytest.approx(
            net.path_between(client_na, site_na).base_rtt_ms
        )

    def test_empty_site_list_rejected(self):
        net = make_quiet_network()
        with pytest.raises(AddressError):
            net.add_anycast("9.9.9.9", [])

    def test_anycast_ip_colliding_with_unicast_rejected(self):
        net = make_quiet_network()
        host = add_host(net, "a", "10.0.0.1")
        with pytest.raises(AddressError):
            net.add_anycast("10.0.0.1", [host])

    def test_unattached_site_rejected(self):
        from repro.netsim.geo import Coordinates
        from repro.netsim.host import Host

        net = make_quiet_network()
        loose = Host("loose", "10.0.0.9", Coordinates(0, 0), "NA")
        with pytest.raises(AddressError):
            net.add_anycast("9.9.9.9", [loose])

    def test_is_anycast(self):
        net, *_ = self._net_with_sites()
        assert net.is_anycast("9.9.9.9")
        assert not net.is_anycast("10.0.0.1")

    def test_sites_listing(self):
        net, _a, _b, site_na, site_eu = self._net_with_sites()
        assert set(net.anycast_sites("9.9.9.9")) == {site_na, site_eu}


class TestHostImpairments:
    """``any_active`` is a plain attribute that every field write refreshes."""

    @pytest.mark.parametrize(
        "field, value, neutral",
        [
            ("syn_override", "drop", None),
            ("tls_failure", True, False),
            ("extra_loss_rate", 0.25, 0.0),
            ("extra_delay_ms", 40.0, 0.0),
            ("extra_processing_ms", 5.0, 0.0),
        ],
    )
    def test_any_active_follows_each_field(self, field, value, neutral):
        import dataclasses

        from repro.netsim.host import HostImpairments

        imp = HostImpairments()
        assert not imp.any_active
        setattr(imp, field, value)
        assert imp.any_active
        assert dataclasses.replace(imp).any_active
        assert HostImpairments(**{field: value}).any_active
        setattr(imp, field, neutral)
        assert not imp.any_active
        setattr(imp, field, value)
        imp.extra_delay_ms += 1.0
        imp.clear()
        assert not imp.any_active
        assert imp == HostImpairments()

    def test_impaired_endpoint_adds_its_delay_to_the_next_packet(self):
        net = make_quiet_network()
        src = add_host(net, "src", "10.0.0.1")
        dst = add_host(net, "dst", "10.0.0.2")
        arrivals = []
        dst.bind_udp(53, lambda dgram, host: arrivals.append(net.now))
        base = net.path_between(src, dst).fixed_one_way_ms
        net.transmit(src, make_datagram(src, dst.ip))
        net.run()
        dst.impairments.extra_delay_ms = 40.0
        sent_at = net.now
        net.transmit(src, make_datagram(src, dst.ip))
        net.run()
        assert arrivals == [pytest.approx(base), pytest.approx(sent_at + base + 40.0)]


class TestRouteCache:
    """One lookup per packet, refilled when the topology changes."""

    @staticmethod
    def _arrivals(host, port=53):
        arrivals = []
        host.bind_udp(port, lambda dgram, _host: arrivals.append(dgram.payload))
        return arrivals

    def test_attach_makes_a_previously_unroutable_address_deliverable(self):
        net = make_quiet_network()
        src = add_host(net, "src", "10.0.0.1")
        lost = []
        assert not net.transmit(src, make_datagram(src, "10.0.0.2", b"early"), on_lost=lost.append)
        assert [d.payload for d in lost] == [b"early"]
        dst = add_host(net, "dst", "10.0.0.2")
        arrivals = self._arrivals(dst)
        assert net.transmit(src, make_datagram(src, "10.0.0.2", b"late"), on_lost=lost.append)
        net.run()
        assert arrivals == [b"late"] and len(lost) == 1

    def test_unroutable_is_loss_every_time(self):
        net = make_quiet_network(trace=True)
        src = add_host(net, "src", "10.0.0.1")
        lost = []
        for _ in range(3):
            assert net.transmit(src, make_datagram(src, "10.9.9.9"), on_lost=lost.append) is False
        assert len(lost) == 3
        assert [e.kind for e in net.trace] == ["unroutable"] * 3
        assert net.loop.pending == 0

    def test_add_anycast_of_a_nearer_site_moves_the_next_packet(self):
        net = make_quiet_network()
        client = add_host(net, "client", "10.0.0.1", lat=41.88, lon=-87.63)
        far = add_host(net, "site-eu", "10.1.0.2", lat=52.37, lon=4.9, continent="EU")
        net.add_anycast("9.9.9.9", [far])
        at_far, rtt_far = self._arrivals(far), net.rtt_between(client, "9.9.9.9")
        net.transmit(client, make_datagram(client, "9.9.9.9", b"one"))
        net.run()
        near = add_host(net, "site-na", "10.1.0.1", lat=40.71, lon=-74.0)
        at_near = self._arrivals(near)
        # Attaching alone changes nothing: the group still has one site.
        net.transmit(client, make_datagram(client, "9.9.9.9", b"two"))
        net.run()
        net.add_anycast("9.9.9.9", [far, near])
        net.transmit(client, make_datagram(client, "9.9.9.9", b"three"))
        net.run()
        assert at_far == [b"one", b"two"] and at_near == [b"three"]
        assert net.resolve_destination(client, "9.9.9.9") is near
        assert net.rtt_between(client, "9.9.9.9") < rtt_far

    def test_routes_are_per_source(self):
        net = make_quiet_network()
        client_na = add_host(net, "client-na", "10.0.0.1", lat=41.88, lon=-87.63)
        client_eu = add_host(net, "client-eu", "10.0.0.2", lat=50.11, lon=8.68, continent="EU")
        site_na = add_host(net, "site-na", "10.1.0.1", lat=40.71, lon=-74.0)
        site_eu = add_host(net, "site-eu", "10.1.0.2", lat=52.37, lon=4.9, continent="EU")
        net.add_anycast("9.9.9.9", [site_na, site_eu])
        at_na, at_eu = self._arrivals(site_na), self._arrivals(site_eu)
        for _ in range(2):  # the second round is served from the cache
            net.transmit(client_na, make_datagram(client_na, "9.9.9.9", b"na"))
            net.transmit(client_eu, make_datagram(client_eu, "9.9.9.9", b"eu"))
            net.run()
        assert at_na == [b"na", b"na"] and at_eu == [b"eu", b"eu"]

    def test_cached_route_keeps_the_draw_sequence(self):
        """One loss draw (the path has loss), then one jitter draw, per packet."""
        import random

        from repro.netsim.latency import LatencyModel

        net = make_quiet_network(seed=7)
        net.latency.core_jitter_ms = 0.4
        net.latency.core_loss_rate = 0.2
        src = add_host(net, "src", "10.0.0.1")
        dst = add_host(net, "dst", "10.0.0.2")
        path = net.path_between(src, dst)
        shadow, expected = random.Random(7), []
        for _ in range(50):
            if LatencyModel.sample_loss(path, shadow):
                expected.append(None)
            else:
                expected.append(LatencyModel.sample_one_way_ms(path, shadow))
        got = []
        dst.bind_udp(53, lambda dgram, _host: got.append(net.now - float(dgram.payload)))
        sent = []
        for _ in range(50):
            ok = net.transmit(src, make_datagram(src, dst.ip, repr(net.now).encode()))
            sent.append(ok)
            net.run()
        assert sent == [delay is not None for delay in expected]
        assert got == [pytest.approx(delay) for delay in expected if delay is not None]


class TestTrace:
    def test_trace_records_send_and_delivery(self):
        net = make_quiet_network(trace=True)
        src = add_host(net, "src", "10.0.0.1")
        dst = add_host(net, "dst", "10.0.0.2")
        dst.bind_udp(53, lambda dgram, host: None)
        net.transmit(src, make_datagram(src, dst.ip))
        net.run()
        kinds = [event.kind for event in net.trace]
        assert kinds == ["sent", "delivered"]

    def test_trace_records_loss(self):
        net = make_quiet_network(trace=True)
        net.latency.core_loss_rate = 1.0
        src = add_host(net, "src", "10.0.0.1")
        add_host(net, "dst", "10.0.0.2")
        net.transmit(src, make_datagram(src, "10.0.0.2"))
        assert [event.kind for event in net.trace] == ["lost"]

    def test_trace_filter_and_describe(self):
        net = make_quiet_network(trace=True)
        src = add_host(net, "src", "10.0.0.1")
        dst = add_host(net, "dst", "10.0.0.2")
        dst.bind_udp(53, lambda dgram, host: None)
        net.transmit(src, make_datagram(src, dst.ip))
        net.run()
        assert net.trace.sent_count(protocol="udp") == 1
        assert "udp" in net.trace.describe()
