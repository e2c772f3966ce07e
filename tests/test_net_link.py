"""Unit tests for ports, links, NICs, hosts, and multicast tables."""

import math

import pytest

from repro.net import (
    Host,
    IPv4Address,
    Link,
    MACAddress,
    MulticastGroupTable,
    NIC,
    Packet,
    Port,
    Topology,
)
from repro.sim import Environment


def raw_packet(size=100):
    return Packet(bytes(size), flow_key="flow")


class TestLink:
    def test_serialisation_plus_propagation_delay(self):
        env = Environment()
        received = []
        a = Port(env, "a")
        b = Port(env, "b", rx_handler=lambda p, port: received.append(env.now))
        Link(env, a, b, bandwidth_bps=1e9, propagation_delay_s=1e-6)
        a.send(raw_packet(125))  # 1000 bits at 1 Gbps = 1 us
        env.run(until=1e-3)
        assert received == pytest.approx([2e-6])

    def test_back_to_back_packets_queue_on_serialiser(self):
        env = Environment()
        received = []
        a = Port(env, "a")
        b = Port(env, "b", rx_handler=lambda p, port: received.append(env.now))
        Link(env, a, b, bandwidth_bps=1e9, propagation_delay_s=0.0)
        for __ in range(3):
            a.send(raw_packet(125))
        env.run(until=1e-3)
        assert received == pytest.approx([1e-6, 2e-6, 3e-6])

    def test_full_duplex_directions_independent(self):
        env = Environment()
        times = {}
        a = Port(env, "a", rx_handler=lambda p, port: times.setdefault("a", env.now))
        b = Port(env, "b", rx_handler=lambda p, port: times.setdefault("b", env.now))
        Link(env, a, b, bandwidth_bps=1e9, propagation_delay_s=0.0)
        a.send(raw_packet(125))
        b.send(raw_packet(125))
        env.run(until=1e-3)
        # Simultaneous opposite-direction transfers do not serialise.
        assert times["a"] == pytest.approx(1e-6)
        assert times["b"] == pytest.approx(1e-6)

    def test_port_cannot_join_two_links(self):
        env = Environment()
        a, b, c = Port(env, "a"), Port(env, "b"), Port(env, "c")
        Link(env, a, b)
        with pytest.raises(RuntimeError):
            Link(env, a, c)

    def test_send_on_unconnected_port_rejected(self):
        env = Environment()
        with pytest.raises(RuntimeError):
            Port(env, "lonely").send(raw_packet())

    def test_other_end(self):
        env = Environment()
        a, b = Port(env, "a"), Port(env, "b")
        link = Link(env, a, b)
        assert link.other_end(a) is b
        assert link.other_end(b) is a
        with pytest.raises(ValueError):
            link.other_end(Port(env, "c"))

    def test_parameter_validation(self):
        env = Environment()
        a, b = Port(env, "a"), Port(env, "b")
        with pytest.raises(ValueError):
            Link(env, a, b, bandwidth_bps=0)
        with pytest.raises(ValueError):
            Link(env, a, b, propagation_delay_s=-1)

    @pytest.mark.parametrize("field,value", [
        ("bandwidth_bps", math.nan),
        ("bandwidth_bps", math.inf),
        ("bandwidth_bps", -1.0),
        ("propagation_delay_s", math.nan),
        ("propagation_delay_s", math.inf),
    ])
    def test_non_finite_parameter_names_the_field(self, field, value):
        env = Environment()
        a, b = Port(env, "a"), Port(env, "b")
        with pytest.raises(ValueError, match=field):
            Link(env, a, b, **{field: value})

    def test_port_counters(self):
        env = Environment()
        a, b = Port(env, "a"), Port(env, "b")
        Link(env, a, b, propagation_delay_s=0)
        a.send(raw_packet(100))
        env.run(until=1e-3)
        assert (a.tx_packets, a.tx_bytes) == (1, 100)
        assert (b.rx_packets, b.rx_bytes) == (1, 100)


class TestNIC:
    def test_tx_ring_drains_to_wire(self):
        env = Environment()
        received = []
        nic = NIC(env, "nic0", MACAddress(1), IPv4Address("10.0.0.1"))
        sink = Port(env, "sink",
                    rx_handler=lambda p, port: received.append(p))
        Link(env, nic.port, sink, propagation_delay_s=0)
        nic.send(raw_packet())
        env.run(until=1e-3)
        assert len(received) == 1

    def test_send_nowait_drops_when_full(self):
        env = Environment()
        nic = NIC(env, "nic0", MACAddress(1), IPv4Address("10.0.0.1"),
                  tx_ring_size=2)
        # No link yet: nothing drains, but the un-started env also means
        # the tx loop hasn't pulled anything; ring fills at capacity.
        assert nic.send_nowait(raw_packet())
        assert nic.send_nowait(raw_packet())
        assert not nic.send_nowait(raw_packet())

    def test_rx_without_callback_counts_drops(self):
        env = Environment()
        nic = NIC(env, "nic0", MACAddress(1), IPv4Address("10.0.0.1"))
        other = Port(env, "other")
        Link(env, nic.port, other, propagation_delay_s=0)
        other.send(raw_packet())
        env.run(until=1e-3)
        assert nic.dropped_rx == 1

    def test_tx_overhead_applied(self):
        env = Environment()
        received = []
        nic = NIC(env, "nic0", MACAddress(1), IPv4Address("10.0.0.1"),
                  tx_overhead_s=5e-6)
        sink = Port(env, "sink",
                    rx_handler=lambda p, port: received.append(env.now))
        Link(env, nic.port, sink, bandwidth_bps=1e12,
             propagation_delay_s=0)
        nic.send(raw_packet(125))
        env.run(until=1e-3)
        assert received[0] >= 5e-6


class TestHost:
    def test_udp_send_receive(self):
        env = Environment()
        h1 = Host(env, "h1", MACAddress(1), IPv4Address("10.0.0.1"))
        h2 = Host(env, "h2", MACAddress(2), IPv4Address("10.0.0.2"))
        Topology(env).connect(h1.nic.port, h2.nic.port)

        def sender():
            yield h1.send_udp(h2.mac, h2.ip, 10, 20, b"ping")

        def receiver():
            packet = yield h2.recv()
            __, ip, udp, payload = packet.parse_udp()
            return (str(ip.src), udp.dst_port, payload)

        env.process(sender())
        p = env.process(receiver())
        assert env.run(until=p) == ("10.0.0.1", 20, b"ping")

    def test_recv_udp_payload_skips_non_udp(self):
        env = Environment()
        h1 = Host(env, "h1", MACAddress(1), IPv4Address("10.0.0.1"))
        h2 = Host(env, "h2", MACAddress(2), IPv4Address("10.0.0.2"))
        Topology(env).connect(h1.nic.port, h2.nic.port)

        def sender():
            yield h1.nic.send(Packet(b"\x00" * 60))  # junk frame
            yield h1.send_udp(h2.mac, h2.ip, 1, 2, b"real")

        def receiver():
            payload = yield from h2.recv_udp_payload()
            return payload

        env.process(sender())
        p = env.process(receiver())
        assert env.run(until=p) == b"real"


class TestMulticastGroupTable:
    def test_join_and_members_sorted(self):
        table = MulticastGroupTable()
        table.join(IPv4Address("239.0.0.1"), "p2")
        table.join("239.0.0.1", "p1")
        assert table.members("239.0.0.1") == ["p1", "p2"]

    def test_non_multicast_group_rejected(self):
        table = MulticastGroupTable()
        with pytest.raises(ValueError):
            table.join(IPv4Address("10.0.0.1"), "p1")

    def test_leave_and_group_cleanup(self):
        table = MulticastGroupTable()
        table.join("239.0.0.1", "p1")
        table.leave("239.0.0.1", "p1")
        assert table.members("239.0.0.1") == []
        assert "239.0.0.1" not in table
        table.leave("239.0.0.1", "p1")  # idempotent

    def test_contains(self):
        table = MulticastGroupTable()
        table.join("239.0.0.1", "p1")
        assert "239.0.0.1" in table
        assert "not an address" not in table


class TestTopology:
    def test_duplicate_host_rejected(self):
        env = Environment()
        topo = Topology(env)
        host = Host(env, "h", MACAddress(1), IPv4Address("10.0.0.1"))
        topo.add_host(host)
        with pytest.raises(ValueError):
            topo.add_host(Host(env, "h", MACAddress(2),
                               IPv4Address("10.0.0.2")))

    def test_find_port(self):
        env = Environment()
        topo = Topology(env)
        h1 = Host(env, "h1", MACAddress(1), IPv4Address("10.0.0.1"))
        h2 = Host(env, "h2", MACAddress(2), IPv4Address("10.0.0.2"))
        topo.connect(h1.nic.port, h2.nic.port)
        assert topo.find_port("h1.port") is h1.nic.port
        assert topo.find_port("nonexistent") is None

    def test_device_registry(self):
        env = Environment()
        topo = Topology(env)
        topo.add_device("sw", object())
        assert topo.device("sw") is not None
        with pytest.raises(ValueError):
            topo.add_device("sw", object())
