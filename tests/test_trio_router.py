"""Unit tests for the multi-PFE router and fabric."""

import pytest

from repro.net import Host, IPv4Address, MACAddress, Packet, Topology
from repro.sim import Environment
from repro.trio import TrioRouter


def build(env, num_pfes=2):
    router = TrioRouter(env, num_pfes=num_pfes, ports_per_pfe=2)
    topo = Topology(env)
    hosts = []
    for i in range(num_pfes):
        host = Host(env, f"h{i}", MACAddress(i + 1),
                    IPv4Address(f"10.0.{i}.1"))
        pfe_name = f"pfe{i + 1}"
        topo.connect(host.nic.port, router.pfe(pfe_name).port(0))
        router.add_route(host.ip, pfe_name, f"{pfe_name}.p0")
        hosts.append(host)
    return router, hosts


class TestUnicast:
    def test_same_pfe_forwarding_stays_local(self):
        env = Environment()
        router = TrioRouter(env, num_pfes=2, ports_per_pfe=2)
        topo = Topology(env)
        h0 = Host(env, "h0", MACAddress(1), IPv4Address("10.0.0.1"))
        h1 = Host(env, "h1", MACAddress(2), IPv4Address("10.0.0.2"))
        topo.connect(h0.nic.port, router.pfe("pfe1").port(0))
        topo.connect(h1.nic.port, router.pfe("pfe1").port(1))
        router.add_route(h1.ip, "pfe1", "pfe1.p1")

        def send():
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"local")

        def recv():
            packet = yield h1.recv()
            return packet.parse_udp()[3]

        env.process(send())
        p = env.process(recv())
        assert env.run(until=p) == b"local"
        # Never crossed the fabric.
        assert sum(port.tx_packets for port in router.fabric.values()) == 0

    def test_cross_pfe_forwarding_uses_fabric(self):
        env = Environment()
        router, (h0, h1) = build(env)

        def send():
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"cross")

        def recv():
            packet = yield h1.recv()
            return packet.parse_udp()[3]

        env.process(send())
        p = env.process(recv())
        assert env.run(until=p) == b"cross"
        assert router.fabric[("pfe1", "pfe2")].tx_packets == 1

    def test_unrouted_counted(self):
        env = Environment()
        router, (h0, __) = build(env)

        def send():
            yield h0.send_udp(MACAddress(0xAB), IPv4Address("172.16.0.9"),
                              1, 2, b"void")

        env.process(send())
        env.run(until=1e-3)
        assert router.unrouted_drops == 1

    def test_add_route_validates_pfe(self):
        env = Environment()
        router, __ = build(env)
        with pytest.raises(ValueError):
            router.add_route(IPv4Address("1.1.1.1"), "pfe99", "pfe99.p0")
        with pytest.raises(ValueError, match="'pfe2.p9' is not a port of pfe2"):
            router.add_route(IPv4Address("1.1.1.1"), "pfe2", "pfe2.p9")
        assert IPv4Address("1.1.1.1") not in router.route_table


class TestMulticast:
    def test_chassis_multicast_spans_pfes(self):
        env = Environment()
        router, (h0, h1) = build(env)
        group = IPv4Address("239.9.9.9")
        router.join_multicast(group, "pfe1", "pfe1.p0")
        router.join_multicast(group, "pfe2", "pfe2.p0")

        def send():
            yield h0.send_udp(MACAddress.broadcast(), group, 1, 2, b"mc")

        received = []

        def recv(host):
            packet = yield host.recv()
            received.append(host.name)

        env.process(send())
        procs = [env.process(recv(h)) for h in (h0, h1)]
        env.run(until=env.all_of(procs))
        assert sorted(received) == ["h0", "h1"]

    def test_empty_group_dropped(self):
        env = Environment()
        router, (h0, __) = build(env)

        def send():
            yield h0.send_udp(MACAddress.broadcast(),
                              IPv4Address("239.0.0.9"), 1, 2, b"mc")

        env.process(send())
        env.run(until=1e-3)
        assert router.unrouted_drops == 1

    def test_join_validates_pfe(self):
        env = Environment()
        router, __ = build(env)
        with pytest.raises(ValueError):
            router.join_multicast(IPv4Address("239.0.0.1"), "pfe9", "p0")
        with pytest.raises(ValueError, match="'pfe1.p9' is not a port of pfe1"):
            router.join_multicast(IPv4Address("239.0.0.1"), "pfe1", "pfe1.p9")
        assert not router.multicast.members(IPv4Address("239.0.0.1"))


class TestFabric:
    def test_send_to_pfe_reprocesses_at_destination(self):
        env = Environment()
        router, (h0, h1) = build(env)
        packet = Packet.udp(
            src_mac=MACAddress(1), dst_mac=MACAddress(2),
            src_ip=h0.ip, dst_ip=h1.ip, src_port=1, dst_port=2,
            payload=b"via fabric",
        )
        router.send_to_pfe(packet, "pfe1", "pfe2")

        def recv():
            got = yield h1.recv()
            return got.parse_udp()[3]

        p = env.process(recv())
        assert env.run(until=p) == b"via fabric"
        assert router.pfe("pfe2").packets_in == 1

    def test_fabric_latency_applied(self):
        env = Environment()
        router, __ = build(env)
        arrivals = _arrivals(router, "pfe2")
        router.send_to_pfe(Packet(bytes(1000)), "pfe1", "pfe2")
        env.run(until=1e-3)
        expected = 1000 * 8 / 400e9 + 500e-9
        assert arrivals == [pytest.approx(expected)]

    def test_fabric_unknown_destination(self):
        env = Environment()
        router, __ = build(env)
        with pytest.raises(KeyError):
            router.send_to_pfe(Packet(bytes(10)), "pfe1", "ghost")

    def test_fabric_serialises_per_channel(self):
        env = Environment()
        router, __ = build(env)
        to_pfe2 = _arrivals(router, "pfe2")
        to_pfe1 = _arrivals(router, "pfe1")
        for __ in range(2):
            router.send_to_pfe(Packet(bytes(1000)), "pfe1", "pfe2")
        router.send_to_pfe(Packet(bytes(1000)), "pfe2", "pfe1")
        env.run(until=1e-3)
        frame_s = 1000 * 8 / 400e9  # 20 ns each
        # Frames queue behind each other on one direction only.
        assert to_pfe2 == pytest.approx([frame_s + 500e-9,
                                         2 * frame_s + 500e-9])
        assert to_pfe1 == pytest.approx([frame_s + 500e-9])

    def test_one_event_per_fabric_frame(self):
        env = Environment()
        router, __ = build(env)
        arrivals = _arrivals(router, "pfe2")
        before = env.scheduled_events
        for __ in range(5):
            router.send_to_pfe(Packet(bytes(1000)), "pfe1", "pfe2")
        env.run(until=1e-3)
        assert len(arrivals) == 5
        assert env.scheduled_events - before == 5


def _arrivals(router, pfe_name):
    """Record when frames from the fabric reach ``pfe_name``'s Dispatch."""
    arrivals = []
    router.pfe(pfe_name).accept = (
        lambda packet, ingress_port: arrivals.append(router.env.now))
    return arrivals
