"""Tests for the §7 applications: telemetry and DDoS mitigation."""

import pytest

from repro.nf import DDoSMitigator, TelemetryMonitor
from repro.net import Host, IPv4Address, MACAddress, Topology
from repro.sim import Environment
from repro.trio import PFE


def build(app, num_senders=1):
    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=num_senders + 1)
    topo = Topology(env)
    senders = []
    for i in range(num_senders):
        host = Host(env, f"src{i}", MACAddress(i + 1),
                    IPv4Address(f"10.0.0.{i + 1}"))
        topo.connect(host.nic.port, pfe.port(i))
        senders.append(host)
    sink = Host(env, "sink", MACAddress(0xFF), IPv4Address("10.0.99.99"))
    topo.connect(sink.nic.port, pfe.port(num_senders))
    pfe.add_route(sink.ip, pfe.port(num_senders).name)
    pfe.install_app(app)
    return env, pfe, senders, sink


class TestTelemetryMonitor:
    def test_per_flow_counters_updated(self):
        app = TelemetryMonitor(scan_period_s=10.0)  # no sweeps during test
        env, pfe, (src,), sink = build(app)

        def traffic():
            for __ in range(5):
                yield src.send_udp(sink.mac, sink.ip, 1000, 80, b"x" * 100)
            for __ in range(3):
                yield src.send_udp(sink.mac, sink.ip, 2000, 80, b"y" * 50)

        env.process(traffic())
        env.run(until=1e-3)
        assert app.flows_tracked == 2
        flow1 = pfe.hash_table.get_nowait(
            (int(src.ip), int(sink.ip), 1000, 80)
        )
        packets, __ = flow1.value.counter.read()
        assert packets == 5

    def test_heavy_hitter_reported(self):
        app = TelemetryMonitor(heavy_hitter_pps=1e5, scan_threads=2,
                               scan_period_s=100e-6)
        env, pfe, (src,), sink = build(app)

        def traffic():
            for __ in range(200):
                yield src.send_udp(sink.mac, sink.ip, 1000, 80, b"x" * 200)

        env.process(traffic())
        env.run(until=2e-3)
        assert app.reports
        assert all(r.flow[2] == 1000 for r in app.reports)
        assert all(r.packets_per_s >= 1e5 for r in app.reports)

    def test_idle_flows_retired_and_memory_freed(self):
        app = TelemetryMonitor(scan_threads=2, scan_period_s=100e-6)
        env, pfe, (src,), sink = build(app)
        before = pfe.memory.sram.allocated_bytes

        def traffic():
            yield src.send_udp(sink.mac, sink.ip, 1234, 80, b"once")

        env.process(traffic())
        env.run(until=5e-3)  # many idle sweeps later
        assert app.flows_retired == 1
        assert pfe.hash_table.get_nowait(
            (int(src.ip), int(sink.ip), 1234, 80)
        ) is None
        assert pfe.memory.sram.allocated_bytes == before

    def test_active_flows_survive_sweeps(self):
        app = TelemetryMonitor(scan_threads=2, scan_period_s=100e-6)
        env, pfe, (src,), sink = build(app)

        def traffic():
            for __ in range(40):
                yield src.send_udp(sink.mac, sink.ip, 7, 80, b"x")
                yield env.timeout(50e-6)  # keeps REF freshly set

        env.process(traffic())
        # Stop while traffic is still flowing (last packet ~1.95 ms).
        env.run(until=1.8e-3)
        assert app.flows_retired == 0
        assert pfe.hash_table.get_nowait(
            (int(src.ip), int(sink.ip), 7, 80)
        ) is not None
        # Once the flow goes idle, it is retired.
        env.run(until=4e-3)
        assert app.flows_retired == 1

    def test_traffic_still_forwarded(self):
        app = TelemetryMonitor(scan_period_s=10.0)
        env, pfe, (src,), sink = build(app)

        def traffic():
            yield src.send_udp(sink.mac, sink.ip, 1, 80, b"through")

        def recv():
            packet = yield sink.recv()
            return packet.parse_udp()[3]

        env.process(traffic())
        p = env.process(recv())
        assert env.run(until=p) == b"through"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TelemetryMonitor(scan_threads=0)
        with pytest.raises(ValueError):
            TelemetryMonitor(scan_period_s=0)


class TestDDoSMitigator:
    def make_app(self, **kwargs):
        defaults = dict(
            allowed_pps=1e5,
            packet_size_hint=100,
            burst_packets=10,
            strike_threshold=2,
            review_threads=2,
            review_period_s=100e-6,
        )
        defaults.update(kwargs)
        return DDoSMitigator(**defaults)

    def flood(self, env, src, sink, count, gap_s=0.0):
        def traffic():
            for __ in range(count):
                yield src.send_udp(sink.mac, sink.ip, 1, 80, b"x" * 72)
                if gap_s:
                    yield env.timeout(gap_s)

        return env.process(traffic())

    def test_flooder_gets_blocked(self):
        app = self.make_app()
        env, pfe, (attacker,), sink = build(app)
        # ~1e6 pps for 3 ms: sustained over many review intervals.
        self.flood(env, attacker, sink, 3000, gap_s=1e-6)
        env.run(until=2e-3)  # mid-attack
        assert app.blocked_sources == [int(attacker.ip)]
        assert app.packets_blocked > 0
        blocked_packets, __ = app.blocked_counter.read()
        assert blocked_packets == app.packets_blocked

    def test_wellbehaved_source_not_blocked(self):
        app = self.make_app()
        env, pfe, (src,), sink = build(app)
        # ~2e4 pps: far below the 1e5 pps budget.
        self.flood(env, src, sink, 50, gap_s=50e-6)
        env.run(until=5e-3)
        assert app.blocked_sources == []
        assert app.packets_blocked == 0

    def test_attacker_blocked_victim_unharmed(self):
        app = self.make_app()
        env, pfe, (attacker, legit), sink = build(app, num_senders=2)
        self.flood(env, attacker, sink, 3000, gap_s=1e-6)
        received = []

        def legit_traffic():
            for __ in range(20):
                yield env.timeout(250e-6)
                yield legit.send_udp(sink.mac, sink.ip, 5, 80, b"legit")

        def count_rx():
            while True:
                packet = yield sink.recv()
                __, ip, __, payload = packet.parse_udp()
                if payload == b"legit":
                    received.append(ip.src)

        env.process(legit_traffic())
        env.process(count_rx())
        env.run(until=8e-3)
        assert any(event.action == "block"
                   and event.source_ip == int(attacker.ip)
                   for event in app.events)
        assert len(received) == 20  # all legitimate packets delivered

    def test_quiet_attacker_rehabilitated(self):
        app = self.make_app()
        env, pfe, (attacker,), sink = build(app)
        self.flood(env, attacker, sink, 3000, gap_s=1e-6)
        env.run(until=2e-3)
        assert app.blocked_sources  # blocked during the flood
        # Attack stops at ~3 ms; several quiet review intervals pass.
        env.run(until=10e-3)
        assert app.blocked_sources == []
        actions = [event.action for event in app.events]
        assert actions.count("block") >= 1
        assert actions.count("unblock") >= 1

    def test_strike_threshold_respected(self):
        app = self.make_app(strike_threshold=50)  # effectively never
        env, pfe, (attacker,), sink = build(app)
        self.flood(env, attacker, sink, 1000)
        env.run(until=3e-3)
        # Policer drops the excess but the source is never blocklisted.
        assert app.blocked_sources == []
        assert app.packets_blocked == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DDoSMitigator(strike_threshold=0)
