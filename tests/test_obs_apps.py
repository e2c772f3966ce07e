"""§7 applications observed through the metrics registry.

Satellite coverage for repro.obs: install the telemetry and security
apps with observability enabled, drive traffic, and check that the
exported series agree with the counts the apps keep themselves.
"""

import pytest

from repro.nf import DDoSMitigator, TelemetryMonitor
from repro.net import Host, IPv4Address, MACAddress, Topology
from repro.obs import bus
from repro.sim import Environment
from repro.trio import PFE


@pytest.fixture(autouse=True)
def obs_disabled():
    while bus.disable() is not None:
        pass
    yield
    while bus.disable() is not None:
        pass


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


class TestTelemetryObserved:
    def test_exported_series_match_app_counts(self):
        session = bus.enable()
        app = TelemetryMonitor(heavy_hitter_pps=1e5, scan_threads=2,
                               scan_period_s=100e-6)
        env, pfe, (src,), sink = build(app)

        def traffic():
            for __ in range(100):
                yield src.send_udp(sink.mac, sink.ip, 1000, 80, b"x" * 200)

        env.process(traffic())
        env.run(until=2e-3)
        bus.disable()
        session.finalize()

        flows = session.registry.get("apps.telemetry.flows")
        assert flows.value(event="tracked") == app.flows_tracked
        assert flows.value(event="retired") == app.flows_retired
        reports = session.registry.get("apps.telemetry.reports")
        assert reports.value() == len(app.reports)
        # Every heavy-hitter export also probed the live counter:
        exported = session.registry.get("apps.telemetry.reports_exported")
        assert exported.value() == len(app.reports)

    def test_heavy_hitter_instants_on_trace(self):
        session = bus.enable()
        app = TelemetryMonitor(heavy_hitter_pps=1e5, scan_threads=2,
                               scan_period_s=100e-6)
        env, pfe, (src,), sink = build(app)

        def traffic():
            for __ in range(100):
                yield src.send_udp(sink.mac, sink.ip, 1000, 80, b"x" * 200)

        env.process(traffic())
        env.run(until=2e-3)
        bus.disable()
        exported = session.tracer.export()
        marks = [event for event in exported["events"]
                 if event[0] == "i" and event[1] == "apps/telemetry"]
        assert len(marks) == len(app.reports)
        assert all(name == "heavy-hitter" for __, __, name, *__ in marks)

    def test_nothing_exported_when_disabled(self):
        app = TelemetryMonitor(scan_period_s=10.0)
        env, pfe, (src,), sink = build(app)

        def traffic():
            yield src.send_udp(sink.mac, sink.ip, 1000, 80, b"x" * 100)

        env.process(traffic())
        env.run(until=1e-3)
        assert app.flows_tracked == 1  # the app still works, unobserved


class TestSecurityObserved:
    def drive_attack(self):
        session = bus.enable()
        app = DDoSMitigator(
            allowed_pps=1e5, packet_size_hint=100, burst_packets=10,
            strike_threshold=2, review_threads=2, review_period_s=100e-6,
        )
        env, pfe, (attacker,), sink = build(app)

        def flood():
            # ~1e6 pps sustained over many review intervals.
            for __ in range(3000):
                yield attacker.send_udp(sink.mac, sink.ip, 1, 80, b"x" * 72)
                yield env.timeout(1e-6)

        env.process(flood())
        env.run(until=2e-3)
        bus.disable()
        session.finalize()
        return session, app

    def test_exported_series_match_app_counts(self):
        session, app = self.drive_attack()
        assert app.packets_blocked > 0  # the attack actually got blocked
        packets = session.registry.get("apps.security.packets")
        assert packets.value(outcome="blocked") == app.packets_blocked
        assert packets.value(outcome="policed") == app.packets_policed
        gauge = session.registry.get("apps.security.blocked_sources")
        assert gauge.value() == len(app.blocked_sources)

    def test_block_events_counted_and_traced(self):
        session, app = self.drive_attack()
        blocks = [e for e in app.events if e.action == "block"]
        counter = session.registry.get("apps.security.block_events")
        assert counter.value(action="block") == len(blocks)
        exported = session.tracer.export()
        marks = [event for event in exported["events"]
                 if event[0] == "i" and event[1] == "apps/security"]
        assert len(marks) == len(app.events)
