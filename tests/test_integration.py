"""System-level integration tests across packages.

These exercise the claims the paper makes about the *architecture* as a
whole, using multiple subsystems together.
"""

from repro.nf import TelemetryMonitor
from repro.harness import build_single_pfe_testbed
from repro.ml import GradientQuantizer
from repro.net import Host, IPv4Address, MACAddress, Topology
from repro.sim import Environment
from repro.trio import PFE, TrioApplication
from repro.trio.chipset import GENERATIONS
from repro.trioml import TrioMLJobConfig

import numpy as np


class TestFungibleCycles:
    """§2.2: 'processing cycles are fungible between applications,
    enabling graceful handling of the packet processing requirements of
    different applications' — rich and simple traffic coexist, with
    per-flow ordering but no cross-flow head-of-line blocking."""

    def test_simple_traffic_not_blocked_behind_rich_processing(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=3)
        topo = Topology(env)
        rich_src = Host(env, "rich", MACAddress(1), IPv4Address("10.0.0.1"))
        fast_src = Host(env, "fast", MACAddress(2), IPv4Address("10.0.0.2"))
        sink = Host(env, "sink", MACAddress(3), IPv4Address("10.0.0.3"))
        for i, host in enumerate((rich_src, fast_src, sink)):
            topo.connect(host.nic.port, pfe.port(i))
        pfe.add_route(sink.ip, "pfe1.p2")

        class MixedApp(TrioApplication):
            def handle_packet(self, tctx, pctx):
                __, ip, udp, __ = pctx.packet.parse_udp()
                if udp.dst_port == 9999:          # rich processing
                    yield from tctx.execute(100_000)
                else:                             # simple forwarding
                    yield from tctx.execute(10)
                pctx.forward()

        pfe.install_app(MixedApp())
        arrivals = {"rich": [], "fast": []}

        def traffic(src, port, n):
            for __ in range(n):
                yield src.send_udp(sink.mac, sink.ip, 1, port, b"x" * 100)

        def rx():
            while True:
                packet = yield sink.recv()
                __, __, udp, __ = packet.parse_udp()
                kind = "rich" if udp.dst_port == 9999 else "fast"
                arrivals[kind].append(env.now)

        env.process(traffic(rich_src, 9999, 5))
        env.process(traffic(fast_src, 80, 50))
        env.process(rx())
        env.run(until=50e-3)
        assert len(arrivals["fast"]) == 50
        assert len(arrivals["rich"]) == 5
        # All the simple packets finished before the rich flow did:
        # different flows never head-of-line block each other.
        assert max(arrivals["fast"]) < max(arrivals["rich"])

    def test_rich_flow_itself_stays_ordered(self):
        env = Environment()
        config = GENERATIONS[5].scaled(num_ppes=4, threads_per_ppe=4)
        pfe = PFE(env, "pfe1", config=config, num_ports=2)
        topo = Topology(env)
        src = Host(env, "src", MACAddress(1), IPv4Address("10.0.0.1"))
        sink = Host(env, "sink", MACAddress(2), IPv4Address("10.0.0.2"))
        topo.connect(src.nic.port, pfe.port(0))
        topo.connect(sink.nic.port, pfe.port(1))
        pfe.add_route(sink.ip, "pfe1.p1")

        class JitteryApp(TrioApplication):
            def __init__(self):
                self.n = 0

            def handle_packet(self, tctx, pctx):
                self.n += 1
                # Alternate slow/fast so later packets finish first.
                yield from tctx.execute(5000 if self.n % 2 else 10)
                pctx.forward()

        pfe.install_app(JitteryApp())
        order = []

        def traffic():
            for i in range(8):
                yield src.send_udp(sink.mac, sink.ip, 7, 7, bytes([i]) * 4)

        def rx():
            for __ in range(8):
                packet = yield sink.recv()
                order.append(packet.parse_udp()[3][0])

        env.process(traffic())
        p = env.process(rx())
        env.run(until=p)
        assert order == list(range(8))  # Reorder Engine held the line


class TestAggregationWithBackgroundTraffic:
    def test_aggregation_and_forwarding_coexist(self):
        """Trio-ML aggregates while ordinary traffic flows through the
        same PFE (shared clusters, §4's motivation)."""
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=128, window=4)
        testbed = build_single_pfe_testbed(env, config, num_workers=4)
        pfe = testbed.pfe
        w0, w1 = testbed.workers[0], testbed.workers[1]
        pfe.add_route(w1.ip, pfe.port(1).name)
        egress_port = pfe.port(1)
        baseline_tx = egress_port.tx_packets

        def background():
            for __ in range(30):
                yield w0.send_udp(w1.mac, w1.ip, 5000, 8080, b"bg" * 30)
                yield env.timeout(2e-6)

        env.process(background())
        grads = [[w + 1] * 512 for w in range(4)]
        procs = testbed.run_allreduce(grads)
        env.run(until=env.all_of(procs))
        env.run(until=env.now + 1e-3)
        # All 30 background packets were forwarded out of w1's port (on
        # top of the multicast Result packets) while aggregation ran.
        background_forwarded = egress_port.tx_packets - baseline_tx
        results_expected = 4  # 4 blocks multicast to this port
        assert background_forwarded == 30 + results_expected
        assert pfe.packets_forwarded >= 30
        flat = [v for b in procs[0].value for v in b.values][:512]
        assert flat == [10] * 512

    def test_telemetry_on_second_pfe_observes_aggregation_flows(self):
        """Two applications on two PFEs of one chassis: aggregation on
        PFE1, telemetry on PFE2 watching forwarded traffic."""
        env = Environment()
        from repro.trio import TrioRouter
        router = TrioRouter(env, num_pfes=2, ports_per_pfe=2)
        monitor = router.pfe("pfe2").install_app(
            TelemetryMonitor(scan_period_s=10.0)
        )
        topo = Topology(env)
        src = Host(env, "src", MACAddress(1), IPv4Address("10.1.0.1"))
        dst = Host(env, "dst", MACAddress(2), IPv4Address("10.1.0.2"))
        topo.connect(src.nic.port, router.pfe("pfe2").port(0))
        topo.connect(dst.nic.port, router.pfe("pfe2").port(1))
        router.add_route(dst.ip, "pfe2", "pfe2.p1")

        def traffic():
            for __ in range(10):
                yield src.send_udp(dst.mac, dst.ip, 1111, 2222, b"x" * 64)

        env.process(traffic())
        env.run(until=1e-3)
        assert monitor.flows_tracked == 1
        record = router.pfe("pfe2").hash_table.get_nowait(
            (int(src.ip), int(dst.ip), 1111, 2222)
        )
        assert record.value.counter.read()[0] == 10


class TestFloatTrainingPath:
    def test_quantized_allreduce_recovers_float_mean(self):
        """End-to-end numeric path: float gradients -> ATP quantisation ->
        packet-level aggregation -> dequantised mean."""
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=256, window=8)
        testbed = build_single_pfe_testbed(env, config, num_workers=4)
        rng = np.random.default_rng(3)
        floats = [rng.normal(scale=0.05, size=1000) for __ in range(4)]
        quantizer = GradientQuantizer(scale=1e6, num_workers=4)
        vectors = [quantizer.quantize(g) for g in floats]
        procs = testbed.run_allreduce(vectors)
        env.run(until=env.all_of(procs))
        ticks = [v for b in procs[2].value for v in b.values][:1000]
        mean = np.asarray(quantizer.dequantize_mean(ticks, 4))
        exact = np.mean(floats, axis=0)
        assert float(np.max(np.abs(mean - exact))) < 1e-6
