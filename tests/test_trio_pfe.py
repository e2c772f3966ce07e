"""Unit tests for the PFE: dispatch, threads, reorder, counters, timers."""

import pytest

from repro.net import Host, IPv4Address, MACAddress, Packet, Topology
from repro.sim import Environment, SimulationError
from repro.trio import (
    PFE,
    PacketByteCounter,
    Policer,
    ReorderEngine,
    TrioApplication,
)
from repro.trio.chipset import GENERATIONS
from repro.trio.ppe import PacketContext
from repro.trio.rmw import RMWOpKind


def wire(env, pfe, n=2):
    """Attach n hosts to the PFE's first n ports; returns the hosts."""
    topo = Topology(env)
    hosts = []
    for i in range(n):
        host = Host(env, f"h{i}", MACAddress(i + 1),
                    IPv4Address(f"10.0.0.{i + 1}"))
        topo.connect(host.nic.port, pfe.port(i))
        pfe.add_route(host.ip, pfe.port(i).name)
        hosts.append(host)
    return hosts


class TestForwarding:
    def test_plain_ip_forwarding(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=2)
        h0, h1 = wire(env, pfe)

        def send():
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"data")

        def recv():
            packet = yield h1.recv()
            return packet

        env.process(send())
        p = env.process(recv())
        packet = env.run(until=p)
        assert packet.parse_udp()[3] == b"data"
        assert pfe.packets_forwarded == 1

    def test_unrouted_packet_dropped(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=2)
        h0, __ = wire(env, pfe)

        def send():
            yield h0.send_udp(MACAddress(9), IPv4Address("99.9.9.9"),
                              1, 2, b"nowhere")

        env.process(send())
        env.run(until=1e-3)
        assert pfe.packets_dropped == 1

    def test_local_multicast_replication(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=3)
        hosts = wire(env, pfe, n=3)
        group = IPv4Address("239.1.2.3")
        for i in (1, 2):
            pfe.multicast.join(group, pfe.port(i).name)

        def send():
            yield hosts[0].send_udp(MACAddress.broadcast(), group,
                                    1, 2, b"multi")

        got = []

        def recv(host):
            packet = yield host.recv()
            got.append(host.name)

        env.process(send())
        procs = [env.process(recv(hosts[i])) for i in (1, 2)]
        env.run(until=env.all_of(procs))
        assert sorted(got) == ["h1", "h2"]

    def test_add_route_validates_port(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        with pytest.raises(ValueError):
            pfe.add_route(IPv4Address("1.1.1.1"), "pfe2.p0")


class TestApplicationHooks:
    def test_app_can_drop(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=2)
        h0, h1 = wire(env, pfe)

        class DropAll(TrioApplication):
            def handle_packet(self, tctx, pctx):
                yield from tctx.execute(1)
                pctx.drop()

        pfe.install_app(DropAll())

        def send():
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"x")

        env.process(send())
        env.run(until=1e-3)
        assert pfe.packets_dropped == 1
        assert pfe.packets_forwarded == 0

    def test_app_can_emit_new_packets(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=2)
        h0, h1 = wire(env, pfe)

        class Mirror(TrioApplication):
            def handle_packet(self, tctx, pctx):
                yield from tctx.execute(1)
                pctx.consume()
                pctx.emit(pctx.packet.copy())

        pfe.install_app(Mirror())

        def send():
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"emitme")

        def recv():
            packet = yield h1.recv()
            return packet.parse_udp()[3]

        env.process(send())
        p = env.process(recv())
        assert env.run(until=p) == b"emitme"
        assert pfe.packets_consumed == 1

    def test_on_install_called(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)

        class App(TrioApplication):
            installed_on = None

            def on_install(self, pfe):
                App.installed_on = pfe

        pfe.install_app(App())
        assert App.installed_on is pfe


class TestThreadModel:
    def test_thread_slots_bound_concurrency(self):
        env = Environment()
        config = GENERATIONS[5].scaled(num_ppes=2, threads_per_ppe=2)
        pfe = PFE(env, "pfe1", config=config, num_ports=1)
        peak = {"value": 0}

        class Slow(TrioApplication):
            def handle_packet(self, tctx, pctx):
                peak["value"] = max(peak["value"], pfe.threads_in_use)
                yield from tctx.execute(10_000)
                pctx.drop()

        pfe.install_app(Slow())
        for __ in range(16):
            pfe.accept(Packet(bytes(64), flow_key=object()))
        env.run()
        assert peak["value"] <= config.total_threads

    def test_packets_wait_fifo_for_a_slot(self):
        """With every slot busy, packets queue in the PFE and start, in
        arrival order, the instant a slot frees; a packet that finds a
        slot free starts in its arriving instant."""
        env = Environment()
        config = GENERATIONS[5].scaled(num_ppes=1, threads_per_ppe=2)
        pfe = PFE(env, "pfe1", config=config, num_ports=1)
        started = []

        class Slow(TrioApplication):
            def handle_packet(self, tctx, pctx):
                started.append((pctx.packet.meta["n"], env.now))
                yield from tctx.execute(1000)
                pctx.drop()

        pfe.install_app(Slow())
        for n in range(5):
            pfe.accept(Packet(bytes(64), flow_key=n, meta={"n": n}))
        env.run()
        late = Packet(bytes(64), flow_key="late", meta={"n": 5})
        env.call_at(1.0, pfe.accept, late)
        env.run()
        busy = 100e-9 + 1000 * config.single_thread_instr_s
        assert [n for n, __ in started] == [0, 1, 2, 3, 4, 5]
        assert [t for __, t in started] == [
            0.0, 0.0, busy, busy, busy + busy, 1.0]
        assert pfe.threads_in_use == 0

    def test_dispatch_round_robins_ppes(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        for i in range(10):
            pfe.accept(Packet(bytes(64), flow_key=i))
        env.run()
        spawned = [ppe.threads_spawned for ppe in pfe.ppes[:10]]
        assert spawned == [1] * 10

    def test_lmem_loaded_with_packet_head(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        seen = {}

        class Inspect(TrioApplication):
            def handle_packet(self, tctx, pctx):
                yield from tctx.execute(1)
                seen["lmem"] = bytes(tctx.lmem[:8])
                pctx.drop()

        pfe.install_app(Inspect())
        pfe.accept(Packet(b"\xAA" * 64, flow_key="f"))
        env.run()
        assert seen["lmem"] == b"\xAA" * 8

    def test_internal_thread_spawning(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        log = []

        def work(tctx):
            yield from tctx.execute(5)
            log.append(tctx.ppe.index)

        proc = pfe.spawn_internal_thread(work)
        env.run(until=proc)
        assert len(log) == 1

    def test_read_tail_moves_bytes_to_lmem(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        seen = {}

        class TailReader(TrioApplication):
            def handle_packet(self, tctx, pctx):
                chunk = yield from tctx.read_tail(0, 16)
                seen["chunk"] = chunk
                seen["lmem"] = bytes(tctx.lmem[:16])
                pctx.drop()

        pfe.install_app(TailReader())
        head = bytes(192)
        tail = bytes(range(64))
        pfe.accept(Packet(head + tail, flow_key="f"))
        env.run()
        assert seen["chunk"] == tail[:16]
        assert seen["lmem"] == tail[:16]


#: Every ThreadContext XTXN, as (thread call, the same access issued
#: straight to the memory system or hash block with a pre-delay).  Args:
#: the thread context or the PFE, SRAM and DRAM addresses, pre-delay.
_THREAD_XTXNS = {
    "mem_read": (
        lambda t, s, d: t.mem_read(s, 8),
        lambda p, s, d, pre: p.memory.read(s, 8, pre)),
    "mem_write": (
        lambda t, s, d: t.mem_write(s, bytes(8)),
        lambda p, s, d, pre: p.memory.write(s, bytes(8), pre)),
    "mem_add32": (
        lambda t, s, d: t.mem_add32(s, 1),
        lambda p, s, d, pre: p.memory.add32(s, 1, pre)),
    "mem_fetch_and_op": (
        lambda t, s, d: t.mem_fetch_and_op(RMWOpKind.FETCH_AND_OR, s, 1),
        lambda p, s, d, pre: p.memory.fetch_and_op(
            RMWOpKind.FETCH_AND_OR, s, 1, 8, pre)),
    "counter_inc": (
        lambda t, s, d: t.counter_inc(s, 64),
        lambda p, s, d, pre: p.memory.counter_inc(s, 64, pre)),
    "mem_bulk_add32": (
        lambda t, s, d: t.mem_bulk_add32(d, [1] * 16),
        lambda p, s, d, pre: p.memory.bulk_add32(d, [1] * 16, pre)),
    "mem_bulk_read": (
        lambda t, s, d: t.mem_bulk_read(d, 64),
        lambda p, s, d, pre: p.memory.bulk_read(d, 64, pre)),
    "mem_bulk_write": (
        lambda t, s, d: t.mem_bulk_write(d, bytes(64)),
        lambda p, s, d, pre: p.memory.bulk_write(d, bytes(64), pre)),
    "hash_lookup": (
        lambda t, s, d: t.hash_lookup("k"),
        lambda p, s, d, pre: p.hash_table.lookup("k", pre)),
    "hash_insert_if_absent": (
        lambda t, s, d: t.hash_insert_if_absent("k", 1),
        lambda p, s, d, pre: p.hash_table.insert_if_absent("k", 1, pre)),
    "hash_delete": (
        lambda t, s, d: t.hash_delete("k"),
        lambda p, s, d, pre: p.hash_table.delete("k", pre)),
}


class TestThreadClock:
    """Folded pure waits (tail reads, ``advance``) move the thread clock
    instead of sleeping; whatever the thread does next must finish at
    the instant that sleeping each wait eagerly reaches, bit for bit."""

    @staticmethod
    def _pfe():
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        sram = pfe.memory.alloc(64, region="sram")
        dram = pfe.memory.alloc(64, region="dram")
        return env, pfe, sram, dram

    @pytest.mark.parametrize("name", sorted(_THREAD_XTXNS) + ["flush"])
    def test_xtxn_after_folded_waits_matches_eager_sleeps(self, name):
        instr = GENERATIONS[5].single_thread_instr_s
        tail = GENERATIONS[5].tail_read_latency_s
        seen = {}

        env, pfe, sram, dram = self._pfe()

        def threaded(tctx):
            yield env.delay(0.1)
            tctx.packet_ctx = PacketContext(
                Packet(bytes(256)), bytearray(192), bytes(64))
            yield from tctx.execute(7)
            yield from tctx.read_tail(0, 16)
            yield from tctx.execute(3)
            yield from tctx.read_tail_chunks(2)
            tctx.advance(1e-7)
            yield from tctx.execute(5)
            seen["thread_now"] = tctx.now
            if name != "flush":
                yield from _THREAD_XTXNS[name][0](tctx, sram, dram)
            yield from tctx.flush()
            tctx.packet_ctx = None
            seen["thread_done"] = env.now

        env.run(until=pfe.spawn_internal_thread(threaded))

        env, pfe, sram, dram = self._pfe()

        def eager():
            yield env.delay(0.1)
            yield env.delay(7 * instr + tail)
            yield env.delay(3 * instr + 2 * tail)
            yield env.delay(0.0 + 1e-7)
            seen["eager_now"] = env.now + 5 * instr
            if name == "flush":
                yield env.delay(5 * instr)
            else:
                yield from _THREAD_XTXNS[name][1](pfe, sram, dram, 5 * instr)
            seen["eager_done"] = env.now

        env.run(until=env.process(eager()))
        assert seen["thread_now"] == seen["eager_now"]
        assert seen["thread_done"] == seen["eager_done"]

    def test_stale_clock_cannot_move_time_backwards(self):
        """A thread that folds a wait and then sleeps past its clock
        outside the thread context has a stale clock: its next XTXN
        would start in the past, and the kernel refuses it."""
        env, pfe, sram, __ = self._pfe()

        def stale(tctx):
            tctx.advance(1e-6)
            yield env.delay(1e-3)
            yield from tctx.mem_read(sram, 8)

        proc = pfe.spawn_internal_thread(stale)
        with pytest.raises(SimulationError, match="in the past"):
            env.run(until=proc)


class TestReorderEngine:
    def test_in_order_release_per_flow(self):
        released = []
        engine = ReorderEngine(release=released.append)
        s0 = engine.arrival("flow")
        s1 = engine.arrival("flow")
        s2 = engine.arrival("flow")
        engine.complete("flow", s2, ["c"])
        engine.complete("flow", s0, ["a"])
        assert released == ["a"]
        engine.complete("flow", s1, ["b"])
        assert released == ["a", "b", "c"]

    def test_flows_independent(self):
        released = []
        engine = ReorderEngine(release=released.append)
        a0 = engine.arrival("a")
        b0 = engine.arrival("b")
        engine.complete("b", b0, ["b0"])
        assert released == ["b0"]
        engine.complete("a", a0, ["a0"])
        assert released == ["b0", "a0"]

    def test_duplicate_completion_rejected(self):
        engine = ReorderEngine(release=lambda item: None)
        seq = engine.arrival("f")
        engine.complete("f", seq, ["x"])
        with pytest.raises((KeyError, ValueError)):
            engine.complete("f", seq, ["again"])

    def test_state_cleaned_after_flow_drains(self):
        engine = ReorderEngine(release=lambda item: None)
        seq = engine.arrival("f")
        engine.complete("f", seq, [])
        assert engine.in_flight_flows == 0

    def test_pfe_preserves_flow_order_under_uneven_processing(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=2)
        h0, h1 = wire(env, pfe)

        class UnevenApp(TrioApplication):
            def __init__(self):
                self.count = 0

            def handle_packet(self, tctx, pctx):
                self.count += 1
                # First packet is slow, later ones fast.
                work = 5000 if self.count == 1 else 10
                yield from tctx.execute(work)
                pctx.forward()

        pfe.install_app(UnevenApp())
        order = []

        def send():
            for i in range(4):
                yield h0.send_udp(h1.mac, h1.ip, 1, 2, bytes([i]) * 4)

        def recv():
            for __ in range(4):
                packet = yield h1.recv()
                order.append(packet.parse_udp()[3][0])

        env.process(send())
        p = env.process(recv())
        env.run(until=p)
        assert order == [0, 1, 2, 3]


class TestCountersAndPolicers:
    def test_packet_byte_counter(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        counter = PacketByteCounter(pfe.memory)

        def proc():
            yield from counter.increment(100)
            yield from counter.increment(250)

        env.run(until=env.process(proc()))
        assert counter.read() == (2, 350)

    def test_policer_conforms_within_rate(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        policer = Policer(env, pfe.memory, rate_bps=8e6, burst_bytes=1000)

        def proc():
            ok1 = yield from policer.police(500)
            ok2 = yield from policer.police(500)
            ok3 = yield from policer.police(500)  # bucket empty
            return ok1, ok2, ok3

        p = env.process(proc())
        assert env.run(until=p) == (True, True, False)

    def test_policer_refills_over_time(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        policer = Policer(env, pfe.memory, rate_bps=8e6, burst_bytes=1000)

        def proc():
            yield from policer.police(1000)
            yield env.timeout(0.5)  # refill 500 bytes at 1 MB/s
            ok = yield from policer.police(400)
            return ok

        p = env.process(proc())
        assert env.run(until=p) is True
        assert policer.conformed == 2

    def test_policer_validation(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        with pytest.raises(ValueError):
            Policer(env, pfe.memory, rate_bps=0, burst_bytes=10)
        with pytest.raises(ValueError):
            Policer(env, pfe.memory, rate_bps=1e6, burst_bytes=0)


class TestTimers:
    def test_periodic_firings_with_phase_stagger(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        fired = []

        def callback(tctx, index):
            fired.append((round(env.now * 1e3, 3), index))
            yield from tctx.execute(1)

        pfe.timers.launch_periodic("test", num_threads=2, period_s=0.010,
                                   callback=callback)
        env.run(until=0.021)
        times = [t for t, __ in fired]
        # Thread 0 at ~0,10,20 ms; thread 1 at ~5,15 ms.
        assert len(fired) == 5
        assert any(4.9 <= t <= 5.3 for t in times)

    def test_cancel_stops_firings(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        fired = []

        def callback(tctx, index):
            fired.append(env.now)
            yield from tctx.execute(1)

        group = pfe.timers.launch_periodic("test", 1, 0.001, callback)
        env.run(until=0.0035)
        pfe.timers.cancel(group)
        count = len(fired)
        env.run(until=0.010)
        assert len(fired) <= count + 1  # at most the in-flight firing

    def test_parameter_validation(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        with pytest.raises(ValueError):
            pfe.timers.launch_periodic("bad", 0, 1.0, lambda t, i: iter(()))
        with pytest.raises(ValueError):
            pfe.timers.launch_periodic("bad", 1, 0.0, lambda t, i: iter(()))
