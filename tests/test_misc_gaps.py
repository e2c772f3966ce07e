"""Tests for corners not covered by the per-module suites."""

import pytest

from repro.sim import Environment, PriorityStore, Store
from repro.trio import GENERATIONS, SharedMemorySystem
from repro.trio.memory import MemoryError_, MemoryRegion


class TestStoreBackpressure:
    def test_priority_store_capacity_blocks_putters(self):
        env = Environment()
        store = PriorityStore(env, capacity=1)
        accepted = []

        def producer():
            for value in (3, 1, 2):
                yield store.put(value)
                accepted.append((env.now, value))

        def consumer():
            got = []
            for __ in range(3):
                yield env.timeout(1.0)
                got.append((yield store.get()))
            return got

        env.process(producer())
        p = env.process(consumer())
        got = env.run(until=p)
        # 3 accepted at t=0; 1 and 2 wait for capacity.
        assert [v for __, v in accepted] == [3, 1, 2]
        # Min-heap ordering applies to whatever is resident when popped.
        assert got[0] == 3

    def test_store_put_event_carries_item(self):
        env = Environment()
        store = Store(env, capacity=1)
        event = store.put("a")
        assert event.item == "a"


class TestMemoryRegionEdges:
    def test_free_out_of_range_rejected(self):
        region = MemoryRegion("r", base=0, size=1024, latency_s=1e-9)
        with pytest.raises(MemoryError_):
            region.free(2048, 8)

    def test_alloc_zero_rejected(self):
        region = MemoryRegion("r", base=0, size=1024, latency_s=1e-9)
        with pytest.raises(MemoryError_):
            region.alloc(0)

    def test_negative_read_size_rejected(self):
        region = MemoryRegion("r", base=0, size=1024, latency_s=1e-9)
        with pytest.raises(MemoryError_):
            region.read_raw(0, -1)

    def test_first_fit_skips_too_small_holes(self):
        region = MemoryRegion("r", base=0, size=4096, latency_s=1e-9)
        a = region.alloc(64, align=1)
        b = region.alloc(64, align=1)
        region.free(a, 64)
        # 128 bytes cannot fit the 64-byte hole: bump allocation instead.
        c = region.alloc(128, align=1)
        assert c > b

    def test_allocated_bytes_tracking(self):
        region = MemoryRegion("r", base=0, size=4096, latency_s=1e-9)
        addr = region.alloc(100)
        assert region.allocated_bytes == 100
        region.free(addr, 100)
        assert region.allocated_bytes == 0

    def test_dram_cache_eviction(self):
        env = Environment()
        config = GENERATIONS[5].scaled(dram_cache_bytes=128)  # 2 lines
        memory = SharedMemorySystem(env, config)
        base = memory.alloc(1024, region="dram")
        # Touch three distinct lines: the first is evicted.
        assert memory.access_latency_s(base, 8) == config.dram_latency_s
        memory.access_latency_s(base + 64, 8)
        memory.access_latency_s(base + 128, 8)
        assert memory.access_latency_s(base, 8) == config.dram_latency_s

    def test_dram_cache_hit_after_touch(self):
        env = Environment()
        memory = SharedMemorySystem(env, GENERATIONS[5])
        base = memory.alloc(64, region="dram")
        memory.access_latency_s(base, 8)
        assert (memory.access_latency_s(base, 8)
                == GENERATIONS[5].dram_cache_hit_latency_s)


class TestMicrocodeInterpExtras:
    def test_r_work_time_ns_builtin(self):
        from repro.microcode import MicrocodeExecutor, TrioCompiler
        from repro.net import IPv4Address, MACAddress, Packet
        from repro.trio import PFE
        from repro.trio.ppe import PacketContext, ThreadContext

        program = TrioCompiler().compile("""
        reg t;
        main:
        begin
            t = r_work.time_ns;
            exit;
        end
        """)
        executor = MicrocodeExecutor(program)
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        packet = Packet(bytes(64), flow_key="f")
        pctx = PacketContext(packet=packet, head=bytearray(packet.data),
                             tail=b"")
        tctx = ThreadContext(env=env, ppe=pfe.ppes[0], config=pfe.config,
                             memory=pfe.memory, hash_table=pfe.hash_table,
                             packet_ctx=pctx)
        proc = env.process(executor.run(tctx, pctx))
        env.run(until=proc)
        # One instruction at pipeline depth 20 on a 1 GHz clock -> 20 ns.
        assert tctx.registers[program.reg_map["t"]] == 20

    def test_pointer_arithmetic_retains_byte_semantics(self):
        from repro.microcode.interp import PointerValue
        from repro.microcode.layout import StructLayout

        layout = StructLayout("t", [("a", 16)])
        pointer = PointerValue(10, layout)
        moved = pointer + 4
        assert moved.offset == 14
        assert moved.struct is None  # untyped until re-cast
        assert moved.retyped(layout).struct is layout
