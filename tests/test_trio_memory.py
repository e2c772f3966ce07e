"""Unit tests for the Shared Memory System, RMW engines, and chipset table."""

import random
from collections import OrderedDict

import numpy as np
import pytest

from repro.sim import Environment
from repro.trio import GENERATIONS, SharedMemorySystem, MemoryError_
from repro.trio.chipset import TrioChipsetConfig
from repro.trio.memory import _DramCache
from repro.trio.rmw import RMWOpKind
from repro.trioml.protocol import TrioMLHeader, decode_trio_ml, encode_trio_ml


@pytest.fixture
def mem():
    env = Environment()
    memory = SharedMemorySystem(env, GENERATIONS[5])
    return env, memory


def run_op(env, generator):
    proc = env.process(generator)
    return env.run(until=proc)


class TestChipsetTable:
    def test_six_generations(self):
        assert sorted(GENERATIONS) == [1, 2, 3, 4, 5, 6]

    def test_gen1_and_gen6_paper_values(self):
        assert GENERATIONS[1].pfe_bandwidth_bps == 40e9
        assert GENERATIONS[1].num_ppes == 16
        assert GENERATIONS[6].pfe_bandwidth_bps == 1.6e12
        assert GENERATIONS[6].num_ppes == 160

    def test_gen5_rmw_rate_is_6_gops(self):
        # §6.3: 12 engines, 2 cycles/add, 1 GHz -> 6 G adds/s.
        assert GENERATIONS[5].rmw_add32_rate_ops_s == pytest.approx(6e9)

    def test_thread_latency_consistency(self):
        config = GENERATIONS[5]
        assert config.single_thread_instr_s == pytest.approx(
            config.pipeline_depth_cycles / config.clock_hz
        )
        assert config.total_threads == config.num_ppes * config.threads_per_ppe

    def test_scaled_override(self):
        config = GENERATIONS[5].scaled(num_rmw_engines=24)
        assert config.num_rmw_engines == 24
        assert config.generation == 5  # other fields untouched


class TestRegionsAndAllocator:
    def test_alloc_in_each_region(self, mem):
        __, memory = mem
        sram_addr = memory.alloc(64, region="sram")
        dram_addr = memory.alloc(64, region="dram")
        assert memory.region_of(sram_addr) is memory.sram
        assert memory.region_of(dram_addr) is memory.dram

    def test_unknown_region_rejected(self, mem):
        __, memory = mem
        with pytest.raises(MemoryError_):
            memory.alloc(8, region="flash")

    def test_alignment(self, mem):
        __, memory = mem
        addr = memory.alloc(10, region="sram", align=64)
        assert addr % 64 == 0

    def test_free_then_realloc_reuses_space(self, mem):
        __, memory = mem
        a = memory.alloc(128, region="sram")
        memory.free(a, 128)
        b = memory.alloc(128, region="sram")
        assert b == a

    def test_region_exhaustion(self):
        env = Environment()
        small = GENERATIONS[5].scaled(sram_bytes=1024)
        memory = SharedMemorySystem(env, small)
        memory.alloc(1024, region="sram", align=1)
        with pytest.raises(MemoryError_):
            memory.alloc(8, region="sram")

    def test_out_of_range_access_rejected(self, mem):
        __, memory = mem
        with pytest.raises(MemoryError_):
            memory.read_raw(0xDEAD_BEEF_000, 8)

    def test_raw_roundtrip_across_pages(self, mem):
        __, memory = mem
        addr = memory.alloc(8192, region="dram")
        data = bytes(range(256)) * 32
        memory.write_raw(addr, data)
        assert memory.read_raw(addr, len(data)) == data

    def test_untouched_memory_reads_zero(self, mem):
        __, memory = mem
        addr = memory.alloc(64, region="dram")
        assert memory.read_raw(addr, 64) == bytes(64)


class TestXTXNs:
    def test_read_write_roundtrip_with_latency(self, mem):
        env, memory = mem
        addr = memory.alloc(8, region="sram")

        def proc():
            yield from memory.write(addr, b"ABCDEFGH")
            data = yield from memory.read(addr, 8)
            return data, env.now

        data, now = run_op(env, proc())
        assert data == b"ABCDEFGH"
        # Two SRAM XTXNs: at least 2 x 70 ns.
        assert now >= 2 * GENERATIONS[5].sram_latency_s

    def test_dram_slower_than_sram(self, mem):
        env, memory = mem
        sram = memory.alloc(8, region="sram")
        dram = memory.alloc(8, region="dram")

        def timed_read(addr):
            start = env.now
            yield from memory.read(addr, 8)
            return env.now - start

        t_sram = run_op(env, timed_read(sram))
        # Fresh env time offset fine; reuse same env.
        t_dram = run_op(env, timed_read(dram))
        assert t_dram > t_sram

    @pytest.mark.parametrize("capacity_lines", [3, 8, 64])
    def test_dram_cache_keeps_per_line_lru(self, capacity_lines):
        """Hits, misses and LRU order match a per-line walk, for caches
        smaller than, equal to and larger than one access span."""
        cache = _DramCache(capacity_lines * 64)
        lines: "OrderedDict[int, None]" = OrderedDict()
        hits = misses = 0
        rng = random.Random(capacity_lines)
        spans = [(0, 512), (512, 512), (64, 8), (1024, 256), (576, 64)]
        for __ in range(400):
            addr, size = rng.choice(spans)
            if rng.random() < 0.3:
                addr, size = rng.randrange(0, 2048, 8), 8
            all_hit = True
            for line in range(addr // 64, (addr + size - 1) // 64 + 1):
                if line in lines:
                    lines.move_to_end(line)
                    hits += 1
                else:
                    all_hit = False
                    misses += 1
                    lines[line] = None
                    if len(lines) > capacity_lines:
                        lines.popitem(last=False)
            assert cache.access(addr, size) == all_hit
            assert (cache.hits, cache.misses) == (hits, misses)
            assert list(cache._lines) == list(lines)

    def test_dram_cache_hit_is_faster(self, mem):
        env, memory = mem
        addr = memory.alloc(8, region="dram")

        def timed_read():
            start = env.now
            yield from memory.read(addr, 8)
            return env.now - start

        t_miss = run_op(env, timed_read())
        t_hit = run_op(env, timed_read())
        assert t_hit < t_miss
        assert memory.dram_cache_hits >= 1
        assert memory.dram_cache_misses >= 1

    def test_xtxn_size_limits(self, mem):
        env, memory = mem
        addr = memory.alloc(128, region="sram")

        def too_big():
            yield from memory.read(addr, 65)

        with pytest.raises(MemoryError_):
            run_op(env, too_big())

    def test_add32_returns_old_value_and_wraps(self, mem):
        env, memory = mem
        addr = memory.alloc(4, region="sram", align=4)

        def proc():
            old1 = yield from memory.add32(addr, 10)
            old2 = yield from memory.add32(addr, 0xFFFFFFFF)  # -1 mod 2^32
            final = yield from memory.read(addr, 4)
            return old1, old2, int.from_bytes(final, "little")

        old1, old2, final = run_op(env, proc())
        assert (old1, old2) == (0, 10)
        assert final == 9  # 10 - 1

    def test_fetch_and_ops(self, mem):
        env, memory = mem
        addr = memory.alloc(8, region="sram")

        def proc():
            yield from memory.write(addr, (0b1100).to_bytes(8, "little"))
            old = yield from memory.fetch_and_op(
                RMWOpKind.FETCH_AND_OR, addr, 0b0011
            )
            after_or = yield from memory.read(addr, 8)
            yield from memory.fetch_and_op(
                RMWOpKind.FETCH_AND_AND, addr, 0b1010
            )
            after_and = yield from memory.read(addr, 8)
            yield from memory.fetch_and_op(
                RMWOpKind.FETCH_AND_XOR, addr, 0b1111
            )
            after_xor = yield from memory.read(addr, 8)
            yield from memory.fetch_and_op(
                RMWOpKind.FETCH_AND_CLEAR, addr, 0b0100
            )
            after_clear = yield from memory.read(addr, 8)
            swapped_old = yield from memory.fetch_and_op(
                RMWOpKind.FETCH_AND_SWAP, addr, 0xFF
            )
            final = yield from memory.read(addr, 8)
            return (old, after_or, after_and, after_xor, after_clear,
                    swapped_old, final)

        (old, after_or, after_and, after_xor, after_clear, swapped_old,
         final) = run_op(env, proc())
        to_int = lambda b: int.from_bytes(b, "little")
        assert old == 0b1100
        assert to_int(after_or) == 0b1111
        assert to_int(after_and) == 0b1010
        assert to_int(after_xor) == 0b0101
        assert to_int(after_clear) == 0b0001
        assert swapped_old == 0b0001
        assert to_int(final) == 0xFF

    def test_masked_write(self, mem):
        env, memory = mem
        addr = memory.alloc(8, region="sram")

        def proc():
            yield from memory.write(addr, (0xAABBCCDD).to_bytes(8, "little"))
            yield from memory.masked_write(
                addr, operand=0x1122, mask=0xFFFF
            )
            data = yield from memory.read(addr, 8)
            return int.from_bytes(data, "little")

        assert run_op(env, proc()) == 0xAABB1122

    def test_counter_inc_semantics(self, mem):
        env, memory = mem
        addr = memory.alloc(16, region="sram", align=16)

        def proc():
            yield from memory.counter_inc(addr, 1500)
            yield from memory.counter_inc(addr, 64)

        run_op(env, proc())
        raw = memory.read_raw(addr, 16)
        assert int.from_bytes(raw[0:8], "little") == 2       # packets
        assert int.from_bytes(raw[8:16], "little") == 1564   # bytes


class TestRMWEngines:
    def test_same_address_serialises(self, mem):
        env, memory = mem
        addr = memory.alloc(4, region="sram", align=4)

        def adder():
            yield from memory.add32(addr, 1)

        procs = [env.process(adder()) for __ in range(50)]
        env.run(until=env.all_of(procs))
        value = int.from_bytes(memory.read_raw(addr, 4), "little")
        assert value == 50  # no lost updates

    def test_engine_mapping_spreads_addresses(self, mem):
        __, memory = mem
        rmw = memory.rmw
        engines = {rmw.engine_for(64 * i) for i in range(rmw.num_engines)}
        assert len(engines) == rmw.num_engines

    def test_bulk_add32_sums_vectors(self, mem):
        env, memory = mem
        addr = memory.alloc(64, region="dram")

        def proc():
            yield from memory.bulk_add32(addr, [1, 2, 3, -4])
            yield from memory.bulk_add32(addr, [10, 20, 30, -40])

        run_op(env, proc())
        raw = memory.read_raw(addr, 16)
        values = [int.from_bytes(raw[4 * i:4 * i + 4], "little")
                  for i in range(4)]
        assert values[:3] == [11, 22, 33]
        assert values[3] == (-44) & 0xFFFFFFFF

    def test_bulk_add32_int32_array_wraps_like_a_list(self, mem):
        env, memory = mem
        start = np.array([0x7FFFFFFF, -1, -2**31], dtype="<i4").tobytes()
        addends = [1, 1, -1]
        header = TrioMLHeader(job_id=1, block_id=0, src_id=0, grad_cnt=3)
        __, decoded = decode_trio_ml(encode_trio_ml(header, addends))
        results = []
        for values in (addends, np.array(addends, dtype="<i4"), decoded):
            addr = memory.alloc(64, region="dram")
            memory.write_raw(addr, start)
            run_op(env, memory.bulk_add32(addr, values))
            results.append(memory.read_raw(addr, 12))
        assert results[1] == results[0] and results[2] == results[0]
        assert np.frombuffer(results[0], dtype="<i4").tolist() == [
            -2**31, 0, 2**31 - 1]

    def test_bulk_add32_rate_matches_paper(self, mem):
        env, memory = mem
        addr = memory.alloc(4096, region="dram")
        n_ops = 6000

        def proc():
            start = env.now
            yield from memory.bulk_add32(addr, [1] * 1024)
            # Exclude the access latency: measure the service component by
            # issuing a large batch and comparing against the rate.
            return env.now - start

        elapsed = run_op(env, proc())
        service = 1024 * 2 / (12 * 1e9)
        assert elapsed == pytest.approx(
            service + memory.config.dram_latency_s, rel=0.01
        )

    def test_bulk_server_backpressure(self, mem):
        env, memory = mem
        addr1 = memory.alloc(4096, region="sram")
        addr2 = memory.alloc(4096, region="sram")

        def bulk(addr):
            yield from memory.bulk_add32(addr, [1] * 1024)

        start = env.now
        procs = [env.process(bulk(addr1)), env.process(bulk(addr2))]
        env.run(until=env.all_of(procs))
        service = 1024 * 2 / (12 * 1e9)
        # Two bulk jobs serialise on the engine complex.
        assert env.now - start >= 2 * service

    def test_stats_accumulate(self, mem):
        env, memory = mem
        addr = memory.alloc(8, region="sram")

        def proc():
            yield from memory.add32(addr, 1)
            yield from memory.bulk_add32(addr, [1, 2])

        run_op(env, proc())
        assert memory.rmw.total_ops >= 3
