"""Integration tests for Trio-ML aggregation: single level and hierarchical."""

import math

import pytest

from repro.harness import build_hierarchical_testbed, build_single_pfe_testbed
from repro.sim import Environment
from repro.trioml import TrioMLJobConfig
from repro.trioml.aggregator import INSTRUCTIONS_PER_GRADIENT, _tail_loop_cost
from repro.trioml.protocol import TRIO_ML_UDP_PORT, TrioMLHeader, encode_trio_ml


def run_allreduce(testbed, vectors):
    env = testbed.env
    procs = testbed.run_allreduce(vectors)
    env.run(until=env.all_of(procs))
    return procs


def flatten(results, limit):
    return [v for block in results for v in block.values][:limit]


class TestSingleLevel:
    def test_sums_match_across_workers(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=128, window=4)
        testbed = build_single_pfe_testbed(env, config)
        grads = [[(w + 1) * (i + 1) for i in range(500)] for w in range(4)]
        expected = [sum(g[i] for g in grads) for i in range(500)]
        procs = run_allreduce(testbed, grads)
        for proc in procs:
            assert flatten(proc.value, 500) == expected

    def test_all_blocks_complete_with_full_src_cnt(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_single_pfe_testbed(env, config)
        procs = run_allreduce(testbed, [[1] * 300] * 4)
        for block in procs[0].value:
            assert block.src_cnt == 4
            assert not block.degraded

    def test_negative_gradients(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_single_pfe_testbed(env, config)
        grads = [[-(w + 1)] * 64 for w in range(4)]
        procs = run_allreduce(testbed, grads)
        assert procs[0].value[0].values == [-10] * 64

    def test_partial_last_block_padded(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_single_pfe_testbed(env, config)
        # 100 gradients -> 2 blocks, last one padded with zeros.
        procs = run_allreduce(testbed, [[2] * 100] * 4)
        results = procs[0].value
        assert len(results) == 2
        assert flatten(results, 100) == [8] * 100
        assert results[1].values[100 - 64:] == [0] * 28

    def test_aggregator_consumed_all_packets(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=4)
        testbed = build_single_pfe_testbed(env, config)
        run_allreduce(testbed, [[1] * 256] * 4)
        aggregator = testbed.handle.aggregator
        assert aggregator.packets_aggregated == 4 * 4  # 4 blocks x 4 workers
        assert aggregator.gradients_aggregated == 4 * 256
        assert aggregator.duplicates == 0
        assert testbed.pfe.packets_dropped == 0

    def test_block_records_cleaned_up(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=4)
        testbed = build_single_pfe_testbed(env, config)
        run_allreduce(testbed, [[1] * 256] * 4)
        # Only the job record remains in the hash table.
        assert len(testbed.pfe.hash_table) == 1
        runtime = next(iter(testbed.handle.runtimes.values()))
        assert runtime.record.block_curr_cnt == 0
        assert runtime.record.block_total_cnt == 4

    def test_aggregation_buffers_freed(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_single_pfe_testbed(env, config)
        before = testbed.pfe.memory.dram.allocated_bytes
        run_allreduce(testbed, [[1] * 640] * 4)
        after = testbed.pfe.memory.dram.allocated_bytes
        assert after == before  # all block buffers returned

    def test_second_generation_reuses_block_ids(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_single_pfe_testbed(env, config)
        run_allreduce(testbed, [[1] * 128] * 4)
        procs = run_allreduce(testbed, [[5] * 128] * 4)
        assert flatten(procs[0].value, 128) == [20] * 128

    def test_unknown_job_dropped_and_counted(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_single_pfe_testbed(env, config)
        worker = testbed.workers[0]
        header = TrioMLHeader(job_id=99, block_id=0, src_id=0, grad_cnt=4)
        payload = encode_trio_ml(header, [1, 2, 3, 4])

        def send():
            yield worker.send_udp(
                dst_mac=config.router_mac, dst_ip=config.service_ip,
                src_port=TRIO_ML_UDP_PORT, dst_port=TRIO_ML_UDP_PORT,
                payload=payload,
            )

        env.process(send())
        env.run(until=1e-3)
        aggregator = testbed.handle.aggregator
        assert aggregator.no_job_drops == 1
        assert aggregator.drop_counter.read()[0] == 1

    def test_oversized_block_rejected(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_single_pfe_testbed(env, config)
        worker = testbed.workers[0]
        header = TrioMLHeader(job_id=config.job_id, block_id=0, src_id=0,
                              grad_cnt=128)  # above block_grad_max=64
        payload = encode_trio_ml(header, [1] * 128)

        def send():
            yield worker.send_udp(
                dst_mac=config.router_mac, dst_ip=config.service_ip,
                src_port=TRIO_ML_UDP_PORT, dst_port=TRIO_ML_UDP_PORT,
                payload=payload,
            )

        env.process(send())
        env.run(until=1e-3)
        assert testbed.handle.aggregator.no_job_drops == 1

    def test_duplicate_contribution_ignored(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_single_pfe_testbed(env, config)
        worker = testbed.workers[0]
        header = TrioMLHeader(job_id=config.job_id, block_id=0, src_id=0,
                              grad_cnt=4, gen_id=1)
        payload = encode_trio_ml(header, [10, 20, 30, 40])

        def send_twice():
            for __ in range(2):
                yield worker.send_udp(
                    dst_mac=config.router_mac, dst_ip=config.service_ip,
                    src_port=TRIO_ML_UDP_PORT, dst_port=TRIO_ML_UDP_PORT,
                    payload=payload,
                )
                yield env.timeout(10e-6)

        env.process(send_twice())
        env.run(until=1e-3)
        aggregator = testbed.handle.aggregator
        assert aggregator.duplicates == 1
        # The block is still waiting for the other three sources.
        record = testbed.pfe.hash_table.get_nowait((config.job_id, 0))
        assert record.value.rcvd_cnt == 1

    def test_non_aggregation_traffic_forwarded(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_single_pfe_testbed(env, config)
        w0, w1 = testbed.workers[0], testbed.workers[1]
        testbed.pfe.add_route(w1.ip, testbed.pfe.port(1).name)

        def send():
            yield w0.send_udp(w1.mac, w1.ip, 5555, 8080, b"not gradients")

        def recv():
            packet = yield w1.recv()
            return packet.parse_udp()[3]

        env.process(send())
        p = env.process(recv())
        assert env.run(until=p) == b"not gradients"


class TestHierarchical:
    def test_six_worker_sums(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=128, window=4)
        testbed = build_hierarchical_testbed(env, config)
        grads = [[(w + 1) * (i + 1) for i in range(400)] for w in range(6)]
        expected = [sum(g[i] for g in grads) for i in range(400)]
        procs = run_allreduce(testbed, grads)
        for proc in procs:
            assert flatten(proc.value, 400) == expected

    def test_results_report_worker_counts_not_pfe_counts(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_hierarchical_testbed(env, config)
        procs = run_allreduce(testbed, [[1] * 128] * 6)
        for block in procs[0].value:
            assert block.src_cnt == 6

    def test_first_level_pfes_feed_top_over_fabric(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_hierarchical_testbed(env, config)
        run_allreduce(testbed, [[1] * 128] * 6)
        top = testbed.handle.aggregators["pfe4"]
        # Top level sees 2 sources (PFE1, PFE2) per block, 2 blocks.
        assert top.packets_aggregated == 4
        assert testbed.router.fabric.packets > 0

    def test_first_level_results_not_final(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2)
        testbed = build_hierarchical_testbed(env, config)
        run_allreduce(testbed, [[1] * 64] * 6)
        first = testbed.handle.runtimes["pfe1"]
        top = testbed.handle.runtimes["pfe4"]
        assert not first.result_dst_ip.is_multicast  # a partial Result
        assert first.top_pfe == "pfe4"
        assert top.result_dst_ip.is_multicast        # the final Result
        assert top.top_pfe is None
        assert first.record.src_cnt == 3  # its local workers
        assert top.record.src_cnt == 2    # the two first-level PFEs

    def test_top_pfe_cannot_be_first_level(self):
        from repro.trioml.config import setup_hierarchical_job
        env = Environment()
        from repro.trio import TrioRouter
        router = TrioRouter(env, num_pfes=2)
        with pytest.raises(ValueError):
            setup_hierarchical_job(
                router, TrioMLJobConfig(), {"pfe1": []}, {}, top_pfe="pfe1"
            )


@pytest.mark.parametrize("chunk_grads", [1, 4, 8, 16, 64])
def test_tail_loop_cost_matches_the_chunk_loop(chunk_grads):
    for tail_grads in range(0, 1100):
        remaining, chunks, instructions = tail_grads, 0, 0
        while remaining > 0:
            grads = min(remaining, chunk_grads)
            instructions += math.ceil(grads * INSTRUCTIONS_PER_GRADIENT)
            chunks += 1
            remaining -= grads
        assert _tail_loop_cost(tail_grads, chunk_grads) == (
            chunks, instructions)
