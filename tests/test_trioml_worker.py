"""Unit tests for the Trio-ML worker's internal behaviours."""

import pytest

from repro.net import IPv4Address, MACAddress, Packet
from repro.sim import Environment
from repro.trioml.protocol import TRIO_ML_UDP_PORT, TrioMLHeader, encode_trio_ml
from repro.trioml.worker import BlockResult, TrioMLWorker


def make_worker(env=None, **kwargs):
    env = env or Environment()
    defaults = dict(
        name="w0", src_id=0, job_id=1,
        mac=MACAddress(1), ip=IPv4Address("10.0.0.1"),
        router_mac=MACAddress(0xFE), service_ip=IPv4Address("10.255.0.1"),
        grads_per_packet=64, window=4,
    )
    defaults.update(kwargs)
    worker = TrioMLWorker(env, **defaults)
    # Attach the NIC to a sink so sends have somewhere to go; results are
    # injected straight into the worker's inbox by the tests.
    from repro.net import Link, Port
    sink = Port(env, "sink")
    Link(env, worker.nic.port, sink, propagation_delay_s=0)
    return env, worker


def result_packet(worker, gen, block_id, values, final=True, degraded=False,
                  src_cnt=4):
    header = TrioMLHeader(
        job_id=worker.job_id, block_id=block_id, src_id=0,
        grad_cnt=len(values), gen_id=gen, final=final, degraded=degraded,
        src_cnt=src_cnt,
    )
    return Packet.udp(
        src_mac=MACAddress(0xFE), dst_mac=worker.mac,
        src_ip=IPv4Address("10.255.0.1"), dst_ip=worker.ip,
        src_port=TRIO_ML_UDP_PORT, dst_port=TRIO_ML_UDP_PORT,
        payload=encode_trio_ml(header, values),
    )


class TestSplitBlocks:
    def test_exact_multiple(self):
        __, worker = make_worker()
        blocks = worker.split_blocks(list(range(128)))
        assert len(blocks) == 2
        assert blocks[0].tolist() == list(range(64))

    def test_padding_on_last_block(self):
        __, worker = make_worker()
        blocks = worker.split_blocks([1] * 70)
        assert len(blocks) == 2
        assert blocks[1].tolist() == [1] * 6 + [0] * 58

    def test_single_short_vector(self):
        __, worker = make_worker()
        blocks = worker.split_blocks([9, 9])
        assert [block.tolist() for block in blocks] == [[9, 9] + [0] * 62]

    def test_parameter_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            make_worker(env, grads_per_packet=0)
        with pytest.raises(ValueError):
            make_worker(env, grads_per_packet=2000)
        with pytest.raises(ValueError):
            make_worker(env, window=0)


class TestParseResult:
    def test_accepts_matching_result(self):
        __, worker = make_worker()
        worker.gen_id = 3
        packet = result_packet(worker, gen=3, block_id=1, values=[5] * 64)
        result = worker._parse_result(packet, gen=3, num_blocks=4)
        assert result is not None
        assert result.block_id == 1
        assert result.values == [5] * 64

    def test_rejects_wrong_generation(self):
        __, worker = make_worker()
        packet = result_packet(worker, gen=2, block_id=0, values=[1] * 64)
        assert worker._parse_result(packet, gen=3, num_blocks=4) is None

    def test_rejects_non_final(self):
        __, worker = make_worker()
        packet = result_packet(worker, gen=1, block_id=0, values=[1] * 64,
                               final=False)
        assert worker._parse_result(packet, gen=1, num_blocks=4) is None

    def test_rejects_wrong_job(self):
        __, worker = make_worker()
        packet = result_packet(worker, gen=1, block_id=0, values=[1] * 64)
        worker.job_id = 9
        assert worker._parse_result(packet, gen=1, num_blocks=4) is None

    def test_rejects_out_of_range_block(self):
        __, worker = make_worker()
        packet = result_packet(worker, gen=1, block_id=10, values=[1] * 64)
        assert worker._parse_result(packet, gen=1, num_blocks=4) is None

    def test_rejects_wrong_port(self):
        __, worker = make_worker()
        packet = Packet.udp(
            src_mac=MACAddress(0xFE), dst_mac=worker.mac,
            src_ip=IPv4Address("10.255.0.1"), dst_ip=worker.ip,
            src_port=80, dst_port=80, payload=b"not trioml",
        )
        assert worker._parse_result(packet, gen=1, num_blocks=4) is None

    def test_rejects_garbage_payload(self):
        __, worker = make_worker()
        packet = Packet.udp(
            src_mac=MACAddress(0xFE), dst_mac=worker.mac,
            src_ip=IPv4Address("10.255.0.1"), dst_ip=worker.ip,
            src_port=TRIO_ML_UDP_PORT, dst_port=TRIO_ML_UDP_PORT,
            payload=b"\x01\x02",
        )
        assert worker._parse_result(packet, gen=1, num_blocks=4) is None


class TestBlockResult:
    def test_mean_divides_by_contributors(self):
        result = BlockResult(block_id=0, values=[6, -9], src_cnt=3,
                             degraded=True, gen_id=1)
        assert result.mean() == [2.0, -3.0]

    def test_mean_with_zero_contributors(self):
        result = BlockResult(block_id=0, values=[6], src_cnt=0,
                             degraded=True, gen_id=1)
        assert result.mean() == [0.0]


class TestGenerationCounter:
    def test_gen_increments_per_allreduce(self):
        env, worker = make_worker()

        def feed():
            # Feed results for gen 1's single block, then gen 2's.
            yield env.timeout(1e-4)
            worker.inbox.put(result_packet(worker, 1, 0, [4] * 64))

        env.process(feed())
        proc = env.process(worker.allreduce([1] * 64))
        env.run(until=proc)
        assert worker.gen_id == 1

        def feed2():
            yield env.timeout(1e-4)
            worker.inbox.put(result_packet(worker, 2, 0, [8] * 64))

        env.process(feed2())
        proc = env.process(worker.allreduce([2] * 64))
        env.run(until=proc)
        assert worker.gen_id == 2
        assert proc.value[0].values == [8] * 64

    def test_stale_generation_results_ignored(self):
        env, worker = make_worker()

        def feed():
            yield env.timeout(1e-4)
            worker.inbox.put(result_packet(worker, 99, 0, [1] * 64))  # stale
            yield env.timeout(1e-4)
            worker.inbox.put(result_packet(worker, 1, 0, [2] * 64))

        env.process(feed())
        proc = env.process(worker.allreduce([1] * 64))
        env.run(until=proc)
        assert proc.value[0].values == [2] * 64
        assert worker.results_received == 1


class TestInstrumentation:
    def test_send_and_result_times_recorded(self):
        env, worker = make_worker()

        def feed():
            yield env.timeout(5e-4)
            worker.inbox.put(result_packet(worker, 1, 0, [0] * 64))

        env.process(feed())
        proc = env.process(worker.allreduce([1] * 64))
        env.run(until=proc)
        assert (1, 0) in worker.send_times
        assert (1, 0) in worker.result_times
        assert worker.result_times[(1, 0)] >= worker.send_times[(1, 0)]

    def test_window_limits_outstanding_sends(self):
        env, worker = make_worker(window=2)
        # 4 blocks, window 2: only 2 sends until a result arrives.
        proc = env.process(worker.allreduce([1] * 256))
        env.run(until=1e-3)
        assert worker.blocks_sent == 2
        # Release one block; a third send follows.
        worker.inbox.put(result_packet(worker, 1, 0, [0] * 64))
        env.run(until=2e-3)
        assert worker.blocks_sent == 3
