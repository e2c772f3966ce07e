"""Tests for the SwitchML baseline: protocol, switch program, workers."""

import pytest

from repro import obs
from repro.harness import build_switchml_testbed
from repro.net import IPv4Address, MACAddress
from repro.pisa import PipelineError
from repro.pisa.pipeline import PisaPipeline
from repro.sim import Environment
from repro.switchml import SwitchMLHeader, decode_switchml, encode_switchml
from repro.switchml.switch import SwitchMLJob, SwitchMLProgram


class TestProtocol:
    def test_header_roundtrip(self):
        header = SwitchMLHeader(pool_index=17, worker_id=3, num_workers=6,
                                chunk_id=123456, grad_cnt=64, is_result=True)
        assert SwitchMLHeader.unpack(header.pack()) == header

    def test_payload_roundtrip_with_negatives(self):
        header = SwitchMLHeader(pool_index=0, worker_id=0, num_workers=2,
                                chunk_id=0, grad_cnt=4)
        values = [0, -1, 2**31 - 1, -2**31]
        payload = encode_switchml(header, values)
        parsed, decoded = decode_switchml(payload)
        assert decoded == values
        assert parsed.grad_cnt == 4

    def test_count_mismatch_rejected(self):
        header = SwitchMLHeader(pool_index=0, worker_id=0, num_workers=2,
                                chunk_id=0, grad_cnt=4)
        with pytest.raises(ValueError):
            encode_switchml(header, [1, 2])

    def test_truncated_payload_rejected(self):
        header = SwitchMLHeader(pool_index=0, worker_id=0, num_workers=2,
                                chunk_id=0, grad_cnt=4)
        payload = encode_switchml(header, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            decode_switchml(payload[:-1])


class TestJobConfig:
    def test_worker_bitmap_limit(self):
        job = SwitchMLJob(num_workers=2, pool_size=4, grads_per_packet=64)
        with pytest.raises(ValueError):
            job.add_worker(32, IPv4Address("10.0.0.1"), MACAddress(1))

    def test_chain_must_divide_gradients(self):
        job = SwitchMLJob(num_workers=2, pool_size=4, grads_per_packet=100,
                          chain=[0, 1, 2])
        with pytest.raises(ValueError):
            SwitchMLProgram(job, chain_position=0)

    def test_segment_size(self):
        job = SwitchMLJob(num_workers=2, pool_size=4, grads_per_packet=256,
                          chain=[0, 1, 2, 3])
        assert job.segment_size == 64


class TestResourceFit:
    def test_switchml_64_fits_one_pipeline(self):
        env = Environment()
        job = SwitchMLJob(num_workers=2, pool_size=8, grads_per_packet=64)
        pipeline = PisaPipeline(env, "pipe", num_stages=12)
        pipeline.install(SwitchMLProgram(job, chain_position=0))

    def test_switchml_256_does_not_fit_one_pipeline(self):
        # 256 gradient registers (plus count+bitmap) exceed the per-stage
        # budget x 12 stages: this is why SwitchML-256 needs 4 pipelines.
        env = Environment()
        job = SwitchMLJob(num_workers=2, pool_size=8, grads_per_packet=256,
                          chain=[0])
        pipeline = PisaPipeline(env, "pipe", num_stages=12)
        with pytest.raises(PipelineError):
            pipeline.install(SwitchMLProgram(job, chain_position=0))


def build_cluster(env, num_workers=3, pool_size=4, grads_per_packet=64,
                  chain=(0,), hooks=None):
    job = SwitchMLJob(num_workers=num_workers, pool_size=pool_size,
                      grads_per_packet=grads_per_packet, chain=list(chain))
    testbed = build_switchml_testbed(env, job,
                                     hook_factory=(hooks or {}).get)
    return job, testbed.switch, testbed.programs, testbed.workers


class TestAggregation:
    def test_allreduce_sums_across_workers(self):
        env = Environment()
        __, __, __, workers = build_cluster(env)
        grads = [[(w + 1) * (i + 1) for i in range(200)] for w in range(3)]
        expected = [sum(g[i] for g in grads) for i in range(200)]
        procs = [env.process(workers[w].allreduce(grads[w]))
                 for w in range(3)]
        env.run(until=env.all_of(procs))
        for proc in procs:
            assert proc.value == expected

    def test_chained_256_matches_single_64(self):
        env = Environment()
        __, __, __, workers = build_cluster(
            env, num_workers=2, grads_per_packet=256, chain=(0, 1, 2, 3)
        )
        grads = [[(w + 2) * i for i in range(512)] for w in range(2)]
        expected = [sum(g[i] for g in grads) for i in range(512)]
        procs = [env.process(workers[w].allreduce(grads[w]))
                 for w in range(2)]
        env.run(until=env.all_of(procs))
        assert procs[0].value == expected

    def test_pool_self_clocking_bounds_outstanding(self):
        env = Environment()
        pool = 2
        __, __, programs, workers = build_cluster(env, pool_size=pool)
        grads = [[1] * (64 * 10)] * 3  # 10 chunks per worker
        procs = [env.process(workers[w].allreduce(grads[w]))
                 for w in range(3)]
        env.run(until=env.all_of(procs))
        assert programs[0].results_emitted == 10
        # Each worker sent exactly its 10 chunks, no retransmissions.
        assert all(w.chunks_sent == 10 for w in workers)

    def test_straggler_stalls_everyone(self):
        env = Environment()
        straggle_s = 0.020
        hooks = {2: lambda chunk: straggle_s if chunk == 0 else 0.0}
        __, __, __, workers = build_cluster(env, hooks=hooks)
        grads = [[1] * 64] * 3
        procs = [env.process(workers[w].allreduce(grads[w]))
                 for w in range(3)]
        env.run(until=env.all_of(procs))
        # No result can be produced before the straggler contributes:
        # SwitchML has no timers, so everyone waits the full straggle.
        assert env.now >= straggle_s

    def test_duplicate_contribution_dropped(self):
        env = Environment()
        job, switch, programs, workers = build_cluster(env, num_workers=2)

        # Worker 0 sends the same chunk twice by replaying the send.
        # Small gaps keep wire arrival order deterministic.
        def replay():
            chunk = [5] * 64
            yield from workers[0]._send_chunk(0, chunk)
            yield env.timeout(5e-6)
            yield from workers[0]._send_chunk(0, chunk)
            yield env.timeout(5e-6)
            yield from workers[1]._send_chunk(0, [7] * 64)

        env.process(replay())
        env.run(until=1e-3)
        assert programs[0].duplicates_dropped == 1

    def test_result_values_correct_after_duplicate(self):
        env = Environment()
        job, switch, programs, workers = build_cluster(env, num_workers=2)

        results = []

        def collect(worker):
            packet = yield worker.recv()
            __, __, __, payload = packet.parse_udp()
            __, values = decode_switchml(payload)
            results.append(values)

        def replay():
            yield from workers[0]._send_chunk(0, [5] * 64)
            yield env.timeout(5e-6)
            yield from workers[0]._send_chunk(0, [5] * 64)  # duplicate
            yield env.timeout(5e-6)
            yield from workers[1]._send_chunk(0, [7] * 64)

        env.process(replay())
        procs = [env.process(collect(w)) for w in workers]
        env.run(until=env.all_of(procs))
        assert results[0] == [12] * 64  # 5 + 7, duplicate ignored


class TestRetransmission:
    """§6.1: SwitchML's retransmission 'creates spurious retransmissions
    during straggling periods', which is why the paper disables it."""

    def test_straggler_triggers_spurious_retransmissions(self):
        env = Environment()
        hooks = {2: lambda chunk: 0.020 if chunk == 0 else 0.0}
        job, switch, programs, workers = build_cluster(env, hooks=hooks)
        for worker in workers[:2]:
            worker.retransmit_timeout_s = 0.001  # the client's 1 ms
        grads = [[w + 1] * 64 for w in range(3)]
        procs = [env.process(workers[w].allreduce(grads[w]))
                 for w in range(3)]
        env.run(until=env.all_of(procs))
        # Nothing was lost, yet the healthy workers retransmitted while
        # the slot waited on the straggler...
        assert workers[0].retransmissions > 5
        # ...and the switch had to burn pipeline passes discarding them.
        assert programs[0].duplicates_dropped > 5
        # Results stay correct despite the churn.
        assert procs[0].value == [1 + 2 + 3] * 64

    def test_no_retransmissions_without_straggler(self):
        env = Environment()
        job, switch, programs, workers = build_cluster(env)
        for worker in workers:
            worker.retransmit_timeout_s = 0.001
        grads = [[1] * 256] * 3
        procs = [env.process(workers[w].allreduce(grads[w]))
                 for w in range(3)]
        env.run(until=env.all_of(procs))
        assert all(w.retransmissions == 0 for w in workers)
        assert programs[0].duplicates_dropped == 0


class TestObsExport:
    """Each program exports the counters it keeps: in a chain the last
    pipeline emits the results, the first keeps the worker bitmaps."""

    @pytest.mark.parametrize("grads_per_packet, chain", [
        (64, (0,)),             # SwitchML-64: one pipeline
        (256, (0, 1, 2, 3)),    # SwitchML-256: the four-pipeline chain
    ])
    def test_results_emitted_sum_to_chunk_count(self, grads_per_packet,
                                                chain):
        chunks = 8
        session = obs.enable(scope="test")
        try:
            env = Environment()
            __, __, programs, workers = build_cluster(
                env, num_workers=2, pool_size=8,
                grads_per_packet=grads_per_packet, chain=chain)
            procs = [env.process(w.allreduce([1] * grads_per_packet * chunks))
                     for w in workers]
            env.run(until=env.all_of(procs))
        finally:
            obs.disable()
        assert programs[-1].results_emitted == chunks
        snapshot = session.registry.snapshot()["metrics"]
        emitted = snapshot["switchml.results_emitted"]["series"]
        assert emitted == [{"labels": [str(len(chain) - 1)],
                            "value": chunks}]
        dropped = snapshot["switchml.duplicates_dropped"]["series"]
        assert dropped == [{"labels": ["0"], "value": 0}]
