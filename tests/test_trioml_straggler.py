"""Tests for in-network straggler detection and mitigation (§5)."""

import pytest

from repro.harness import build_hierarchical_testbed, build_single_pfe_testbed
from repro.sim import Environment
from repro.trioml import TrioMLJobConfig
from repro.trioml.straggler import AGE_OP_TIMED_OUT, StragglerDetector


def straggler_hook_factory(straggler_index, delay_s, block_id=0):
    def factory(index):
        if index != straggler_index:
            return None
        return lambda b: delay_s if b == block_id else 0.0

    return factory


def finish_times(env, procs):
    times = {}

    def watch(index, proc):
        yield proc
        times[index] = env.now

    for index, proc in enumerate(procs):
        env.process(watch(index, proc))
    env.run(until=env.all_of(procs))
    return times


class TestDetection:
    def test_aged_blocks_complete_partially(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=4,
                                 timeout_s=0.005, detector_threads=10)
        testbed = build_single_pfe_testbed(
            env, config, with_detector=True,
            hook_factory=straggler_hook_factory(3, 0.100),
        )
        procs = testbed.run_allreduce([[1] * 256] * 4)
        times = finish_times(env, procs)
        results = procs[0].value
        degraded = [b for b in results if b.degraded]
        assert degraded
        assert all(b.src_cnt == 3 for b in degraded)
        # Non-degraded blocks report the full worker count.
        assert all(b.src_cnt == 4 for b in results if not b.degraded)

    def test_mitigation_within_twice_timeout(self):
        env = Environment()
        timeout = 0.005
        config = TrioMLJobConfig(grads_per_packet=64, window=4,
                                 timeout_s=timeout, detector_threads=10)
        testbed = build_single_pfe_testbed(
            env, config, with_detector=True,
            hook_factory=straggler_hook_factory(3, 0.200),
        )
        procs = testbed.run_allreduce([[1] * 256] * 4)
        times = finish_times(env, procs)
        for index in range(3):  # the healthy workers
            assert times[index] <= 2 * timeout + 0.001

    def test_straggler_skips_aged_blocks(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=4,
                                 timeout_s=0.005, detector_threads=10)
        testbed = build_single_pfe_testbed(
            env, config, with_detector=True,
            hook_factory=straggler_hook_factory(3, 0.050),
        )
        procs = testbed.run_allreduce([[1] * 256] * 4)
        finish_times(env, procs)
        straggler = testbed.workers[3]
        assert straggler.blocks_skipped >= 1
        # No stale packets linger as fresh block records.
        assert len(testbed.pfe.hash_table) == 1  # only the job record

    def test_degraded_results_flag_age_op(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2,
                                 timeout_s=0.005, detector_threads=5)
        testbed = build_single_pfe_testbed(
            env, config, with_detector=True,
            hook_factory=straggler_hook_factory(3, 0.100),
        )
        procs = testbed.run_allreduce([[1] * 64] * 4)
        finish_times(env, procs)
        detector = next(iter(testbed.handle.detectors.values()))
        assert detector.mitigations
        for event in detector.mitigations:
            assert event.rcvd_cnt == 3
            # Detection happened within (timeout, ~2x timeout].
            assert event.waited_s <= 2 * config.timeout_s + 0.001

    def test_partial_sum_excludes_straggler(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2,
                                 timeout_s=0.005, detector_threads=5)
        testbed = build_single_pfe_testbed(
            env, config, with_detector=True,
            hook_factory=straggler_hook_factory(3, 0.100),
        )
        grads = [[w + 1] * 64 for w in range(4)]
        procs = testbed.run_allreduce(grads)
        finish_times(env, procs)
        block = procs[0].value[0]
        assert block.degraded
        assert block.values == [1 + 2 + 3] * 64  # worker 4 (value 4) missing
        assert block.mean() == [2.0] * 64

    def test_no_straggler_no_mitigation(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=4,
                                 timeout_s=0.005, detector_threads=10)
        testbed = build_single_pfe_testbed(env, config, with_detector=True)
        procs = testbed.run_allreduce([[1] * 256] * 4)
        finish_times(env, procs)
        detector = next(iter(testbed.handle.detectors.values()))
        assert not detector.mitigations
        assert all(not b.degraded for b in procs[0].value)

    def test_detector_scans_all_segments(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=4,
                                 timeout_s=0.002, detector_threads=8)
        testbed = build_single_pfe_testbed(env, config, with_detector=True)
        env.run(until=0.010)
        detector = next(iter(testbed.handle.detectors.values()))
        group = next(g for g in testbed.pfe.timers.groups
                     if g.name == "trio-ml-straggler")
        assert group.firings >= 8  # all threads fired at least once

    def test_detector_validation(self):
        env = Environment()
        config = TrioMLJobConfig()
        testbed = build_single_pfe_testbed(env, config)
        with pytest.raises(ValueError):
            StragglerDetector(testbed.handle.aggregator, num_threads=0)
        with pytest.raises(ValueError):
            StragglerDetector(testbed.handle.aggregator, timeout_s=0)

    def test_detector_requires_installed_aggregator(self):
        from repro.trioml.aggregator import TrioMLAggregator
        detector = StragglerDetector(TrioMLAggregator())
        with pytest.raises(RuntimeError):
            detector.start()


class TestHierarchicalMitigation:
    def test_degraded_flag_propagates_to_final_result(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2,
                                 timeout_s=0.005, detector_threads=10)
        testbed = build_hierarchical_testbed(
            env, config, with_detector=True,
            hook_factory=straggler_hook_factory(5, 0.100),
        )
        procs = testbed.run_allreduce([[1] * 128] * 6)
        times = finish_times(env, procs)
        degraded = [b for b in procs[0].value if b.degraded]
        assert degraded
        assert all(b.src_cnt == 5 for b in degraded)
        # Healthy workers recover long before the 100 ms straggle; the
        # top level runs a 2x timeout, so the bound is ~2x + 2*2x.
        for index in range(5):
            assert times[index] <= 6 * config.timeout_s

    def test_straggler_worker_self_time_dominates_its_finish(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2,
                                 timeout_s=0.005, detector_threads=10)
        straggle = 0.050
        testbed = build_hierarchical_testbed(
            env, config, with_detector=True,
            hook_factory=straggler_hook_factory(5, straggle),
        )
        procs = testbed.run_allreduce([[1] * 128] * 6)
        times = finish_times(env, procs)
        assert times[5] >= straggle


def test_straggle_hook_runs_once_per_block():
    env = Environment()
    config = TrioMLJobConfig(grads_per_packet=64, window=4)
    testbed = build_single_pfe_testbed(env, config, num_workers=2)
    calls = {}

    def hook(block_id):
        calls[block_id] = calls.get(block_id, 0) + 1
        return 1e-6

    testbed.workers[1].straggle_hook = hook
    procs = testbed.run_allreduce([[1] * (64 * 6)] * 2)
    env.run(until=env.all_of(procs))
    assert calls == {block_id: 1 for block_id in range(6)}
