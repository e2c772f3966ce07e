"""Tests for job lifecycle operations: detector handles."""

from repro.harness import build_single_pfe_testbed
from repro.sim import Environment
from repro.trioml import TrioMLJobConfig


class TestDetectorLifecycle:
    def test_stop_detectors_halts_scans(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2,
                                 timeout_s=0.001, detector_threads=4)
        testbed = build_single_pfe_testbed(env, config, num_workers=4,
                                           with_detector=True)
        env.run(until=0.005)
        detector = next(iter(testbed.handle.detectors.values()))
        group = detector.group
        firings_while_running = group.firings
        assert firings_while_running > 0
        testbed.handle.stop_detectors()
        env.run(until=0.015)
        # At most the already-sleeping threads fire one final time each.
        assert group.firings <= firings_while_running + 4

    def test_detector_double_stop_safe(self):
        env = Environment()
        config = TrioMLJobConfig(timeout_s=0.001, detector_threads=2)
        testbed = build_single_pfe_testbed(env, config, with_detector=True)
        testbed.handle.stop_detectors()
        testbed.handle.stop_detectors()

    def test_stopped_detector_does_not_mitigate(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=2,
                                 timeout_s=0.002, detector_threads=4)
        testbed = build_single_pfe_testbed(env, config, num_workers=4,
                                           with_detector=True)
        testbed.handle.stop_detectors()
        env.run(until=0.001)  # let the cancelled threads drain

        # Worker 3 never sends; without a detector nothing ages out.
        vector = [1] * 64
        procs = [env.process(w.allreduce(vector))
                 for w in testbed.workers[:3]]
        env.run(until=0.05)
        detector = next(iter(testbed.handle.detectors.values()))
        assert not detector.mitigations
        assert all(p.is_alive for p in procs)  # stuck, as expected


class TestBlockStatsInstrumentation:
    def test_block_stats_recorded_per_completion(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=4)
        testbed = build_single_pfe_testbed(env, config, num_workers=4)
        procs = testbed.run_allreduce([[1] * 256] * 4)
        env.run(until=env.all_of(procs))
        stats = testbed.handle.aggregator.block_stats
        assert len(stats) == 4
        assert all(not s.degraded and s.src_cnt == 4 for s in stats)
        assert all(s.finish_time >= s.start_time for s in stats)
        assert sorted(s.block_id for s in stats) == [0, 1, 2, 3]
