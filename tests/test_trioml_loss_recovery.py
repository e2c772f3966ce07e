"""Tests for Trio-ML packet-loss resiliency (§7, future work in the paper).

The paper notes a practical in-network aggregation system needs enough
resiliency to survive transient loss and that the Trio-ML implementation
"has provisions to support this solution".  This reproduction implements
those provisions: worker retransmission plus Result-replay at the
aggregator (the SwitchML-style recovery the paper references).
"""

import pytest

from repro.harness import build_single_pfe_testbed
from repro.net import Link, Packet, Port
from repro.sim import Environment
from repro.trioml import TrioMLJobConfig


class TestLossyLink:
    def test_loss_rate_validation(self):
        env = Environment()
        a, b = Port(env, "a"), Port(env, "b")
        with pytest.raises(ValueError):
            Link(env, a, b, loss_rate=1.0)
        with pytest.raises(ValueError):
            Link(env, a, b, loss_rate=-0.1)

    def test_zero_loss_delivers_everything(self):
        env = Environment()
        received = []
        a = Port(env, "a")
        b = Port(env, "b", rx_handler=lambda p, port: received.append(p))
        Link(env, a, b, loss_rate=0.0, propagation_delay_s=0)
        for __ in range(100):
            a.send(Packet(bytes(64)))
        env.run(until=1e-3)
        assert len(received) == 100

    def test_loss_rate_statistics(self):
        env = Environment()
        received = []
        a = Port(env, "a")
        b = Port(env, "b", rx_handler=lambda p, port: received.append(p))
        link = Link(env, a, b, loss_rate=0.2, loss_seed=7,
                    propagation_delay_s=0)
        n = 2000
        for __ in range(n):
            a.send(Packet(bytes(64)))
        env.run(until=1.0)
        assert link.frames_lost + len(received) == n
        assert 0.15 <= link.frames_lost / n <= 0.25

    def test_loss_deterministic_under_seed(self):
        def run(seed):
            env = Environment()
            received = []
            a = Port(env, "a")
            b = Port(env, "b", rx_handler=lambda p, port: received.append(1))
            Link(env, a, b, loss_rate=0.3, loss_seed=seed,
                 propagation_delay_s=0)
            for __ in range(200):
                a.send(Packet(bytes(64)))
            env.run(until=1.0)
            return len(received)

        assert run(5) == run(5)


class TestLossRecovery:
    def make_testbed(self, env, loss_rate):
        config = TrioMLJobConfig(
            grads_per_packet=64,
            window=4,
            loss_recovery=True,
            retransmit_timeout_s=0.002,
        )
        return build_single_pfe_testbed(
            env, config, num_workers=4, link_loss_rate=loss_rate
        )

    def test_allreduce_completes_under_loss(self):
        env = Environment()
        testbed = self.make_testbed(env, loss_rate=0.05)
        grads = [[(w + 1)] * 256 for w in range(4)]
        procs = testbed.run_allreduce(grads)
        env.run(until=env.all_of(procs))
        expected = [10] * 64  # 1+2+3+4 per gradient
        for proc in procs:
            assert all(block.values == expected for block in proc.value)
        lost = sum(link.frames_lost for link in testbed.topology.links)
        retransmitted = sum(w.retransmissions for w in testbed.workers)
        assert lost > 0, "the test should actually have exercised loss"
        assert retransmitted > 0

    def test_result_replay_for_completed_blocks(self):
        env = Environment()
        testbed = self.make_testbed(env, loss_rate=0.10)
        grads = [[1] * 512 for __ in range(4)]
        procs = testbed.run_allreduce(grads)
        env.run(until=env.all_of(procs))
        runtime = next(iter(testbed.handle.runtimes.values()))
        aggregator = testbed.handle.aggregator
        # Either no result packet happened to be lost (possible but the
        # seeds below make it unlikely) or replays occurred.
        assert (runtime.results_replayed > 0
                or aggregator.duplicates > 0
                or sum(w.retransmissions for w in testbed.workers) > 0)
        for proc in procs:
            assert all(block.values == [4] * 64 for block in proc.value)

    def test_duplicate_contributions_do_not_double_count(self):
        env = Environment()
        testbed = self.make_testbed(env, loss_rate=0.08)
        grads = [[5] * 320 for __ in range(4)]
        procs = testbed.run_allreduce(grads)
        env.run(until=env.all_of(procs))
        # Retransmissions that raced the original are deduplicated by the
        # received-source bitmask: sums stay exact.
        for proc in procs:
            assert all(block.values == [20] * 64 for block in proc.value)

    def test_no_frames_after_completion(self):
        """The retransmit loop outlives its allreduce only until its next
        wake-up, and sends nothing more."""
        env = Environment()
        testbed = self.make_testbed(env, loss_rate=0.05)
        procs = testbed.run_allreduce([[(w + 1)] * 256 for w in range(4)])
        env.run(until=env.all_of(procs))
        assert sum(w.retransmissions for w in testbed.workers) > 0

        def sent():
            return [(w.blocks_sent, w.retransmissions, w.nic.port.tx_packets)
                    for w in testbed.workers]

        at_completion = sent()
        env.run(until=env.now + 10 * 0.002)
        assert sent() == at_completion

    def test_no_retransmission_when_disabled(self):
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=64, window=4)
        testbed = build_single_pfe_testbed(env, config, num_workers=4)
        procs = testbed.run_allreduce([[1] * 128] * 4)
        env.run(until=env.all_of(procs))
        assert all(w.retransmissions == 0 for w in testbed.workers)
