"""Supplementary benches beyond the paper's figures.

* Generation scaling: the same Trio-ML job on all six chipset
  generations (§2) — throughput must grow with the RMW complex.
* Packet-loss resiliency: the §7 future-work provisions (implemented
  here) keep allreduce exact under transient loss, at a bounded
  retransmission cost.
"""

from repro.harness import experiments as exp


def test_generation_scaling(record):
    rows = record(exp.generation_scaling)
    assert [row.generation for row in rows] == [1, 2, 3, 4, 5, 6]
    throughputs = [row.throughput_gbps for row in rows]
    # Monotone non-decreasing across generations, and the gen-6 chip
    # clearly outruns gen 1.
    assert all(b >= a * 0.99 for a, b in zip(throughputs, throughputs[1:]))
    assert throughputs[-1] > 2 * throughputs[0]


def test_loss_recovery_sweep(record):
    rows = record(exp.loss_recovery_sweep)
    assert rows[0].loss_rate == 0.0
    # No loss, no recovery machinery engaged.
    assert rows[0].frames_lost == 0
    assert rows[0].retransmissions == 0
    # Loss engaged the machinery (the sweep itself asserts exact sums).
    lossy = [row for row in rows if row.loss_rate >= 0.02]
    assert all(row.frames_lost > 0 for row in lossy)
    assert any(row.retransmissions > 0 for row in lossy)
    # Recovery costs time: the lossiest run is slower than the clean one.
    assert rows[-1].completion_ms > rows[0].completion_ms
