"""Figure 14: in-network timer threads' efficiency.

Paper result: with one permanently straggling server, the time from a
healthy server sending an aggregation packet to receiving the partial
result stays within **2x the straggler timeout** across timeouts of
2.5-20 ms.  The reproduction sweeps the same timeouts on the simulated
testbed and checks the same bound.
"""

from repro.harness import experiments as exp


def test_fig14_mitigation(record):
    rows = record(exp.fig14_mitigation)
    assert [row.timeout_ms for row in rows] == [2.5, 5.0, 10.0, 15.0, 20.0]
    for row in rows:
        assert row.blocks_mitigated > 0
        # The paper's claim: recovery within 2x the timeout interval.
        assert row.max_mitigation_ms <= 2 * row.timeout_ms + 1.0
        # And never faster than the timeout itself (the REF flag needs a
        # full interval untouched before the record counts as aged).
        assert row.mean_mitigation_ms >= 0.9 * row.timeout_ms
    # Mitigation time scales linearly with the configured timeout.
    means = [row.mean_mitigation_ms for row in rows]
    assert means == sorted(means)
    assert means[-1] / means[0] > 5
