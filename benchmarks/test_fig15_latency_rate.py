"""Figure 15: per-PFE aggregation latency and rate vs gradients/packet.

Paper result (window = 1, four servers): latency grows from 30 us at 64
gradients to ~200 us at 1024 — a 6.6x increase for 16x the gradients,
i.e. sublinear — and the derived aggregation rate climbs and plateaus
between 512 and 1024 gradients per packet.  The reproduction checks the
same monotonicity, sublinearity, and plateau (absolute values are lower
because end-host DPDK overheads are outside the simulated router; see
EXPERIMENTS.md).
"""

from repro.harness import experiments as exp


def test_fig15_latency_rate(record):
    rows = record(exp.fig15_latency_rate)
    assert [row.grads_per_packet for row in rows] == [64, 128, 256, 512, 1024]
    latencies = [row.latency_us for row in rows]
    rates = [row.rate_grads_per_us for row in rows]
    # Larger packets incur larger latency...
    assert latencies == sorted(latencies)
    # ...but sublinearly: 16x the gradients costs well under 16x.
    assert latencies[-1] / latencies[0] < 16
    # Trio is more efficient with larger packets: the rate never drops...
    assert all(b >= a * 0.98 for a, b in zip(rates, rates[1:]))
    # ...and plateaus between 512 and 1024 gradients per packet.
    assert rates[-1] / rates[-2] < 1.10
