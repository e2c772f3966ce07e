"""Figure 16: impact of the aggregation window on latency and throughput.

Paper result (Trio-ML-512 and Trio-ML-1024): growing the window raises
aggregation latency (more simultaneous packets per thread pool) and
raises throughput until the PFE saturates around 150 Gbps; window 4096
is a good latency/throughput balance.  The reproduction sweeps the same
windows and checks both monotonicities and the saturation behaviour,
including the RMW-complex-limited plateau.
"""

from repro.harness import experiments as exp

#: Full paper sweep; the 4096-point dominates the run time.
WINDOWS = (1, 4, 16, 64, 256, 1024, 4096)


def test_fig16_window_sweep(record):
    results = record(exp.fig16_window_sweep, windows=WINDOWS)
    for grads in (512, 1024):
        rows = results[grads]
        latencies = [row.latency_us for row in rows]
        throughputs = [row.throughput_gbps for row in rows]
        # Fig 16a: latency rises with window size.
        assert latencies == sorted(latencies)
        # Fig 16b: throughput rises with window size...
        assert throughputs == sorted(throughputs)
        # ...and saturates: the last doubling gains little.
        assert throughputs[-1] / throughputs[-2] < 1.25
        # The plateau sits in the paper's regime (~150 Gbps),
        # set by the RMW complex (6 G adds/s x 32 bits ~ 192 Gbps ceiling).
        assert 100 <= throughputs[-1] <= 200
