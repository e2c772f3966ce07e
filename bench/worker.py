"""One repetition of one workload, in a fresh interpreter.

Run by ``bench/run.py``; prints one JSON object on stdout.  Set-up
(interpreter start, imports, the seed, and for a traced run the
tracer) is timed from process start to the timed run; the run itself
is timed with ``process_time`` with the garbage collector on and, for
an untraced run, nothing of the benchmark's in the call path.

A small machine shared with other tenants changes speed by 20-40% over
seconds, far more than the regressions the benchmark must catch.  So
an untraced run is sampled by a :class:`SpeedProbe`, and its times are
reported *normalised*: CPU-seconds scaled to a host running at the
probe's nominal speed.  Set-up is probed the same way, more often.  The
raw times are reported beside them.

    python bench/worker.py --workload hybrid [--seed S] [--trace DIR]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
from typing import List

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, SRC)

#: Normalised times are CPU-seconds on a host where one probe takes
#: this long (about the fastest this probe runs on a 2-core cloud VM).
PROBE_NOMINAL_S = 3.0e-4
#: Probe periods: set-up lasts 0.1-0.5 s, so it is sampled more often.
SETUP_PROBE_PERIOD_S = 0.01
RUN_PROBE_PERIOD_S = 0.05


def _probe_work() -> int:
    """Fixed interpreter work: integer arithmetic and dict get/set."""
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = i & 63
        acc += table.get(key, i)
        table[key] = acc & 0xFFFF
    return acc


class SpeedProbe:
    """Samples the host's interpreter speed while a run executes.

    A wall-clock interval timer interrupts the run every ``period_s``
    and times :func:`_probe_work`.  Probe and run share the CPU at the
    same moments, so the probe's slowdown tracks the run's (correlation
    ~0.98 per repetition on a noisy 2-core VM).  The probe only reads
    the clock; it touches no simulation state.
    """

    def __init__(self, period_s: float) -> None:
        self.period_s = period_s
        self.samples: List[float] = []

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Host speed relative to nominal: mean probe time with the
        slowest and fastest tenth dropped, against the nominal."""
        if not self.samples:
            return 1.0
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return PROBE_NOMINAL_S / statistics.fmean(kept)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="trace the run; write the Chrome trace to DIR")
    args = parser.parse_args(argv)

    with SpeedProbe(SETUP_PROBE_PERIOD_S) as setup_probe:
        from repro.sim import set_default_seed
        from workloads import WORKLOADS, check, digest

        workload = WORKLOADS[args.workload]
        params = workload.params
        set_default_seed(args.seed)
        workload.setup()
        tracer = layer_probe = None
        if args.trace is not None:
            from layers import LayerProbe
            from tracer import Tracer

            tracer = Tracer()
            layer_probe = LayerProbe(tracer)
            layer_probe.install()
    setup_end = time.process_time()
    setup_s = setup_end - math.fsum(setup_probe.samples)

    # The traced run is not probed: probe time would be charged to
    # whichever layer it interrupted.
    probe = SpeedProbe(RUN_PROBE_PERIOD_S)
    wall0 = time.perf_counter()
    if tracer is None:
        with probe:
            result = workload.run(**params)
    else:
        tracer.start()
        result = workload.run(**params)
    run_cpu_s = time.process_time() - setup_end - math.fsum(probe.samples)
    run_wall_s = time.perf_counter() - wall0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = probe.speed()

    report = {}
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
        report = {
            "layers": tracer.report(),
            "ratios": layer_probe.ratios(),
            "trace_total_s": tracer.total_ns / 1e9,
            "missing": [list(entry) for entry in tracer.missing],
        }
        os.makedirs(args.trace, exist_ok=True)
        path = os.path.join(args.trace, f"{args.workload}.trace.json")
        with open(path, "w") as handle:
            json.dump(tracer.chrome_trace(), handle)

    out = workload.outputs(result, **params)
    pinned = None
    if args.seed is None:
        with open(os.path.join(BENCH, "expected.json")) as handle:
            pinned = json.load(handle).get(args.workload)
    print(json.dumps({
        "workload": args.workload,
        "traced": tracer is not None,
        "host_speed": speed,
        "setup_s": setup_s * setup_probe.speed(),
        "run_cpu_s": run_cpu_s * speed,
        "raw_setup_s": setup_s,
        "raw_run_cpu_s": run_cpu_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "completed": out["counts"][workload.completed_key],
        "ops": out["counts"][workload.ops_key],
        "payload_bytes": out["floats"]["payload_bytes"],
        "digest": digest(out),
        "outputs": out,
        "problems": check(workload, out, params, pinned),
        **report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
