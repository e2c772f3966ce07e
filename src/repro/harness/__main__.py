"""Command-line runner for the evaluation experiments.

Usage::

    python -m repro.harness list
    python -m repro.harness table1 fig14 fig15
    python -m repro.harness all
    python -m repro.harness fig16 --fast
    python -m repro.harness fig15 fig16 --parallel 4
    python -m repro.harness profile fig13 --trace out.json

``--fast`` shrinks the packet-level sweeps (fewer blocks, smaller
windows) for a quick smoke run; the full runs match EXPERIMENTS.md.
``--parallel N`` fans the independent points of each sweep across up to
N worker processes; every point is deterministic in isolation, so the
results are bit-identical to a serial run.

``profile`` is a mode, not an experiment: it enables the
:mod:`repro.obs` subsystem, runs a small data-plane slice (so every
probe family — PPE occupancy, RMW utilisation, block lifecycle — shows
up even when profiling trainer-level experiments), then runs the named
experiments and writes the trace (``--trace``, Chrome ``trace_event``
JSON, loadable in Perfetto) and metrics snapshot (``--metrics``).
``--obs`` enables recording without the slice for any normal run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial
from typing import Callable, Dict, Optional

from repro.harness import experiments as exp
from repro.harness.figures import EXPERIMENTS


def _run(sweeps, fast: bool, chart: bool, parallel: Optional[int]) -> str:
    return "\n\n".join(sweep.run(fast, chart, parallel) for sweep in sweeps)


def build_registry(fast: bool, chart: bool = False,
                   parallel: Optional[int] = None
                   ) -> Dict[str, Callable[[], str]]:
    """Experiment name -> a call running its sweeps and returning the
    rendered output (see :data:`repro.harness.figures.EXPERIMENTS`)."""
    return {name: partial(_run, sweeps, fast, chart, parallel)
            for name, sweeps in EXPERIMENTS.items()}


def _run_names(names, registry) -> None:
    """Run the named experiments, printing output and elapsed time."""
    for name in names:
        start = time.perf_counter()  # detlint: ok(wall-clock progress report)
        output = registry[name]()
        elapsed = time.perf_counter() - start  # detlint: ok(progress report)
        print(output)
        print(f"[{name} completed in {elapsed:.1f}s]\n")


def _run_observed(names, registry, args, with_slice: bool) -> int:
    """Run experiments under a recording obs session.

    ``profile`` mode (``with_slice``) prepends a small data-plane slice
    so the trace always carries PPE/RMW/block tracks; ``--obs`` records
    whatever the named experiments themselves probe.
    """
    import json

    from repro import obs

    obs.enable(scope="main")
    try:
        if with_slice:
            stats = exp.profile_dataplane_slice(blocks=3 if args.fast else 6)
            print(f"[dataplane slice: {stats['simulated_s'] * 1e3:.2f} ms "
                  f"simulated, {int(stats['scheduled_events'])} events, "
                  f"{int(stats['blocks_mitigated'])} blocks mitigated]\n")
            flow_stats = exp.profile_flowsim_slice(
                num_flows=100 if args.fast else 300)
            escalations = ", ".join(
                f"{key.split('.', 1)[1]} {int(value)}"
                for key, value in sorted(flow_stats.items())
                if key.startswith("escalations.")
            ) or "none"
            print(f"[flowsim slice: {flow_stats['simulated_s'] * 1e3:.2f} ms "
                  f"simulated, {int(flow_stats['flows'])} flows, "
                  f"{int(flow_stats['solves'])} solves, "
                  f"escalations: {escalations}]\n")
        _run_names(names, registry)
    finally:
        captured = obs.disable()
    chrome = captured.tracer.to_chrome()
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(chrome, fh)
        print(f"[trace: {args.trace} "
              f"({len(chrome['traceEvents'])} events)]")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(captured.registry.to_json() + "\n")
        print(f"[metrics: {args.metrics}]")
    print()
    print(obs.render_timeline(chrome))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's evaluation tables and figures.",
    )
    parser.add_argument(
        "experiments", nargs="*", default=["list"],
        help="experiment names (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="shrink the packet-level sweeps for a quick run",
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="append ASCII charts to figure output (fig13, fig16)",
    )
    parser.add_argument(
        "--parallel", type=int, default=None, metavar="N",
        help="fan independent sweep points across up to N worker "
             "processes (results are bit-identical to a serial run)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="base seed adopted by every simulation Environment; the "
             "default keeps the calibrated per-component streams",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="record observability (metrics + trace) for this run "
             "without the profile mode's data-plane slice",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the Chrome trace_event JSON here (implies --obs)",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="write the metrics snapshot JSON here (implies --obs)",
    )
    args = parser.parse_args(argv)
    if args.parallel is not None and args.parallel < 1:
        parser.error("--parallel must be >= 1")
    # Check output paths now, not after a run that may take minutes.
    for flag, path in (("--trace", args.trace), ("--metrics", args.metrics)):
        if path is None:
            continue
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            print(f"error: {flag} {path}: no directory {folder}",
                  file=sys.stderr)
            return 2
    if args.seed is not None:
        from repro.sim import set_default_seed

        set_default_seed(args.seed)
    registry = build_registry(args.fast, args.chart, args.parallel)

    names = args.experiments
    if names == ["list"]:
        print("available experiments:")
        for name in registry:
            print(f"  {name}")
        print("  all")
        print("modes:")
        print("  profile <experiments...>  "
              "record a trace + metrics (see --trace/--metrics)")
        return 0
    profile = bool(names) and names[0] == "profile"
    if profile:
        names = names[1:]
    if "all" in names:
        names = list(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    if profile or args.obs or args.trace or args.metrics:
        return _run_observed(names, registry, args, with_slice=profile)
    _run_names(names, registry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
