"""Run the benchmark: every workload, repeated in fresh child processes.

    python bench/run.py [--workload NAME] [--seed S] [--reps N | --seconds T]
                        [--trace [0|1]] [--out PATH] [--pin]

Each (workload, repetition) pair runs ``bench/worker.py`` in a fresh
interpreter, one child at a time.  Repetitions are interleaved round by
round, and the workload order flips on every other round.  The run
prints every end-to-end metric of every workload with its unit,
median, quartiles and sample count, checks the simulated outputs, and
writes the samples to ``--out`` (``bench/out/results.json``).

``--trace`` runs one more, traced child per workload and writes its
per-layer metrics to ``bench/out/<workload>.layers.json`` and its first
spans to ``bench/out/<workload>.trace.json`` (Chrome trace_event).

With ``--seconds T`` repetitions continue while the next one fits in T
seconds per workload (at least three, or one before a traced run).
With a single ``--workload`` the last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones named in
``BENCHMARK.json``).  The exit code is
0 only when every repetition completed every operation, passed every
output check, and produced the same outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT_DIR = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

from layers import LAYER_FIELDS, LAYERS, layer_metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fewest repetitions a ``--seconds`` run makes per workload.
MIN_REPS = 3
#: A traced child costs about this many untraced ones (``--seconds``
#: keeps room for it).
TRACE_COST = 2.5
#: Per-child time limit; a repetition costs a few seconds, so a child
#: this slow is hung.
CHILD_TIMEOUT_S = 120

#: ``failed_frac`` is reported but is not in ``BENCHMARK.json``, whose
#: metrics must never read 0; any increase of it is a regression.
FAILED_FRAC = {"unit": "frac", "better": "lower", "bound": 0.0}


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_child(name: str, seed: Optional[int],
              trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; a crash is a failed rep."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", name]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace_dir is not None:
        cmd += ["--trace", trace_dir]
    wall0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": name, "crashed": f"timed out after "
                f"{CHILD_TIMEOUT_S} s", "wall_s": time.perf_counter() - wall0}
    wall_s = time.perf_counter() - wall0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"workload": name, "wall_s": wall_s,
                "crashed": f"exit {proc.returncode}: " + " | ".join(tail)}
    rep = json.loads(lines[-1])
    rep["wall_s"] = wall_s
    return rep


def _stats(samples: List[float]) -> Dict[str, Any]:
    median = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def attempted(name: str) -> int:
    """Operations one repetition of workload ``name`` attempts."""
    workload = WORKLOADS[name]
    return workload.attempted(**workload.params)


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics of one workload's untraced repetitions."""
    ok = [rep for rep in reps if "crashed" not in rep]
    failed = failed_ops(reps) / sum(attempted(rep["workload"]) for rep in reps)
    metrics: Dict[str, Dict[str, Any]] = {
        "failed_frac": {"median": failed, "q1": failed, "q3": failed,
                        "n": len(reps), "samples": [failed], "unit": "frac"},
    }
    if not ok:
        return metrics
    cpu = _stats([rep["run_cpu_s"] for rep in ok])
    metrics["setup_s"] = {**_stats([rep["setup_s"] for rep in ok]),
                          "unit": "s"}
    metrics["run_cpu_s"] = {**cpu, "unit": "s"}
    # Throughputs divide the (per-seed constant) work by the CPU time:
    # the median by the median, the quartiles by the opposite quartiles.
    for name, key in (("sim_bytes_per_cpu_s", "payload_bytes"),
                      ("ops_per_cpu_s", "ops")):
        work = ok[0][key]
        metrics[name] = {
            "median": work / cpu["median"], "q1": work / cpu["q3"],
            "q3": work / cpu["q1"], "n": cpu["n"],
            "samples": [work / sample for sample in cpu["samples"]],
            "unit": "B/s" if key == "payload_bytes" else "1/s",
        }
    metrics["peak_rss_mb"] = {**_stats([rep["peak_rss_mb"] for rep in ok]),
                              "unit": "MB"}
    # What the normalised times were derived from (not bounded).
    for name, unit in (("raw_setup_s", "s"), ("raw_run_cpu_s", "s"),
                       ("host_speed", "x")):
        metrics[name] = {**_stats([rep[name] for rep in ok]), "unit": unit}
    return metrics


def failed_ops(reps: List[Dict[str, Any]]) -> int:
    """Operations that failed: not completed, or in a repetition that
    crashed or failed an output check (every operation of it)."""
    failed = 0
    for rep in reps:
        if "crashed" in rep or rep["problems"]:
            failed += attempted(rep["workload"])
        else:
            failed += attempted(rep["workload"]) - rep["completed"]
    return failed


def problems_of(reps: List[Dict[str, Any]]) -> List[str]:
    problems: List[str] = []
    for index, rep in enumerate(reps):
        label = "traced run" if rep.get("traced") else f"rep {index}"
        if "crashed" in rep:
            problems.append(f"{label} crashed: {rep['crashed']}")
            continue
        problems += [f"{label}: {text}" for text in rep["problems"]]
        problems += [f"{label}: trace target {spec} missing ({why})"
                     for _, spec, why in rep.get("missing", [])]
        if rep.get("traced"):
            # The tracer's books against the run's own wall clock.
            attributed = sum(layer["self_s"]
                             for layer in rep["layers"].values())
            if abs(attributed - rep["run_wall_s"]) > 0.05 * rep["run_wall_s"]:
                problems.append(
                    f"{label}: layer self times add up to {attributed:.3f} s "
                    f"of a {rep['run_wall_s']:.3f} s run")
    digests = {rep["digest"] for rep in reps if "crashed" not in rep}
    if len(digests) > 1:
        problems.append(f"repetitions disagree: {len(digests)} distinct "
                        f"output digests {sorted(digests)}")
    return problems


def layer_metrics(traced: Dict[str, Any],
                  untraced_cpu_s: float) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric of one traced repetition."""
    units = dict(layer_metric_names())
    values: Dict[str, float] = {}
    for layer, _ in LAYERS:
        for field in LAYER_FIELDS:
            values[f"{layer}.{field}"] = traced["layers"][layer][field]
    values.update(traced["ratios"])
    values["trace.overhead"] = traced["raw_run_cpu_s"] / untraced_cpu_s
    values["trace.unattributed_share"] = (
        traced["layers"]["unattributed"]["share"])
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads in fresh child processes.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed for every simulation (default: the "
                             "harness's calibrated streams)")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--reps", type=int, default=5,
                        help="repetitions per workload (default 5)")
    budget.add_argument("--seconds", type=float, default=None,
                        help="repeat while the next repetition fits in this "
                             "many seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced run per workload")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"))
    parser.add_argument("--pin", action="store_true",
                        help="write this default-seed run's outputs to "
                             "bench/expected.json")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.pin and args.seed is not None:
        parser.error("--pin pins the default seed; drop --seed")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no simulator source under {ROOT}/src", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [args.workload] if args.workload else list(WORKLOADS)

    reps: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    started = time.perf_counter()
    budget_s = (args.seconds or 0.0) * len(names)
    # A traced run needs only the untraced baseline of trace.overhead.
    min_reps = 1 if args.trace else MIN_REPS
    rounds = 0
    while True:
        if args.seconds is None:
            if rounds == args.reps:
                break
        elif rounds >= min_reps:
            # Stop when one more round (plus the traced runs) would not fit.
            last_round = sum(reps[name][-1]["wall_s"] for name in names)
            reserve = TRACE_COST * last_round if args.trace else 0.0
            elapsed = time.perf_counter() - started
            if elapsed + last_round + reserve > budget_s:
                break
        order = names if rounds % 2 == 0 else names[::-1]
        for name in order:
            rep = run_child(name, args.seed)
            reps[name].append(rep)
            print(f"  {name} rep {rounds}: "
                  + (f"CRASHED {rep['crashed']}" if "crashed" in rep else
                     f"run {rep['run_cpu_s']:.3f} CPU-s, "
                     f"set-up {rep['setup_s']:.3f} s"), file=sys.stderr)
        rounds += 1

    traced: Dict[str, Dict[str, Any]] = {}
    if args.trace:
        for name in names:
            traced[name] = run_child(name, args.seed, trace_dir=OUT_DIR)

    results: Dict[str, Any] = {
        "seed": args.seed, "rounds": rounds, "traced": bool(args.trace),
        "workloads": {},
    }
    for name in names:
        all_reps = reps[name] + ([traced[name]] if name in traced else [])
        entry: Dict[str, Any] = {
            "metrics": end_to_end(reps[name]),
            "attempted": attempted(name) * len(all_reps),
            "failed": failed_ops(all_reps),
            "problems": problems_of(all_reps),
        }
        good = [rep for rep in reps[name] if "crashed" not in rep]
        if good:
            entry["digest"] = good[0]["digest"]
            entry["outputs"] = good[0]["outputs"]
        if name in traced and "crashed" not in traced[name] and good:
            entry["layers"] = layer_metrics(
                traced[name], entry["metrics"]["raw_run_cpu_s"]["median"])
            entry["trace_total_s"] = traced[name]["trace_total_s"]
            entry["trace_wall_s"] = traced[name]["run_wall_s"]
            write_json(os.path.join(OUT_DIR, f"{name}.layers.json"), {
                "workload": name, "seed": args.seed,
                "metrics": entry["layers"],
                "trace_total_s": entry["trace_total_s"],
                "run_wall_s": entry["trace_wall_s"],
                "missing": traced[name]["missing"],
            })
        entry["correct"] = not entry["problems"] and not entry["failed"]
        results["workloads"][name] = entry
    write_json(args.out, results)
    if args.pin:
        pin(results)

    print_table(results, spec)
    correct = all(entry["correct"] for entry in results["workloads"].values())
    if len(names) == 1:
        print(json.dumps(driver_line(results["workloads"][names[0]], spec,
                                     bool(args.trace))))
    return 0 if correct else 1


def driver_line(entry: Dict[str, Any], spec: Dict[str, Any],
                traced: bool) -> Dict[str, Any]:
    """The one-line JSON summary of a single-workload run."""
    if traced:
        wanted = spec["per_layer"]
        source = {name: value["value"]
                  for name, value in entry.get("layers", {}).items()}
    else:
        wanted = spec["end_to_end"]
        source = {name: value["median"]
                  for name, value in entry["metrics"].items()}
    metrics = {metric["name"]: {"value": source[metric["name"]],
                                "unit": metric["unit"]}
               for metric in wanted if metric["name"] in source}
    return {"correct": entry["correct"] and len(metrics) == len(wanted),
            "attempted": entry["attempted"], "failed": entry["failed"],
            "metrics": metrics}


def pin(results: Dict[str, Any]) -> None:
    path = os.path.join(BENCH, "expected.json")
    pinned: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path) as handle:
            pinned = json.load(handle)
    for name, entry in results["workloads"].items():
        if "outputs" in entry:
            pinned[name] = entry["outputs"]
    write_json(path, pinned)


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def print_table(results: Dict[str, Any], spec: Dict[str, Any]) -> None:
    names = [metric["name"] for metric in spec["end_to_end"]] + [
        "failed_frac", "raw_setup_s", "raw_run_cpu_s", "host_speed"]
    for workload, entry in results["workloads"].items():
        verdict = "ok" if entry["correct"] else "FAILED"
        print(f"\n{workload}  [{verdict}; outputs {entry.get('digest', '-')}]")
        print(f"  {'metric':<22}{'unit':>7}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'n':>4}")
        for name in names:
            metric = entry["metrics"].get(name)
            if metric is None:
                continue
            print(f"  {name:<22}{metric['unit']:>7}{metric['median']:>14.6g}"
                  f"{metric['q1']:>14.6g}{metric['q3']:>14.6g}"
                  f"{metric['n']:>4}")
        if "layers" in entry:
            layers = entry["layers"]
            top = sorted(((layers[f"{layer}.share"]["value"], layer)
                          for layer, _ in LAYERS), reverse=True)[:5]
            print("  top layers by self share: " + ", ".join(
                f"{layer} {share:.1%}" for share, layer in top))
            print(f"  unattributed "
                  f"{layers['trace.unattributed_share']['value']:.1%}, "
                  f"trace overhead "
                  f"{layers['trace.overhead']['value']:.2f}x")
        for problem in entry["problems"]:
            print(f"  PROBLEM: {problem}")


if __name__ == "__main__":
    sys.exit(main())
