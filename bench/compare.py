"""Compare two benchmark result files metric by metric.

    python bench/compare.py BASE.json NEW.json

Both files are ``bench/run.py`` outputs (``bench/out/results.json``).
For every (end-to-end metric, workload) pair the verdict is:

* ``unresolved`` — either side's spread (quartile distance over the
  median) is wider than the metric's bound, unless every run of one
  side beats every run of the other;
* ``worse`` / ``better`` — NEW's median moved past the bound (for
  ``setup_s``, past the bound or 0.05 s, whichever is larger);
* ``same`` — otherwise.

Bounds come from ``BENCHMARK.json``.  Each workload is one row.  When
both files hold a traced run, the layers are also ranked by how much
their self time moved.  Exits 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Sequence, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from layers import LAYERS  # noqa: E402
from run import FAILED_FRAC, load_spec  # noqa: E402

#: Smallest set-up regression that counts: interpreter start and
#: imports jitter by tens of milliseconds whatever the code does.
SETUP_FLOOR_S = 0.05


def spread(metric: Dict[str, Any]) -> float:
    median = metric["median"]
    if median == 0:
        return 0.0 if metric["q3"] == metric["q1"] else float("inf")
    return (metric["q3"] - metric["q1"]) / abs(median)


def dominates(new: Sequence[float], base: Sequence[float],
              higher_is_better: bool) -> bool:
    """True when every run of ``new`` beats every run of ``base``."""
    if higher_is_better:
        return min(new) > max(base)
    return max(new) < min(base)


def verdict(name: str, base: Dict[str, Any], new: Dict[str, Any],
            better: str, bound: float) -> Tuple[str, float]:
    """(verdict, signed relative change; > 0 is worse)."""
    higher = better == "higher"
    b, n = base["median"], new["median"]
    if b == n:
        change = 0.0
    elif b == 0:
        change = float("inf")
    else:
        change = (n - b) / abs(b)
    if higher:
        change = -change
    if spread(base) > bound or spread(new) > bound:
        if dominates(new["samples"], base["samples"], higher):
            return "better", change
        if dominates(base["samples"], new["samples"], higher):
            return "worse", change
        return "unresolved", change
    allowed = bound
    if name == "setup_s" and b:
        allowed = max(bound, SETUP_FLOOR_S / abs(b))
    if change > allowed:
        return "worse", change
    if change < -allowed:
        return "better", change
    return "same", change


def compare(base: Dict[str, Any], new: Dict[str, Any],
            spec: Dict[str, Any]) -> Dict[str, Dict[str, Tuple[str, float]]]:
    """workload -> metric -> (verdict, change) for the shared workloads."""
    bounds = {metric["name"]: metric for metric in spec["end_to_end"]}
    bounds["failed_frac"] = {"name": "failed_frac", **FAILED_FRAC}
    table: Dict[str, Dict[str, Tuple[str, float]]] = {}
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        row = {}
        for name, meta in bounds.items():
            if name in base_entry["metrics"] and name in new_entry["metrics"]:
                row[name] = verdict(name, base_entry["metrics"][name],
                                    new_entry["metrics"][name],
                                    meta["better"], meta["bound"])
            else:
                row[name] = ("unresolved", float("nan"))
        table[workload] = row
    return table


def layer_moves(base_entry: Dict[str, Any],
                new_entry: Dict[str, Any]) -> List[Tuple[float, str]]:
    """(self-time change in s, layer), largest move first."""
    moves = []
    for layer, _ in LAYERS:
        key = f"{layer}.self_s"
        delta = (new_entry["layers"][key]["value"]
                 - base_entry["layers"][key]["value"])
        moves.append((delta, layer))
    return sorted(moves, key=lambda move: abs(move[0]), reverse=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Per-metric verdicts between two benchmark results.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.new) as handle:
        new = json.load(handle)
    table = compare(base, new, load_spec())
    if not table:
        print("no workload appears in both files", file=sys.stderr)
        return 2
    metrics = list(next(iter(table.values())))
    print(f"{'workload':<11}" + "".join(f"{name:>24}" for name in metrics))
    for workload, row in table.items():
        cells = "".join(f"{verdict_:>15} {change:+7.1%}"
                        for verdict_, change in row.values())
        print(f"{workload:<11}{cells}")
    for workload in table:
        base_entry = base["workloads"][workload]
        new_entry = new["workloads"][workload]
        if "layers" in base_entry and "layers" in new_entry:
            print(f"\n{workload}: layers by self-time change")
            for delta, layer in layer_moves(base_entry, new_entry)[:8]:
                print(f"  {layer:<24}{delta:+10.4f} s")
    worse = any(verdict_ == "worse" for row in table.values()
                for verdict_, _ in row.values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
