"""The benchmark's workloads: the public call each one times, the outputs
it checks, and the invariants that hold on any seed.

Each workload calls the experiment driver a user runs, at a fixed size
(``params``) chosen so one repetition costs a few CPU-seconds on a
small machine.  Tests pass smaller ``params`` to the same functions.
``outputs`` turns the experiment driver's result into counts and floats;
:func:`digest` fingerprints them, and :func:`check` compares them with
the pinned default-seed values and the seed-independent invariants.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["WORKLOADS", "Workload", "check", "digest"]

Outputs = Dict[str, Dict[str, Any]]

#: Workers per Figure 16 sweep point (``experiments._fig16_point``).
FIG16_WORKERS = 4

#: Relative tolerance for pinned floats: loose enough for a re-pin
#: that only changes rounding, tight enough to catch a model change.
FLOAT_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark."""

    name: str
    why: str
    #: Modules imported during set-up, before the timed run.
    modules: Tuple[str, ...]
    #: ``run(**params)`` is the timed call; returns the experiment's result.
    run: Callable[..., Any]
    #: ``outputs(result, **params)`` -> {"counts": ..., "floats": ...}.
    outputs: Callable[..., Outputs]
    #: ``invariants(outputs, **params)`` -> failure messages.
    invariants: Callable[..., List[str]]
    #: ``attempted(**params)``: operations one repetition attempts
    #: (flows; sweep points for ``fig16``).
    attempted: Callable[..., int]
    #: Output count of the operations that completed.
    completed_key: str
    #: Output count of the work units behind ``ops_per_cpu_s``.
    ops_key: str
    params: Dict[str, Any]

    def setup(self) -> None:
        for module in self.modules:
            importlib.import_module(module)


# -- fig16 -----------------------------------------------------------------


def _fig16_blocks(window: int) -> int:
    # The sweep's own default sizing (experiments.fig16_window_sweep).
    return max(128, min(2 * window, window + 1024))


def run_fig16(windows: Tuple[int, ...], grad_counts: Tuple[int, ...]):
    from repro.harness.experiments import fig16_window_sweep

    return fig16_window_sweep(windows=windows, grad_counts=grad_counts)


def _fig16_outputs(result, windows, grad_counts) -> Outputs:
    floats: Dict[str, float] = {}
    packets = payload = 0
    for grads, rows in sorted(result.items()):
        for row in rows:
            floats[f"g{grads}.w{row.window}.latency_us"] = row.latency_us
            floats[f"g{grads}.w{row.window}.throughput_gbps"] = (
                row.throughput_gbps)
            # Every block is one aggregation packet per worker.
            sent = FIG16_WORKERS * _fig16_blocks(row.window)
            packets += sent
            payload += sent * grads * 4
    return {
        "counts": {
            "rows": sum(len(rows) for rows in result.values()),
            "packets": packets,
        },
        "floats": {"payload_bytes": float(payload), **floats},
    }


def _fig16_invariants(out: Outputs, windows, grad_counts) -> List[str]:
    floats = out["floats"]
    problems = []
    expected = len(windows) * len(grad_counts)
    if out["counts"]["rows"] != expected:
        problems.append(f"fig16 has {out['counts']['rows']} rows, "
                        f"expected {expected}")
    for grads in grad_counts:
        series = [floats.get(f"g{grads}.w{w}.throughput_gbps", math.nan)
                  for w in windows]
        if any(not later >= earlier
               for earlier, later in zip(series, series[1:])):
            problems.append(f"fig16 Trio-ML-{grads} throughput decreases "
                            f"with window: {series}")
    return problems


# -- fluid workloads -------------------------------------------------------


def run_hybrid(num_flows: int):
    from repro.flowsim import ScenarioConfig, run_scenario

    return run_scenario(ScenarioConfig(num_flows=num_flows))


def instance_seeds(instances: int) -> List[Any]:
    """Seeds of a workload's independent instances: the process default
    seed first, then seeds derived from it."""
    from repro.sim import default_seed

    base = default_seed()
    label = "default" if base is None else base
    return [base] + [f"{label}/{k}" for k in range(1, instances)]


def run_traffic(scenario: str, num_flows: int, instances: int,
                chain_packets: int):
    """``instances`` independent draws of one traffic family.

    A family's cost depends on which hosts its draw makes hot: on
    ``cache`` the live class set, and with it the cost of a solve,
    differs by a third between seeds at any flow count.  Independent
    draws average that out where one long draw does not.
    """
    from repro.harness.experiments import traffic_sweep
    from repro.sim import set_default_seed

    seeds = instance_seeds(instances)
    rows = []
    try:
        for seed in seeds:
            set_default_seed(seed)
            rows += traffic_sweep(scenarios=[scenario], num_flows=num_flows,
                                  chain_packets=chain_packets)
    finally:
        set_default_seed(seeds[0])
    return rows


def _fluid_counts(flows: int, solves: int,
                  escalations: Dict[str, int]) -> Dict[str, int]:
    counts = {"flows": flows, "solves": solves}
    for reason, count in sorted(escalations.items()):
        counts[f"escalations.{reason}"] = count
    return counts


def _hybrid_outputs(result, num_flows: int) -> Outputs:
    from repro.flowsim import ScenarioConfig, generate_flows
    from repro.sim import Environment

    offered = generate_flows(Environment(), ScenarioConfig(num_flows=num_flows))
    summary = result.summary
    return {
        "counts": _fluid_counts(len(result.records), result.solves,
                                result.escalations),
        "floats": {
            "payload_bytes": result.simulated_payload_bytes,
            "offered_bytes": math.fsum(spec.size_bytes for spec in offered),
            "sim_seconds": result.sim_seconds,
            "mean_fct_s": summary["mean_fct_s"],
            "p99_fct_s": summary["p99_fct_s"],
            "mean_goodput_bps": summary["mean_goodput_bps"],
        },
    }


def _traffic_outputs(rows, scenario: str, num_flows: int, instances: int,
                     chain_packets: int) -> Outputs:
    from repro.sim import Environment, set_default_seed
    from repro.traffic import get_scenario

    seeds = instance_seeds(instances)
    offered = 0.0
    try:
        for seed in seeds:
            set_default_seed(seed)
            specs = get_scenario(scenario).generate(Environment(), num_flows)
            offered += math.fsum(spec.size_bytes for spec in specs)
    finally:
        set_default_seed(seeds[0])
    escalations: Dict[str, int] = {}
    for row in rows:
        for reason, count in row.escalations.items():
            escalations[reason] = escalations.get(reason, 0) + count
    counts = _fluid_counts(sum(row.flows for row in rows),
                           sum(row.solves for row in rows), escalations)
    for key in ("chain_packets", "forwarded", "dropped", "consumed"):
        counts[key] = sum(getattr(row, key) for row in rows)
    floats = {
        "payload_bytes": math.fsum(row.simulated_gbytes * 1e9
                                   for row in rows),
        "offered_bytes": offered,
    }
    for index, row in enumerate(rows):
        floats.update({
            f"i{index}.sim_seconds": row.sim_seconds,
            f"i{index}.mean_fct_s": row.mean_fct_ms / 1e3,
            f"i{index}.p99_fct_s": row.p99_fct_ms / 1e3,
            f"i{index}.mean_goodput_bps": row.mean_goodput_gbps * 1e9,
        })
    return {"counts": counts, "floats": floats}


def _fluid_invariants(out: Outputs, num_flows: int, instances: int = 1,
                      chain_packets: int = 0, **_) -> List[str]:
    counts, floats = out["counts"], out["floats"]
    problems = []
    offered = num_flows * instances
    if counts["flows"] != offered:
        problems.append(f"{counts['flows']} of {offered} flows completed")
    # The engine sums sizes in completion order, the check in arrival
    # order, so the two agree to rounding, not bit for bit.
    if not math.isclose(floats["payload_bytes"], floats["offered_bytes"],
                        rel_tol=1e-9):
        problems.append(f"completed payload {floats['payload_bytes']!r} B "
                        f"!= offered {floats['offered_bytes']!r} B")
    if "chain_packets" in counts:
        sent = chain_packets * instances
        judged = counts["forwarded"] + counts["dropped"] + counts["consumed"]
        if not counts["chain_packets"] == judged == sent:
            problems.append(f"chain judged {judged} of "
                            f"{counts['chain_packets']} packets, "
                            f"expected {sent}")
    return problems


def _flows(num_flows: int, instances: int = 1, **_) -> int:
    return num_flows * instances


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload(
            name="fig16",
            why="the costliest paper figure, all on the packet path "
                "(sim, net, trio, trioml) with no flowsim code: the control "
                "for fluid-level work",
            modules=("repro.harness.experiments",),
            run=run_fig16,
            outputs=_fig16_outputs,
            invariants=_fig16_invariants,
            attempted=lambda windows, grad_counts: (
                len(windows) * len(grad_counts)),
            completed_key="rows",
            ops_key="packets",
            # Figure 16 up to window 256 (10 points).  Windows 1024 and
            # 4096 need 2048 and 5120 blocks a point and alone would
            # cost ~30 CPU-s a repetition.
            params={"windows": (1, 4, 16, 64, 256),
                    "grad_counts": (512, 1024)},
        ),
        Workload(
            name="hybrid",
            why="canonical leaf/spine flow-vs-packet scenario with "
                "elephants; the only one firing all three escalation "
                "reasons and the Trio reference microsim",
            modules=("repro.flowsim",),
            run=run_hybrid,
            outputs=_hybrid_outputs,
            invariants=_fluid_invariants,
            attempted=_flows,
            completed_key="flows",
            ops_key="flows",
            params={"num_flows": 10_000},
        ),
        Workload(
            name="cache",
            why="16 draws of 3000 tiny flows over a small live set, plus "
                "4096 chain packets: per-call overhead, admission, "
                "escalation and generation weigh most",
            modules=("repro.harness.experiments",),
            run=run_traffic,
            outputs=_traffic_outputs,
            invariants=_fluid_invariants,
            attempted=_flows,
            completed_key="flows",
            ops_key="flows",
            params={"scenario": "cache", "num_flows": 3000, "instances": 16,
                    "chain_packets": 256},
        ),
        Workload(
            name="websearch",
            why="4 draws of 2500 elephant-tailed flows over a large live "
                "class set, plus 4096 chain packets: water-filling itself "
                "dominates",
            modules=("repro.harness.experiments",),
            run=run_traffic,
            outputs=_traffic_outputs,
            invariants=_fluid_invariants,
            attempted=_flows,
            completed_key="flows",
            ops_key="flows",
            params={"scenario": "websearch", "num_flows": 2500,
                    "instances": 4, "chain_packets": 1024},
        ),
    )
}


def digest(out: Outputs) -> str:
    """Fingerprint of a repetition's outputs (floats at full precision)."""
    text = json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check(workload: Workload, out: Outputs, params: Dict[str, Any],
          pinned: Optional[Outputs]) -> List[str]:
    """Failure messages for one repetition's outputs.

    ``pinned`` holds the default-seed outputs, or None on another seed,
    where only the invariants apply.  Counts must match exactly, floats
    to :data:`FLOAT_RTOL`.
    """
    problems = workload.invariants(out, **params)
    if pinned is None:
        return problems
    for kind in ("counts", "floats"):
        for key in out[kind].keys() ^ pinned[kind].keys():
            problems.append(f"{kind} key {key!r} is in only one of the "
                            "outputs and the pinned values")
    for key, want in pinned["counts"].items():
        got = out["counts"].get(key)
        if key in out["counts"] and got != want:
            problems.append(f"{key} = {got!r}, pinned {want!r}")
    for key, want in pinned["floats"].items():
        got = out["floats"].get(key)
        if got is not None and not math.isclose(got, want,
                                                rel_tol=FLOAT_RTOL):
            problems.append(f"{key} = {got!r}, pinned {want!r}")
    return problems
