"""Canonical hybrid-simulation scenarios: fabric + seeded workload.

One fluid runner (:func:`run_flows`, over the one fabric type,
:class:`~repro.flowsim.fabric.FabricShape`) with one result, and one
workload generator (Poisson arrivals, exponential sizes, with
configurable incast bursts, ``"aggregation"`` traffic that exercises the
PFE escalation path, and straggler hosts) cover the benchmark, the
traffic families, the calibration bridge, and the determinism tests.

Everything is a pure function of the config plus the environment's seed
tree: flow ids, arrival times, sizes, and endpoints come from
``env.rng_stream("flowsim/scenario")``, so two runs with the same
``--seed`` produce byte-identical flow lists in any process layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List

from repro.flowsim.engine import FluidEngine
from repro.flowsim.escalate import (
    EscalationConfig,
    EscalationPolicy,
    reset_reference_caches,
)
from repro.flowsim.fabric import FabricShape, build_leaf_spine, host_name
from repro.flowsim.flow import FlowRecord, FlowSpec
from repro.sim import Environment

__all__ = [
    "ScenarioConfig",
    "ScenarioResult",
    "generate_flows",
    "run_flows",
    "run_scenario",
]


@dataclass(frozen=True)
class ScenarioConfig(FabricShape):
    """The canonical hybrid-simulation workload on its fabric."""

    num_flows: int = 2000
    #: Mean of the exponential flow-size distribution.  Large flows are
    #: where the fluid level earns its keep: per-flow cost is
    #: size-independent.
    mean_flow_bytes: float = 2e6
    #: Offered load as a fraction of aggregate host access bandwidth.
    load: float = 0.5
    #: Fraction of the flow budget spent on synchronised incast bursts.
    incast_fraction: float = 0.05
    incast_degree: int = 12
    incast_flow_bytes: float = 40_000.0
    #: Fraction of the flow budget spent on ``"aggregation"`` bursts
    #: (the PFE hash-contention escalation trigger).  Aggregation
    #: traffic is a synchronised allreduce step: ``aggregation_degree``
    #: workers transmit gradient blocks at the same instant, which is
    #: what drives concurrent PFE hash-path occupancy past the
    #: escalation threshold.
    aggregation_fraction: float = 0.02
    aggregation_degree: int = 6
    #: Aggregation flows are gradient blocks, not bulk transfers: small
    #: and fixed-size.  Their packet-pinned service rate is low (the
    #: contended PFE path), so sizing them like bulk flows would
    #: overload that path and grow the active set without bound.
    aggregation_flow_bytes: float = 50_000.0
    #: Escalation thresholds, the straggling hosts included.
    escalation: EscalationConfig = EscalationConfig(
        straggler_hosts=(host_name(0, 0),))


@dataclass
class ScenarioResult:
    """Outcome of one hybrid run."""

    records: List[FlowRecord]
    summary: Dict[str, float]
    escalations: Dict[str, int]
    #: Simulated time at which the last flow finished (seconds).
    sim_seconds: float
    #: Payload bytes carried to completion across all flows.
    simulated_payload_bytes: float
    solves: int
    #: Events actually pushed onto the simulator heap.  The engine
    #: keeps a single live completion wake-up (reusing or cancelling
    #: the pending one instead of abandoning epoch-stale events on the
    #: heap), so this stays near-linear in flows; the flowsim bench
    #: asserts the bound.
    scheduled_events: int = 0
    #: Wake-up accounting: scheduled / cancelled / reused / stale.
    wake: Dict[str, int] = field(default_factory=dict)


def generate_flows(env: Environment,
                   config: ScenarioConfig) -> List[FlowSpec]:
    """The scenario's flow list, drawn from the environment's seed tree."""
    # Imported here, not at module level: repro.traffic imports this
    # module for the runner (run_flows), so a top-level import back into
    # repro.traffic would be circular.
    from repro.traffic.samplers import (
        Burst,
        ExponentialSizes,
        PoissonArrivals,
        draw_flows,
    )

    return draw_flows(
        env.rng_stream("flowsim/scenario"),
        config.host_names(),
        config.num_flows,
        PoissonArrivals(config.arrival_rate(config.load,
                                            config.mean_flow_bytes)),
        ExponentialSizes(config.mean_flow_bytes),
        # Tried in this order on every arrival; the goldens pin it.
        bursts=(
            # A synchronised allreduce step: `aggregation_degree`
            # workers ship a gradient block to one aggregation point at
            # the same instant.
            Burst(config.aggregation_fraction, config.aggregation_degree,
                  config.aggregation_flow_bytes, "aggregation"),
            # A synchronised fan-in: `incast_degree` short flows from
            # distinct sources arriving at the same instant.
            Burst(config.incast_fraction, config.incast_degree,
                  config.incast_flow_bytes, "incast"),
        ),
    )


def run_flows(fabric: FabricShape, escalation: EscalationConfig,
              flows: Callable[[Environment], Iterable[FlowSpec]]
              ) -> ScenarioResult:
    """Build the fabric, inject the flows, run to completion.

    ``flows`` receives the run's fresh :class:`Environment`, so
    generation draws from that environment's seed tree.
    """
    # Fresh reference caches per run: identical cost and side effects
    # whether this run is serial, in a worker, or after another.
    reset_reference_caches()
    env = Environment()
    topology = build_leaf_spine(env, fabric)
    engine = FluidEngine(env, topology,
                         policy=EscalationPolicy(escalation))
    for spec in flows(env):
        env.call_at(spec.start_s, engine.start_flow, spec)
    env.run()
    return ScenarioResult(
        records=engine.records,
        summary=engine.summary(),
        escalations=engine.escalations,
        sim_seconds=env.now,
        simulated_payload_bytes=engine.completed_payload_bytes,
        solves=engine.solves,
        scheduled_events=env.scheduled_events,
        wake={
            "scheduled": engine.wake_scheduled,
            "cancelled": engine.wake_cancelled,
            "reused": engine.wake_reused,
            "stale": engine.wake_stale,
        },
    )


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """The canonical workload through :func:`run_flows`."""
    return run_flows(config, config.escalation,
                     lambda env: generate_flows(env, config))
