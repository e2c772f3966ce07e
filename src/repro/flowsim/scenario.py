"""Canonical hybrid-simulation scenarios: fabric + seeded workload.

One fabric type (:class:`FabricShape`, a leaf/spine Clos, the topology
of the paper's testbed rack writ small), one runner (:func:`run_flows`)
with one result, and one workload generator (Poisson arrivals,
exponential sizes, with configurable incast bursts, ``"aggregation"``
traffic that exercises the PFE escalation path, and straggler hosts)
cover the benchmark, the traffic families, the calibration bridge, and
the determinism tests.

Everything is a pure function of the config plus the environment's seed
tree: flow ids, arrival times, sizes, and endpoints come from
``env.rng_stream("flowsim/scenario")``, so two runs with the same
``--seed`` produce byte-identical flow lists in any process layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Tuple

from repro.flowsim.engine import FluidEngine
from repro.flowsim.escalate import (
    EscalationConfig,
    EscalationPolicy,
    reset_reference_caches,
)
from repro.flowsim.flow import FlowRecord, FlowSpec
from repro.net import IPv4Address, MACAddress, Topology
from repro.net.host import Host
from repro.net.link import Port
from repro.sim import Environment

__all__ = [
    "FabricShape",
    "ScenarioConfig",
    "ScenarioResult",
    "build_leaf_spine",
    "generate_flows",
    "run_flows",
    "run_scenario",
]


def host_name(leaf: int, index: int) -> str:
    return f"h{leaf:02d}-{index:02d}"


@dataclass(frozen=True)
class FabricShape:
    """A single-spine leaf/spine Clos with oversubscribed uplinks.

    Hosts are named ``h<leaf>-<index>`` and addressed
    ``10.<leaf>.0.<index + 1>``; :func:`build_leaf_spine` builds it.
    """

    leaves: int = 4
    hosts_per_leaf: int = 16
    host_bandwidth_bps: float = 100e9
    #: Leaf->spine uplink speed; at the default 800G a leaf of sixteen
    #: 100G hosts is 2:1 oversubscribed, so uplinks genuinely contend
    #: (uplink utilisation ~0.76 at the default load) while the system
    #: stays stable — offered load must remain below every bottleneck
    #: or the active-flow set grows without bound.
    uplink_bandwidth_bps: float = 800e9
    propagation_s: float = 1e-6

    def __post_init__(self) -> None:
        if self.leaves < 1 or self.hosts_per_leaf < 1:
            raise ValueError(
                f"fabric needs >= 1 leaf and host: {self.leaves}, "
                f"{self.hosts_per_leaf}"
            )

    @property
    def num_hosts(self) -> int:
        return self.leaves * self.hosts_per_leaf

    @property
    def aggregate_access_bps(self) -> float:
        return self.num_hosts * self.host_bandwidth_bps

    def arrival_rate(self, load: float, mean_flow_bytes: float) -> float:
        """Poisson flow starts per second that offer ``load`` of the
        aggregate host access bandwidth at this mean flow size."""
        return self.aggregate_access_bps * load / (mean_flow_bytes * 8.0)

    def host_names(self) -> List[str]:
        return [host_name(leaf, index)
                for leaf in range(self.leaves)
                for index in range(self.hosts_per_leaf)]

    def host_address(self, host_index: int) -> Tuple[int, int]:
        """(leaf, index-within-leaf) of a flat host index."""
        return divmod(host_index, self.hosts_per_leaf)

    def host_ip(self, leaf: int, index: int) -> IPv4Address:
        return IPv4Address(f"10.{leaf}.0.{index + 1}")


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


def build_leaf_spine(env: Environment,
                     fabric: FabricShape) -> Topology:
    """The fabric's hosts, leaves, and spine, wired up in ``env``."""
    topology = Topology(env)
    for leaf in range(fabric.leaves):
        for index in range(fabric.hosts_per_leaf):
            host = Host(
                env,
                host_name(leaf, index),
                MACAddress(0x0200_0000 + leaf * 256 + index),
                fabric.host_ip(leaf, index),
            )
            topology.add_host(host)
            down = Port(env, f"leaf{leaf}:down{index}")
            topology.register_port(down, f"leaf{leaf}")
            topology.connect(
                host.nic.port, down,
                bandwidth_bps=fabric.host_bandwidth_bps,
                propagation_delay_s=fabric.propagation_s,
            )
        up = Port(env, f"leaf{leaf}:up")
        topology.register_port(up, f"leaf{leaf}")
        spine_port = Port(env, f"spine:leaf{leaf}")
        topology.register_port(spine_port, "spine")
        topology.add_device(f"leaf{leaf}", up)
        topology.connect(
            up, spine_port,
            bandwidth_bps=fabric.uplink_bandwidth_bps,
            propagation_delay_s=fabric.propagation_s,
        )
    topology.add_device("spine", None)
    return topology


def generate_flows(env: Environment,
                   config: ScenarioConfig) -> List[FlowSpec]:
    """The scenario's flow list, drawn from the environment's seed tree."""
    # Imported here, not at module level: repro.traffic imports this
    # module for the fabric and the runner (FabricShape, run_flows), so
    # a top-level import back into repro.traffic would be circular.
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
