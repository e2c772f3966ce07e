"""repro.flowsim — the fluid level of the two-level hybrid simulation.

The packet level (:mod:`repro.net`, :mod:`repro.trio`) is the ground
truth, but paying per-packet event cost for every byte caps simulated
traffic at a few megabytes per CPU-second.  This package adds a flow
(fluid) level above it:

* :mod:`repro.flowsim.flow` — flow specs/records and the wire-framing
  maths shared by both levels;
* :mod:`repro.flowsim.solver` — max-min fair share (progressive
  filling) over directed link capacities;
* :mod:`repro.flowsim.engine` — the event-driven
  :class:`~repro.flowsim.engine.FluidEngine`: re-solve on arrival and
  departure, closed-form completion in between, ~2 events per flow
  regardless of flow size;
* :mod:`repro.flowsim.escalate` — the explicit escalation boundary:
  incast fan-in, straggler windows, and hash-table-contended PFE paths
  run at packet level and pin their rates into the solver;
* :mod:`repro.flowsim.fabric` — the leaf/spine ``FabricShape`` both
  levels run on, its builder ``build_leaf_spine`` (store-and-forward
  forwarding by destination at leaves and spine), and the one
  packet-level runner ``run_packet_flows``;
* :mod:`repro.flowsim.packetref` — the cached packet-level references
  escalation is pinned to, each a ``run_packet_flows`` call on one leaf;
* :mod:`repro.flowsim.scenario` — the one fluid runner ``run_flows``
  and the canonical seeded workload for benchmarks and sweeps;
* :mod:`repro.flowsim.calibrate` — the CI-gated calibration bridge
  (``python -m repro.flowsim.calibrate --werror``).
"""

# NOTE: repro.flowsim.calibrate is intentionally NOT imported here (like
# repro.collectives.calibrate): it is an entry point (`python -m
# repro.flowsim.calibrate`), and importing it from the package would
# trigger the runpy double-import warning.
from repro.flowsim.engine import FluidEngine
from repro.flowsim.escalate import (
    EscalationConfig,
    EscalationPolicy,
    reset_reference_caches,
)
from repro.flowsim.fabric import (
    FabricShape,
    build_leaf_spine,
    run_packet_flows,
)
from repro.flowsim.flow import (
    ActiveFlow,
    DEFAULT_MTU_PAYLOAD_BYTES,
    FRAME_OVERHEAD_BYTES,
    FlowRecord,
    FlowSpec,
    mean_fct_s,
    wire_efficiency,
)
from repro.flowsim.packetref import (
    packet_fan_in,
    packet_pair,
    packet_pfe_goodput,
)
from repro.flowsim.scenario import (
    ScenarioConfig,
    ScenarioResult,
    generate_flows,
    run_flows,
    run_scenario,
)
from repro.flowsim.solver import (
    MIN_RATE_BPS,
    PathClassSolver,
    max_min_class_rates,
    max_min_rates,
)

__all__ = [
    "ActiveFlow",
    "DEFAULT_MTU_PAYLOAD_BYTES",
    "EscalationConfig",
    "EscalationPolicy",
    "FRAME_OVERHEAD_BYTES",
    "FabricShape",
    "FlowRecord",
    "FlowSpec",
    "FluidEngine",
    "MIN_RATE_BPS",
    "PathClassSolver",
    "ScenarioConfig",
    "ScenarioResult",
    "build_leaf_spine",
    "generate_flows",
    "max_min_class_rates",
    "max_min_rates",
    "mean_fct_s",
    "packet_fan_in",
    "packet_pair",
    "packet_pfe_goodput",
    "reset_reference_caches",
    "run_flows",
    "run_packet_flows",
    "run_scenario",
    "wire_efficiency",
]
