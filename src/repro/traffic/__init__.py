"""Datacenter-scale traffic generation and scenario registry.

ROADMAP item 1: realistic datacenter load at 10^5–10^6-flow scale —
empirical flow-size and interarrival distributions, Zipf popularity
skew, on/off bursts, incast, microburst trains, and DDoS mixes —
grounded in "Traffic Generation for Benchmarking Data Centre Networks"
(Parsonson et al., PAPERS.md).  Everything is seeded through the
``Environment.rng_stream("traffic/...")`` tree, so serial and
``--parallel`` runs are bit-identical.

Layout mirrors the other pluggable subsystems:

* :mod:`~repro.traffic.samplers` — the distribution toolbox and
  :func:`draw_flows`, the one flow-drawing loop;
* :mod:`~repro.traffic.base` — the :class:`TrafficScenario` interface
  (its :class:`FabricShape` is defined in :mod:`repro.flowsim`);
* :mod:`~repro.traffic.registry` — name-keyed scenario lookup
  (``register_scenario`` / ``get_scenario`` / ``available_scenarios``);
* :mod:`~repro.traffic.scenarios` — the six built-in families
  (registered on import);
* :mod:`~repro.traffic.adapters` — compilation into the fluid level
  (:func:`run_fluid`, a :class:`~repro.flowsim.ScenarioResult`) or
  NF-chain packet streams (:func:`packet_stream`).
"""

from repro.flowsim.fabric import FabricShape
from repro.traffic.adapters import (
    packet_stream,
    run_fluid,
)
from repro.traffic.base import TrafficScenario
from repro.traffic.registry import (
    UnknownScenarioError,
    available_scenarios,
    get_scenario,
    register_scenario,
    unregister_scenario,
)
from repro.traffic.samplers import (
    Burst,
    CACHE_SIZE_CDF,
    CDFTableSizes,
    ExponentialSizes,
    LognormalSizes,
    OnOffArrivals,
    ParetoSizes,
    PoissonArrivals,
    WEBSEARCH_SIZE_CDF,
    ZipfPopularity,
    draw_flows,
    fan_in_burst,
)
from repro.traffic.scenarios import (
    BUILTIN_SCENARIOS,
    DDoSScenario,
    FanInScenario,
    MixedScenario,
    register_builtin_scenarios,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "Burst",
    "CACHE_SIZE_CDF",
    "CDFTableSizes",
    "DDoSScenario",
    "ExponentialSizes",
    "FabricShape",
    "FanInScenario",
    "LognormalSizes",
    "MixedScenario",
    "OnOffArrivals",
    "ParetoSizes",
    "PoissonArrivals",
    "TrafficScenario",
    "UnknownScenarioError",
    "WEBSEARCH_SIZE_CDF",
    "ZipfPopularity",
    "available_scenarios",
    "draw_flows",
    "fan_in_burst",
    "get_scenario",
    "packet_stream",
    "register_builtin_scenarios",
    "register_scenario",
    "run_fluid",
    "unregister_scenario",
]
