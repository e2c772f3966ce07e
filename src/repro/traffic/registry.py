"""Name-keyed registry of traffic scenarios.

A :class:`repro.registry.Registry` binding: the ``harness traffic``
sweep enumerates it and the adapters resolve scenario names here.
"""

from __future__ import annotations

from repro.registry import Registry
from repro.traffic.base import TrafficScenario

__all__ = ["UnknownScenarioError", "available_scenarios", "get_scenario",
           "register_scenario", "unregister_scenario"]


class UnknownScenarioError(ValueError):
    """Raised when a scenario name is not in the registry."""


_SCENARIOS: Registry[TrafficScenario] = Registry(
    "scenario", UnknownScenarioError)

register_scenario = _SCENARIOS.register
unregister_scenario = _SCENARIOS.unregister
get_scenario = _SCENARIOS.get
available_scenarios = _SCENARIOS.names
