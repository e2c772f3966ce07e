"""Scenario interface for the datacenter traffic generator.

A :class:`TrafficScenario` is a *workload description* on a
:class:`~repro.flowsim.fabric.FabricShape`: given an
:class:`~repro.sim.Environment` and a flow budget it produces a
:class:`~repro.flowsim.flow.FlowSpec` list, drawing every random choice
from the environment's named stream ``traffic/<scenario-name>``.  The
scenario knows nothing about which simulation level will consume the
flows — the adapters in :mod:`repro.traffic.adapters` compile the same
scenario into the fluid level or into wire-format packet streams for
the NF-chain executor (the separation RouteNet-Gauss argues for,
PAPERS.md: workload generation decoupled from the simulation backend).

Concrete scenarios live in :mod:`repro.traffic.scenarios` and are
looked up by name through :mod:`repro.traffic.registry`, a binding of
the one :class:`repro.registry.Registry` type.
"""

from __future__ import annotations

import abc
from random import Random
from typing import List

from repro.flowsim.fabric import FabricShape
from repro.flowsim.flow import FlowSpec
from repro.sim import Environment

__all__ = [
    "TrafficScenario",
]


class TrafficScenario(abc.ABC):
    """One named workload family.

    Subclasses set ``name`` and ``description``, and implement
    :meth:`generate`.  Every random draw must come from
    :meth:`rng` — one named stream per scenario, so a scenario's flow
    list is a pure function of ``(scenario parameters, seed)`` and the
    same whether it is generated in the main process or a ``--parallel``
    worker.
    """

    name: str = ""
    description: str = ""

    def __init__(self, fabric: FabricShape = FabricShape()):
        self.fabric = fabric

    @property
    def stream_key(self) -> str:
        return f"traffic/{self.name}"

    def rng(self, env: Environment) -> Random:
        """The scenario's seed-tree stream in ``env``."""
        return env.rng_stream(self.stream_key)

    @abc.abstractmethod
    def generate(self, env: Environment,
                 num_flows: int) -> List[FlowSpec]:
        """Produce exactly ``num_flows`` flow specs, start-time ordered."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
