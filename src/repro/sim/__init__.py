"""Discrete-event simulation kernel.

This package provides the event-driven foundation for every hardware and
network model in the reproduction: a priority-queue event loop
(:class:`Environment`), generator-based cooperative processes
(:class:`Process`), one-shot :class:`Event` objects, and the shared
synchronisation primitives (:class:`Resource`, :class:`Store`) used to model
thread slots and a host's inbox.  Links, NIC TX rings, RMW engines and
PISA admission are FIFO servers settled in closed form, so they use
neither.

The kernel follows the classic process-interaction style (as popularised by
SimPy): model code is written as Python generator functions that ``yield``
events; the environment resumes each process when the event it waits on
fires.  Simulated time is a ``float`` whose unit is chosen by the model --
all Trio models in this repository use **seconds**.
"""

from repro.sim.core import (
    FLOW_LEVEL_PRIORITY,
    PACKET_LEVEL_PRIORITY,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
    default_seed,
    set_default_seed,
)
from repro.sim.resources import Resource, Store

__all__ = [
    "Environment",
    "Event",
    "FLOW_LEVEL_PRIORITY",
    "PACKET_LEVEL_PRIORITY",
    "Process",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
    "default_seed",
    "set_default_seed",
]
