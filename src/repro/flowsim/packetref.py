"""Packet-level reference runs for the hybrid flow simulation.

These are the *ground truth* the fluid level is pinned to.  The two
flow references run a fan-in flow list frame by frame through
:func:`~repro.flowsim.fabric.run_packet_flows` on a one-leaf
:class:`~repro.flowsim.fabric.FabricShape` and return its per-flow
records:

* :func:`packet_pair` — one sender through the leaf to one receiver.
  The no-contention baseline; with a per-packet transmit cost it is
  the straggler reference.
* :func:`packet_fan_in` — N synchronised senders converging on one
  receiver through a single egress (the incast shape).  The measured
  per-flow FCT embeds the queue-drain behaviour an equal-share fluid
  model underestimates for small and medium flows.
* :func:`packet_pfe_goodput` — per-worker goodput of the
  hash-table-contended Trio PFE aggregation path, reusing the §6.3
  single-PFE testbed at small sizing.

Every function is a pure, deterministic function of its arguments (no
RNG, no wall clock), so results may be memoised freely; the engine
caches them per escalation bucket.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.flowsim.fabric import FabricShape, host_name, run_packet_flows
from repro.flowsim.flow import FlowRecord, FlowSpec

__all__ = [
    "fan_in_flows",
    "packet_fan_in",
    "packet_pair",
    "packet_pfe_goodput",
]


def fan_in_flows(senders: int, flow_bytes: float,
                 service: str = "bulk") -> List[FlowSpec]:
    """``senders`` flows of ``flow_bytes`` from hosts 1.. of leaf 0 into
    its host 0, all at t = 0."""
    return [
        FlowSpec(flow_id=index, src=host_name(0, 1 + index),
                 dst=host_name(0, 0), size_bytes=float(flow_bytes),
                 start_s=0.0, service=service)
        for index in range(senders)
    ]


def _one_leaf_fan_in(senders: int, flow_bytes: int, bandwidth_bps: float,
                     tx_overhead_s: float) -> Tuple[FlowRecord, ...]:
    """:func:`fan_in_flows` on a one-leaf fabric just big enough for it,
    every sender paying ``tx_overhead_s`` per packet."""
    fabric = FabricShape(leaves=1, hosts_per_leaf=1 + senders,
                         host_bandwidth_bps=bandwidth_bps)
    flows = fan_in_flows(senders, flow_bytes)
    return tuple(run_packet_flows(
        fabric, flows, {spec.src: tx_overhead_s for spec in flows}))


@lru_cache(maxsize=256)
def packet_fan_in(num_senders: int, flow_bytes: int,
                  bandwidth_bps: float = 100e9) -> Tuple[FlowRecord, ...]:
    """N synchronised senders, one receiver, one bottleneck egress."""
    if num_senders < 1:
        raise ValueError(f"need at least one sender, got {num_senders}")
    return _one_leaf_fan_in(num_senders, flow_bytes, bandwidth_bps, 0.0)


@lru_cache(maxsize=64)
def packet_pair(flow_bytes: int, bandwidth_bps: float = 100e9,
                tx_overhead_s: float = 0.0) -> Tuple[FlowRecord, ...]:
    """One sender through the leaf to one receiver.

    ``tx_overhead_s`` models a straggling host's per-packet DPDK-side
    cost; the measured goodput is then the straggler's sustainable rate.
    """
    return _one_leaf_fan_in(1, flow_bytes, bandwidth_bps, tx_overhead_s)


@lru_cache(maxsize=16)
def packet_pfe_goodput(num_workers: int = 4, grads_per_packet: int = 256,
                       blocks: int = 24, window: int = 8) -> float:
    """Per-worker goodput (bps) of the hash-table-contended PFE path.

    Runs the §6.3 single-PFE aggregation testbed — PPE dispatch, hash
    lookup under contention, RMW aggregation, result multicast — at
    small sizing and reports model bits per worker divided by
    completion time.  This is the packet-derived rate an escalated
    ``"aggregation"`` flow is pinned to.
    """
    from repro.harness.testbed import run_single_pfe_allreduce
    from repro.trioml.config import TrioMLJobConfig

    config = TrioMLJobConfig(grads_per_packet=grads_per_packet,
                             window=window)
    testbed, __ = run_single_pfe_allreduce(config, blocks,
                                           num_workers=num_workers)
    return grads_per_packet * blocks * 32 / testbed.env.now
