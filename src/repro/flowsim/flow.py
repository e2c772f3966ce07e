"""Flow objects for the fluid (flow-level) simulation layer.

A :class:`FlowSpec` describes what the workload wants — who talks to
whom, how many payload bytes, when — and a :class:`FlowRecord` is what
the engine reports once the flow finishes: completion time, goodput,
and whether the flow was escalated to the packet level (and why).

Sizes are *payload* bytes throughout; the engine derates link capacity
by the Ethernet/IPv4/UDP framing efficiency so flow-level goodput is
comparable with what a packet-level run delivers to the application.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional, Sequence, Tuple

__all__ = ["FlowRecord", "FlowSpec", "FRAME_OVERHEAD_BYTES",
           "DEFAULT_MTU_PAYLOAD_BYTES", "mean_fct_s", "wire_efficiency"]

#: Ethernet (14) + IPv4 (20) + UDP (8) header bytes per frame — the
#: framing :meth:`repro.net.packet.Packet.udp` puts on the wire.
FRAME_OVERHEAD_BYTES = 42

#: Payload bytes per full-sized frame used by the fluid level's framing
#: model and by the packet-level reference scenarios, so both levels
#: carry identical per-frame overhead.
DEFAULT_MTU_PAYLOAD_BYTES = 1458


def wire_efficiency(payload_bytes: int = DEFAULT_MTU_PAYLOAD_BYTES) -> float:
    """Fraction of link bandwidth available to payload at this framing."""
    return payload_bytes / (payload_bytes + FRAME_OVERHEAD_BYTES)


@dataclass(frozen=True)
class FlowSpec:
    """One flow the workload asks for.

    ``service`` tags the flow for the escalation policy: ``"bulk"``
    flows stay at flow level unless a structural trigger (incast
    fan-in) fires; ``"aggregation"`` flows traverse a PFE hash-table
    path and escalate on contention.
    """

    flow_id: int
    src: str
    dst: str
    size_bytes: float
    start_s: float
    service: str = "bulk"

    def __post_init__(self):
        # A chained comparison also rejects NaN and costs little; every
        # drawn flow is built through this check.
        if not 0 < self.size_bytes < inf:
            raise ValueError(
                f"flow size must be positive and finite: {self.size_bytes}")
        if not 0 <= self.start_s < inf:
            raise ValueError(
                f"start time must be non-negative and finite: {self.start_s}")
        if self.src == self.dst:
            raise ValueError(f"flow {self.flow_id} sends to its own "
                             f"source {self.src!r}")


@dataclass
class FlowRecord:
    """What the engine reports for one finished flow."""

    spec: FlowSpec
    #: Simulated completion instant (seconds).
    finish_s: float
    #: Flow completion time including the fixed path latency.
    fct_s: float
    #: Application goodput over the flow's lifetime (bps).
    goodput_bps: float
    #: Packet-level escalation, if any: None, or the policy's reason
    #: string ("incast", "straggler", "pfe-hash").
    escalated: Optional[str] = None

    @property
    def flow_id(self) -> int:
        return self.spec.flow_id


def mean_fct_s(records: Sequence[FlowRecord]) -> float:
    """Mean flow completion time of ``records``, summed in order."""
    return sum(record.fct_s for record in records) / len(records)


@dataclass
class ActiveFlow:
    """Mutable per-flow engine state (internal to the engine).

    Progress accounting lives on the flow's *path class*, not here: the
    engine tracks one cumulative served-bits curve per class and a
    per-class heap of member completion targets.  An elastic flow's
    rate is its class's, so nothing here changes while it runs; only
    an escalated flow carries its own ``rate_bps``, the pinned demand
    the engine shifts per link by deltas when its group's rate moves.
    """

    spec: FlowSpec
    #: Directed-link keys (see the engine) the flow occupies, in path
    #: order.  Doubles as the flow's path-class signature.
    links: Tuple[int, ...]
    #: Fixed latency added to the recorded FCT: propagation plus one
    #: MTU store-and-forward serialisation per hop.
    latency_s: float
    #: Pinned rate of an escalated flow; unused while at flow level.
    rate_bps: float = 0.0
    #: Escalation state: reason string, or None while at flow level.
    escalated: Optional[str] = None
    #: Escalation group key (e.g. the incast destination) used to
    #: recompute packet-derived rates as group membership changes.
    group: Optional[Tuple[str, str]] = None
    #: Simulated instant the flow was escalated (its obs span start).
    escalated_s: float = 0.0
