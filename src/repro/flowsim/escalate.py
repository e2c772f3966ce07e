"""The escalation boundary between the flow level and the packet level.

The fluid engine is exact for long-lived, steady flows sharing links
fairly — precisely the regime where packet fidelity is wasted CPU.  It
is *wrong* where contention dynamics matter:

* **incast fan-in** — many synchronised flows converging on one host;
  queue-drain ordering and store-and-forward tails make measured FCTs
  worse than an equal-share rate predicts, especially for short flows;
* **straggler windows** — a host whose per-packet (DPDK-side) cost, not
  the wire, bounds its rate;
* **hash-table-contended PFE paths** — ``"aggregation"`` service flows
  that traverse a Trio PFE, whose goodput is set by PPE dispatch, hash
  contention, and the RMW complex, not by link fair share.

The :class:`EscalationPolicy` classifies flows at arrival into one of
these reasons (or none) and, for escalated flows, supplies a *pinned*
rate derived from a matched packet-level reference run
(:mod:`repro.flowsim.packetref`).  A group's pinned rate is recomputed
whenever its membership changes (an incast with 12 members is a
different packet-level system than one with 3) and enters the max-min
solver as inelastic demand; elastic flows share what remains.

Reference runs are memoised per bucket and executed with observability
suppressed (their internal timelines are unrelated to the outer
simulation); the caches are process-local and deterministic, so cache
hits can never change a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.flowsim.flow import ActiveFlow, FlowSpec, mean_fct_s
from repro.flowsim import packetref
from repro.obs import bus as _obs

__all__ = [
    "EscalationConfig",
    "EscalationPolicy",
    "reset_reference_caches",
]


def reset_reference_caches() -> None:
    """Drop every memoised packet-level reference result.

    Sweep harnesses call this at the start of each independent point so
    a point's work is a pure function of its arguments in any process
    layout (the cached values are deterministic, so this is about
    keeping each point's *cost and side effects* identical too — packet
    ids drawn, reference simulations run — not its results).
    """
    packetref.packet_fan_in.cache_clear()
    packetref.packet_pair.cache_clear()
    packetref.packet_pfe_goodput.cache_clear()


def _degree_bucket(n: int, lo: int = 2, hi: int = 32) -> int:
    """Smallest power of two >= n, clamped to [lo, hi].

    Bucketing keeps the set of distinct packet-level reference runs
    small (and cacheable) while tracking the contention level that
    actually changes the measured behaviour.
    """
    bucket = lo
    while bucket < n and bucket < hi:
        bucket *= 2
    return bucket


@dataclass(frozen=True)
class EscalationConfig:
    """Declarative thresholds for the escalation boundary."""

    #: Fan-in (concurrent flows converging on one host) at or above
    #: which arriving flows are contention-critical.
    incast_degree: int = 8
    #: Flows larger than this stay fluid even inside an incast: a long
    #: flow's FCT is dominated by its steady share, which the fluid
    #: level already models.
    incast_max_flow_bytes: float = 256_000.0
    #: Hosts whose transmit side straggles (per-packet host cost).
    straggler_hosts: Tuple[str, ...] = ()
    #: The straggling host's per-packet cost, handed to the reference
    #: run (2 us/packet caps a 1458 B payload stream at ~5.8 Gbps).
    straggler_tx_overhead_s: float = 2e-6
    #: Concurrent ``"aggregation"`` flows at or above which the PFE
    #: hash path is considered contended.
    pfe_contention_threshold: int = 4
    #: Per-flow payload bytes of the incast/straggler reference runs.
    reference_flow_bytes: int = 20_000
    #: Fan-in at or above which ``"microburst"``-tagged flows (the
    #: traffic library's back-to-back fan-in trains) escalate.  Lower
    #: than the generic incast threshold: a microburst wave is all
    #: queue-drain transient, so the fluid model is wrong earlier.
    microburst_degree: int = 6
    #: Fan-in at or above which ``"ddos"``-tagged flood flows escalate.
    #: Higher than the incast threshold: a volley below this is noise
    #: the fair-share model absorbs; at or above it the victim's drain
    #: queue is the system.
    ddos_degree: int = 16


class EscalationPolicy:
    """Classifies flows and derives packet-pinned rates for them."""

    def __init__(self, config: Optional[EscalationConfig] = None):
        self.config = config or EscalationConfig()
        self._stragglers = {name: True
                            for name in self.config.straggler_hosts}
        #: reason -> escalation count (mirrors the obs counter, readable
        #: without a session).
        self.escalations: Dict[str, int] = {}

    # -- classification -------------------------------------------------

    def classify(self, spec: FlowSpec, engine) -> Optional[str]:
        """Reason string if ``spec`` must run at packet level, else None.

        Called at flow arrival, after the engine has counted the flow
        (so fan-in and service counts include the arriving flow).
        """
        config = self.config
        if spec.src in self._stragglers:
            return "straggler"
        if (spec.service == "aggregation"
                and engine.service_count("aggregation")
                >= config.pfe_contention_threshold):
            return "pfe-hash"
        dst_is_host = spec.dst in engine.topology.hosts
        fan_in = engine.fan_in(spec.dst) if dst_is_host else 0
        # Service-tagged fan-in classes from the traffic library.  Both
        # are gated on their tag, so workloads that never emit them
        # (every pre-traffic scenario) classify exactly as before.
        if (spec.service == "microburst"
                and fan_in >= config.microburst_degree):
            return "microburst"
        if spec.service == "ddos" and fan_in >= config.ddos_degree:
            return "ddos"
        if (dst_is_host
                and fan_in >= config.incast_degree
                and spec.size_bytes <= config.incast_max_flow_bytes):
            return "incast"
        return None

    def group_key(self, spec: FlowSpec, reason: str) -> Tuple[str, str]:
        """Escalated flows sharing a group share one packet reference."""
        if reason in ("incast", "microburst", "ddos"):
            return (reason, spec.dst)
        if reason == "pfe-hash":
            return ("pfe-hash", "pfe")
        return ("straggler", spec.src)

    # -- packet-derived rates -------------------------------------------

    def pinned_rate(self, group: Tuple[str, str],
                    members: List[ActiveFlow], engine) -> float:
        """The pinned rate (bps) every member of one escalation group
        runs at.

        A pure function of the group's membership: the reference lookup
        is keyed by the group's degree bucket, so the engine recomputes
        it only when membership changes.
        """
        reason = group[0]
        config = self.config
        with _obs.suppressed():
            if reason in ("incast", "microburst", "ddos"):
                # All three are fan-in regimes: the victim's drain
                # queue, not the fair share, sets the rate, so one
                # bucketed fan-in reference covers them.
                degree = _degree_bucket(len(members))
                bottleneck = engine.group_bottleneck_bps(members)
                ref = packetref.packet_fan_in(
                    degree, config.reference_flow_bytes,
                    bandwidth_bps=bottleneck,
                )
                rate = config.reference_flow_bytes * 8 / mean_fct_s(ref)
            elif reason == "straggler":
                ref = packetref.packet_pair(
                    config.reference_flow_bytes,
                    bandwidth_bps=engine.group_bottleneck_bps(members),
                    tx_overhead_s=config.straggler_tx_overhead_s,
                )
                rate = config.reference_flow_bytes * 8 / mean_fct_s(ref)
            else:  # pfe-hash
                per_worker = packetref.packet_pfe_goodput()
                rate = per_worker / max(1, len(members))
        return rate

    # -- bookkeeping ----------------------------------------------------

    def record(self, spec: FlowSpec, reason: str, now_s: float) -> None:
        """Count the escalation and emit the obs instant."""
        self.escalations[reason] = self.escalations.get(reason, 0) + 1
        obs = _obs.session()
        if obs is not None:
            obs.probe("flowsim.escalations", reason=reason)
            obs.instant(
                f"escalate:{reason}", now_s, track="flowsim/escalations",
                flow=spec.flow_id, src=spec.src, dst=spec.dst,
                reason=reason,
            )
