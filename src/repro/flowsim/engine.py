"""Event-driven fluid flow engine — the fast level of the hybrid.

Long-lived flows are modelled as rates, not packet streams.  Between
*re-solve points* nothing needs simulating at all: every flow drains at
its allocated rate and the earliest projected completion is known in
closed form.  The engine therefore schedules exactly two kinds of
events:

* a **re-solve** whenever the flow set changes (arrival or departure),
  coalesced per timestamp so an incast burst of N arrivals pays one
  solve, not N.  When nothing else is due at that instant the solve
  would be the next event anyway, so it runs in place and costs no
  event;
* a **completion wake-up** at the projected earliest finish.  One live
  wake-up exists at a time: when a re-solve moves the projection
  earlier the pending wake-up is cancelled and replaced, and when it
  moves later the pending wake-up is reused (it fires early, sees the
  newer projection, and re-aims without solving).

Both run in the flow-level scheduling lane
(:data:`repro.sim.FLOW_LEVEL_PRIORITY`): at any shared timestamp every
packet-level event settles first, then the fluid level observes the
result and re-allocates.  A solve run in place has no such event to
wait for.

Rate allocation is **two-level**.  Flows sharing one directed-link
signature form a *path class*, and the incremental
:class:`~repro.flowsim.solver.PathClassSolver` allocates per class —
O(distinct paths) variables, not O(flows) — from per-link state kept
alive across solves.  The engine mirrors that structure in its
progress accounting: each class carries one cumulative served-bits
curve and a heap of member completion targets, so a re-solve touches
each class whose allocation changed once, whatever its member count;
classes whose rate and membership held pay nothing — no drain sweep,
no curve rebase, no dict rebuild.  Per-flow fluid state lives only
here: the topology's hosts and links carry none.
Rates come from max-min fair share over the directed link capacities
of a :class:`repro.net.Topology`, derated by Ethernet/IPv4/UDP framing
so fluid goodput and packet goodput are the same currency.

Flows the :class:`~repro.flowsim.escalate.EscalationPolicy` marks
contention-critical are *escalated*: their rate is pinned to a matched
packet-level reference measurement instead of a fair share, and the
solver treats that demand as inelastic.  Escalation groups are pinned
pseudo-classes: the group rate is a pure function of membership (see
``escalate.py``), so it is recomputed only when membership changes and
its per-link demand is maintained by deltas.  Escalations are visible
to :mod:`repro.obs` as counters, instants, and simulated-time spans,
so a profile shows exactly where the packet level was entered and why.

Cost model: a re-solve costs what its deltas reach.  The solver
re-levels the region of classes an arrival or departure can reach along
the last solve's bottleneck structure (a few of ~50-100 live classes on
the bench workloads), and the engine then rebases the changed classes
only.  A delta on a shared bottleneck that reaches half of the live
classes costs one full solve, O(path classes).  There are ~2 heap
events per flow in total (2.05 on the canonical 10⁴-flow scenario: its
arrival and about one completion wake-up), independent of flow *size*
— which is where the simulated-bytes-per-CPU-second advantage over the
packet level comes from.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import inf as _INF
from typing import Dict, List, Optional, Tuple

from repro.flowsim.escalate import EscalationPolicy
from repro.flowsim.flow import (
    ActiveFlow,
    DEFAULT_MTU_PAYLOAD_BYTES,
    FRAME_OVERHEAD_BYTES,
    FlowRecord,
    FlowSpec,
    wire_efficiency,
)
from repro.flowsim.solver import PathClassSolver
from repro.net.topology import Topology
from repro.obs import bus as _obs
from repro.sim import FLOW_LEVEL_PRIORITY, Environment

__all__ = ["FluidEngine"]

#: Residual-bits tolerance under which a flow counts as finished.  The
#: wake-up fires at the exact projected instant, so the residual is pure
#: float rounding — many orders of magnitude below one bit.
_COMPLETION_EPS_BITS = 1.0
#: Stale finish-heap entries tolerated beyond two per live class before
#: a solve drops them, so short runs never compact.
_FINISH_HEAP_SLACK = 64


class _PathClass:
    """One solver variable's worth of engine state.

    Elastic classes are keyed by their directed-link signature; pinned
    (escalated) classes by their escalation-group key, with
    ``links=None`` because members may take different paths while
    sharing one packet-derived rate.

    Progress is a single cumulative curve ``bits(t) = bits + rate_bps *
    (t - t_base)`` — the bits served to *each* member since the class
    was created.  A member arriving when the curve reads ``b`` finishes
    when the curve reaches ``b + size_bits``; those targets live in a
    min-heap, so the class's next completion is ``targets[0]``
    regardless of member count.  ``version`` stamps entries the engine
    pushes into its global finish heap: bumping it on any rate or
    membership change invalidates stale projections lazily, with no
    heap surgery until a solve finds them outnumbering the live
    classes.
    """

    __slots__ = ("links", "flows", "targets", "rate_bps", "bits",
                 "t_base", "version")

    def __init__(self, links: Optional[Tuple[int, ...]], now: float):
        self.links = links
        self.flows: Dict[int, ActiveFlow] = {}
        self.targets: List[Tuple[float, int]] = []
        self.rate_bps = 0.0
        self.bits = 0.0
        self.t_base = now
        self.version = 0


class FluidEngine:
    """Runs fluid flows over a topology inside a simulation environment."""

    def __init__(self, env: Environment, topology: Topology,
                 policy: Optional[EscalationPolicy] = None,
                 payload_bytes: int = DEFAULT_MTU_PAYLOAD_BYTES):
        self.env = env
        self.topology = topology
        self.policy = policy or EscalationPolicy()
        self.payload_bytes = payload_bytes
        self._efficiency = wire_efficiency(payload_bytes)

        #: (link id, tx port name) -> directed-link key; keys number
        #: directions in creation order, deterministic because paths
        #: resolve deterministically.
        self._dir_key: Dict[Tuple[int, str], int] = {}
        self._capacity_bps: Dict[int, float] = {}
        self._path_cache: Dict[Tuple[str, str],
                               Tuple[Tuple[int, ...], float]] = {}

        self.active: Dict[int, ActiveFlow] = {}
        self.records: List[FlowRecord] = []
        self._service_counts: Dict[str, int] = {}
        self._fan_in: Dict[str, int] = {}

        # Two-level allocation state, alive across solves.
        self._solver = PathClassSolver(self._capacity_bps)
        #: link signature -> elastic class.
        self._classes: Dict[Tuple[int, ...], _PathClass] = {}
        #: escalation-group key -> pinned class.  Pinned per-link demand
        #: lives inside the solver, maintained by pin() deltas.
        self._groups: Dict[Tuple[str, str], _PathClass] = {}
        #: insertion-ordered sets (dicts) of classes whose membership
        #: changed since the last solve; cleared by the solve.
        self._dirty_classes: Dict[Tuple[int, ...], None] = {}
        self._dirty_groups: Dict[Tuple[str, str], None] = {}
        #: global min-heap of (finish_s, class version at push, seq,
        #: class); entries whose version lags the class's are stale.
        self._finish_heap: List[Tuple[float, int, int, _PathClass]] = []
        self._finish_seq = 0
        self._next_finish_s = _INF

        self._solve_pending = False
        #: the single live completion wake-up, if any.
        self._wake_handle = None
        self._wake_at = _INF

        # Aggregate statistics (kept unconditionally; cheap).
        self.solves = 0
        self.completed_payload_bytes = 0.0
        self.escalated_completions = 0
        #: wake-up bookkeeping: scheduled = events actually pushed,
        #: cancelled = pending wakes invalidated by an earlier
        #: projection, reused = re-solves that kept the pending wake,
        #: stale = wakes that fired early and re-aimed without solving.
        self.wake_scheduled = 0
        self.wake_cancelled = 0
        self.wake_reused = 0
        self.wake_stale = 0

    # -- topology resolution --------------------------------------------

    def _resolve_path(self, src: str, dst: str
                      ) -> Tuple[Tuple[int, ...], float]:
        """Directed-link keys plus fixed path latency for ``src -> dst``."""
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        hops = self.topology.find_path(src, dst)
        keys: List[int] = []
        latency = 0.0
        frame_bits = (self.payload_bytes + FRAME_OVERHEAD_BYTES) * 8
        for link, tx_port in hops:
            dir_id = (id(link), tx_port.name)
            key = self._dir_key.get(dir_id)
            if key is None:
                key = len(self._dir_key)
                self._dir_key[dir_id] = key
                self._capacity_bps[key] = (
                    link.bandwidth_bps * self._efficiency
                )
            keys.append(key)
            # Store-and-forward: one full frame serialisation per hop
            # plus the propagation delay.
            latency += (link.propagation_delay_s
                        + frame_bits / link.bandwidth_bps)
        resolved = (tuple(keys), latency)
        self._path_cache[(src, dst)] = resolved
        return resolved

    # -- introspection used by the policy -------------------------------

    def service_count(self, service: str) -> int:
        """Active flows carrying ``service`` (including escalated ones)."""
        return self._service_counts.get(service, 0)

    def fan_in(self, host: str) -> int:
        """Active flows converging on ``host`` (including escalated ones)."""
        return self._fan_in.get(host, 0)

    def group_bottleneck_bps(self, members: List[ActiveFlow]) -> float:
        """Raw bandwidth of the narrowest link the group traverses.

        Used to size packet-level reference runs so they model the
        right bottleneck (e.g. the incast destination's access link).
        """
        narrowest = None
        for flow in members:
            for key in flow.links:
                cap = self._capacity_bps[key]
                if narrowest is None or cap < narrowest:
                    narrowest = cap
        if narrowest is None:
            return 100e9
        return narrowest / self._efficiency

    @property
    def path_classes(self) -> int:
        """Live solver variables: elastic path classes + pinned groups."""
        return len(self._classes) + len(self._groups)

    # -- flow lifecycle --------------------------------------------------

    def start_flow(self, spec: FlowSpec) -> None:
        """Admit ``spec`` at the current simulated time."""
        fid = spec.flow_id
        if fid in self.active:
            raise ValueError(f"duplicate flow id: {fid}")
        keys, latency = self._resolve_path(spec.src, spec.dst)
        flow = ActiveFlow(spec=spec, links=keys, latency_s=latency)
        self.active[fid] = flow
        # Counted before classification, so the policy's thresholds see
        # the arriving flow.
        counts = self._service_counts
        counts[spec.service] = counts.get(spec.service, 0) + 1
        fan_in = self._fan_in
        fan_in[spec.dst] = fan_in.get(spec.dst, 0) + 1

        now = self.env.now
        reason = self.policy.classify(spec, self)
        if reason is not None:
            flow.escalated = reason
            group = self.policy.group_key(spec, reason)
            flow.group = group
            flow.escalated_s = now
            self.policy.record(spec, reason, now)
            cls = self._groups.get(group)
            if cls is None:
                cls = _PathClass(None, now)
                self._groups[group] = cls
            # The member's pinned demand lands in the dirty-group
            # refresh at the head of the next solve (deltas keyed off
            # rate_bps == 0.0).
            self._dirty_groups[group] = None
        else:
            cls = self._classes.get(keys)
            if cls is None:
                cls = _PathClass(keys, now)
                self._classes[keys] = cls
            self._solver.add(keys)
            self._dirty_classes[keys] = None
        size_bits = spec.size_bytes * 8.0
        target = cls.bits + cls.rate_bps * (now - cls.t_base) + size_bits
        heappush(cls.targets, (target, fid))
        cls.flows[fid] = flow
        self._schedule_solve()

    def _finish_flow(self, flow: ActiveFlow, now: float) -> None:
        """Retire ``flow``; its completion target is already popped."""
        spec = flow.spec
        fid = spec.flow_id
        del self.active[fid]
        self._service_counts[spec.service] -= 1
        self._fan_in[spec.dst] -= 1

        if flow.escalated is None:
            sig = flow.links
            self._solver.remove(sig)
            cls = self._classes[sig]
            del cls.flows[fid]
            if cls.flows:
                self._dirty_classes[sig] = None
            else:
                del self._classes[sig]
                self._dirty_classes.pop(sig, None)
        else:
            gkey = flow.group
            cls = self._groups[gkey]
            del cls.flows[fid]
            rate = flow.rate_bps
            if rate != 0.0:
                pin = self._solver.pin
                for key in flow.links:
                    pin(key, -rate)
            if cls.flows:
                self._dirty_groups[gkey] = None
            else:
                del self._groups[gkey]
                self._dirty_groups.pop(gkey, None)

        fct = now - spec.start_s + flow.latency_s
        record = FlowRecord(
            spec=spec,
            finish_s=now + flow.latency_s,
            fct_s=fct,
            goodput_bps=spec.size_bytes * 8.0 / fct,
            escalated=flow.escalated,
        )
        self.records.append(record)
        self.completed_payload_bytes += spec.size_bytes
        if flow.escalated is not None:
            self.escalated_completions += 1
        obs = _obs.session()
        if obs is not None:
            obs.observe("flowsim.fct_s", fct, service=spec.service)
            obs.probe("flowsim.completed", service=spec.service)
            if flow.escalated is not None:
                obs.complete(
                    f"escalated:{flow.escalated}",
                    flow.escalated_s, now,
                    track="flowsim/escalations",
                    flow=fid, reason=flow.escalated,
                    dst=spec.dst,
                )

    # -- class curve maintenance ----------------------------------------

    def _set_class_rate(self, cls: _PathClass, rate: float,
                        now: float) -> None:
        """Rebase the class curve at ``rate`` and re-aim its projection.

        Also called at an unchanged rate when only membership moved: a
        new member may carry the smallest completion target.
        """
        bits = cls.bits + cls.rate_bps * (now - cls.t_base)
        cls.bits = bits
        cls.t_base = now
        cls.rate_bps = rate
        cls.version += 1
        if cls.targets and rate > 0.0:
            finish = now + (cls.targets[0][0] - bits) / rate
            self._finish_seq = seq = self._finish_seq + 1
            heappush(self._finish_heap, (finish, cls.version, seq, cls))

    def _refresh_group(self, gkey: Tuple[str, str], now: float) -> None:
        """Recompute a pinned group's packet-derived rate after a
        membership change, applying per-link demand deltas.

        The policy's group rate is a pure function of membership (see
        ``escalate.py``), so recomputing only on membership change is
        result-identical to recomputing every solve.
        """
        cls = self._groups.get(gkey)
        if cls is None or not cls.flows:
            return
        members = list(cls.flows.values())
        rate = self.policy.pinned_rate(gkey, members, self)
        # Members may take different paths, so demand deltas apply per
        # flow.
        pin = self._solver.pin
        for flow in members:
            old = flow.rate_bps
            if old == rate:
                continue
            delta = rate - old
            for key in flow.links:
                pin(key, delta)
            flow.rate_bps = rate
        self._set_class_rate(cls, rate, now)

    # -- the event-driven solve loop ------------------------------------

    def _schedule_solve(self) -> None:
        """Coalesce re-solves: one solve per timestamp.

        When nothing else is due at this instant, a scheduled solve
        would be the next event anyway, so it runs in place instead.
        Otherwise it is scheduled in the flow-level lane, and every
        arrival at this instant shares it.
        """
        if self._solve_pending:
            return
        env = self.env
        if env.peek() > env.now:
            self._solve_cycle()
            return
        self._solve_pending = True
        env.call_at(env.now, self._solve_cycle,
                    priority=FLOW_LEVEL_PRIORITY)

    def _solve_cycle(self) -> None:
        self._solve_pending = False
        now = self.env.now
        self._complete_due(now)
        self._resolve(now)

    def _complete_due(self, now: float) -> None:
        """Finish every flow whose class curve has reached its target."""
        heap = self._finish_heap
        active = self.active
        while heap:
            finish_s, version, _seq, cls = heap[0]
            if finish_s > now:
                break
            heappop(heap)
            if version != cls.version:
                continue
            cls.version += 1
            bits_now = cls.bits + cls.rate_bps * (now - cls.t_base)
            targets = cls.targets
            while targets and targets[0][0] - bits_now <= _COMPLETION_EPS_BITS:
                _target, fid = heappop(targets)
                self._finish_flow(active[fid], now)
            # The class (if it survives) was dirty-marked by the
            # departures; the solve that follows re-projects it.

    def _resolve(self, now: float) -> None:
        """Re-allocate rates and aim the next completion wake-up."""
        self.solves += 1
        if not self.active:
            self._dirty_classes.clear()
            self._dirty_groups.clear()
            # Every class is gone, so every projection is stale.
            self._finish_heap.clear()
            self._next_finish_s = _INF
            return

        # Pinned groups first: membership changes recompute the
        # packet-derived rate and shift per-link demand by deltas.
        dirty_groups = self._dirty_groups
        if dirty_groups:
            for gkey in dirty_groups:
                self._refresh_group(gkey, now)
            dirty_groups.clear()

        # Elastic classes: one solver variable per distinct path.  The
        # solver reports which classes moved since the previous solve,
        # so unchanged classes cost nothing here — no per-class scan.
        rate_changes = 0
        classes = self._classes
        if classes:
            changed = self._solver.resolve()
            for sig, rate in changed.items():
                self._set_class_rate(classes[sig], rate, now)
            rate_changes = len(changed)
            dirty = self._dirty_classes
            if dirty:
                # Dirty but rate-unchanged classes (new member, new
                # completion target) still need their projection
                # re-aimed; dead sigs may linger in the dirty set.
                for sig in dirty:
                    if sig not in changed:
                        cls = classes.get(sig)
                        if cls is not None:
                            self._set_class_rate(cls, cls.rate_bps, now)
        self._dirty_classes.clear()

        # Earliest valid projection across all classes.  A superseded
        # projection stays in the heap until it surfaces; once they
        # outnumber the live classes, drop them all at once.  Keys are
        # unique, so the live entries pop in the same order.
        heap = self._finish_heap
        if len(heap) > 2 * self.path_classes + _FINISH_HEAP_SLACK:
            heap[:] = [entry for entry in heap if entry[1] == entry[3].version]
            heapify(heap)
        while heap:
            _finish, version, _seq, cls = heap[0]
            if version == cls.version:
                break
            heappop(heap)
        next_finish = heap[0][0] if heap else _INF
        self._next_finish_s = next_finish

        obs = _obs.session()
        if obs is not None:
            obs.gauge("flowsim.path_classes", float(self.path_classes))
            obs.probe("flowsim.class_rate_changes", float(rate_changes))
            obs.probe("flowsim.solves")
            obs.sample("flowsim/active_flows", now, float(len(self.active)))

        if next_finish is not _INF:
            self._set_wake(next_finish)

    # -- the single live wake-up ----------------------------------------

    def _set_wake(self, when: float) -> None:
        """Aim the completion wake-up at ``when``, reusing or cancelling
        the pending one instead of piling stale events into the heap."""
        handle = self._wake_handle
        if handle is not None:
            if self._wake_at <= when:
                # Fires at or before the new projection; on firing it
                # re-aims from _next_finish_s, so no new event needed.
                self.wake_reused += 1
                return
            handle.cancel()
            self.wake_cancelled += 1
        self._wake_handle = self.env.call_at(
            when, self._on_wake, priority=FLOW_LEVEL_PRIORITY)
        self._wake_at = when
        self.wake_scheduled += 1

    def _on_wake(self) -> None:
        self._wake_handle = None
        self._wake_at = _INF
        target = self._next_finish_s
        if target is _INF or not self.active:
            return
        if self.env.now < target:
            # The projection moved later since this wake-up was
            # scheduled; re-aim without paying a solve.
            self.wake_stale += 1
            self._set_wake(target)
            return
        if not self._solve_pending:
            self._solve_cycle()

    # -- aggregate statistics -------------------------------------------

    @property
    def escalations(self) -> Dict[str, int]:
        """Escalation counts by reason (delegates to the policy)."""
        return dict(self.policy.escalations)

    def summary(self) -> Dict[str, float]:
        """Aggregate completion statistics over all finished flows."""
        if not self.records:
            return {
                "flows": 0.0,
                "payload_bytes": 0.0,
                "mean_fct_s": 0.0,
                "p99_fct_s": 0.0,
                "mean_goodput_bps": 0.0,
                "escalated": 0.0,
                "solves": float(self.solves),
            }
        fcts = sorted(record.fct_s for record in self.records)
        goodputs = [record.goodput_bps for record in self.records]
        return {
            "flows": float(len(self.records)),
            "payload_bytes": self.completed_payload_bytes,
            "mean_fct_s": sum(fcts) / len(fcts),
            "p99_fct_s": fcts[int(0.99 * (len(fcts) - 1))],
            "mean_goodput_bps": sum(goodputs) / len(goodputs),
            "escalated": float(self.escalated_completions),
            "solves": float(self.solves),
        }
