"""The firewall NF: per-source policing with strike-based blocklisting.

This module owns both realisations of the §7 DDoS defence:

* :class:`DDoSMitigator` — the Trio data-path application (policers in
  the Shared Memory System, timer-thread reviews);
* :class:`FirewallNF` — the backend-independent network function used
  by the chain compiler, whose periodic review runs in packet-count
  epochs so verdicts are identical on every placement.

Both share :class:`StrikePolicy`, the temporary-vs-permanent offender
state machine §5 sketches: offenders collect strikes and are blocked at
a threshold; blocked sources whose REF flag stays clear for several
consecutive review intervals are rehabilitated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Protocol, Set, Tuple

from repro.net.headers import HeaderError, source_key
from repro.nf.base import (
    NF,
    NFState,
    PacketView,
    STATE_COUNTER,
    STATE_HASH_ENTRIES,
    STATE_TIMER_THREADS,
    StateSpec,
    VERDICT_DROP,
    VERDICT_FORWARD,
)
from repro.obs import bus as _obs
from repro.trio.counters import PacketByteCounter, Policer
from repro.trio.pfe import PFE, TrioApplication
from repro.trio.ppe import PacketContext, ThreadContext

__all__ = [
    "BlockEvent",
    "DDoSMitigator",
    "FirewallNF",
    "SourceState",
    "StrikePolicy",
]


class StrikeEntry(Protocol):
    """What :meth:`StrikePolicy.review` needs from a per-source record."""

    strikes: int
    blocked: bool
    quiet_intervals: int


@dataclass(frozen=True)
class StrikePolicy:
    """The shared block/rehabilitate state machine (§5).

    Operates on any entry exposing ``strikes``, ``blocked``, and
    ``quiet_intervals`` — the Trio application's hash-table values and
    the NF's semantic table entries both qualify, which is what keeps
    the two data paths' blocklist decisions in lockstep.
    """

    strike_threshold: int = 3
    rehab_quiet_intervals: int = 3

    def __post_init__(self) -> None:
        if self.strike_threshold < 1:
            raise ValueError(
                f"strike threshold must be >= 1: {self.strike_threshold}"
            )
        if self.rehab_quiet_intervals < 1:
            raise ValueError(
                f"rehab interval count must be >= 1: "
                f"{self.rehab_quiet_intervals}"
            )

    def review(self, entry: StrikeEntry, offended: bool,
               ref_seen: bool) -> Optional[str]:
        """One review-interval transition for one source.

        Mutates ``entry`` and returns ``"block"``, ``"unblock"``, or
        ``None``.  ``offended`` — the source exceeded its budget since
        the last review; ``ref_seen`` — its REF flag was set (any
        traffic at all this interval).
        """
        if offended:
            entry.strikes += 1
            if not entry.blocked and entry.strikes >= self.strike_threshold:
                entry.blocked = True
                return "block"
            return None
        if ref_seen:
            entry.quiet_intervals = 0
            return None
        entry.quiet_intervals += 1
        if (entry.blocked
                and entry.quiet_intervals >= self.rehab_quiet_intervals):
            entry.blocked = False
            entry.strikes = 0
            entry.quiet_intervals = 0
            return "unblock"
        return None


@dataclass
class SourceState:
    """Per-source defence state (hash-table value keyed by source IP)."""

    policer: Policer
    strikes: int = 0
    blocked: bool = False
    first_seen: float = 0.0
    #: Consecutive review intervals with no traffic from this source.
    quiet_intervals: int = 0


@dataclass
class BlockEvent:
    """One blocklist decision, for the operator's audit trail."""

    time: float
    source_ip: int
    strikes: int
    action: str  # "block" or "unblock"


class DDoSMitigator(TrioApplication):
    """Per-source rate policing with timer-thread blocklist management."""

    name = "ddos-mitigator"

    def __init__(
        self,
        allowed_pps: float = 100_000.0,
        packet_size_hint: int = 512,
        burst_packets: int = 64,
        strike_threshold: int = 3,
        review_threads: int = 4,
        review_period_s: float = 1e-3,
        max_sources: int = 100_000,
        rehab_quiet_intervals: int = 3,
    ) -> None:
        """``allowed_pps`` is the per-source sustained packet budget;
        sources that keep exceeding it collect strikes at each review and
        are blocked after ``strike_threshold`` strikes.  A blocked source
        is rehabilitated after ``rehab_quiet_intervals`` consecutive
        review intervals with no traffic at all (its REF flag stayed
        clear) — the temporary-vs-permanent distinction of §5."""
        self.policy = StrikePolicy(
            strike_threshold=strike_threshold,
            rehab_quiet_intervals=rehab_quiet_intervals,
        )
        self.allowed_pps = allowed_pps
        self.packet_size_hint = packet_size_hint
        self.burst_packets = burst_packets
        self.strike_threshold = strike_threshold
        self.review_threads = review_threads
        self.review_period_s = review_period_s
        self.max_sources = max_sources
        self.rehab_quiet_intervals = rehab_quiet_intervals
        self.events: List[BlockEvent] = []
        self.packets_blocked = 0
        self.packets_policed = 0
        self.pfe: Optional[PFE] = None
        #: Sources that exceeded their policer since the last review.
        self._offenders: Set[int] = set()

    @property
    def _installed(self) -> PFE:
        pfe = self.pfe
        if pfe is None:
            raise RuntimeError("application is not installed on a PFE")
        return pfe

    def on_install(self, pfe: PFE) -> None:
        self.pfe = pfe
        self.blocked_counter = PacketByteCounter(pfe.memory)
        obs = _obs.session()
        if obs is not None:
            obs.register_collector(self._obs_collect)
        pfe.timers.launch_periodic(
            name="ddos-review",
            num_threads=self.review_threads,
            period_s=self.review_period_s,
            callback=self._review,
        )

    def _obs_collect(self, registry: Any) -> None:
        """Export the mitigator's counters (runs once at finalize)."""
        packets = registry.counter(
            "apps.security.packets", "packets seen by the defence",
            ("outcome",))
        packets.inc(self.packets_blocked, outcome="blocked")
        packets.inc(self.packets_policed, outcome="policed")
        registry.gauge(
            "apps.security.blocked_sources",
            "sources on the blocklist at finalize"
        ).set(len(self.blocked_sources))

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def handle_packet(self, tctx: ThreadContext,
                      pctx: PacketContext) -> Generator[Any, Any, None]:
        yield from tctx.execute(6)  # parse up to L3
        try:
            source = source_key(pctx.packet)
        except HeaderError:
            pctx.forward()
            return
        pfe = self._installed
        record = yield from tctx.hash_lookup(("src", source))
        if record is None:
            if len(pfe.hash_table) >= self.max_sources:
                pctx.forward()
                return
            state = SourceState(
                policer=Policer(
                    pfe.env,
                    pfe.memory,
                    rate_bps=self.allowed_pps * self.packet_size_hint * 8,
                    burst_bytes=self.burst_packets * self.packet_size_hint,
                ),
                first_seen=pfe.env.now,
            )
            record, __ = yield from tctx.hash_insert_if_absent(
                ("src", source), state
            )
        state = record.value

        if state.blocked:
            # First-instruction drop: no further cycles for attack traffic.
            self.packets_blocked += 1
            yield from self.blocked_counter.increment(pctx.length)
            pctx.drop()
            return

        conforming = yield from state.policer.police(pctx.length)
        self.packets_policed += 1
        if not conforming:
            self._offenders.add(source)
            pctx.drop()
            return
        pctx.forward()

    # ------------------------------------------------------------------
    # Timer threads: strike review and rehabilitation
    # ------------------------------------------------------------------

    def _review(self, tctx: ThreadContext,
                thread_index: int) -> Generator[Any, Any, None]:
        pfe = self._installed
        records = yield from pfe.hash_table.scan_segment(
            thread_index % self.review_threads, self.review_threads
        )
        now = pfe.env.now
        for record in records:
            yield from tctx.execute(3)
            state = record.value
            if not isinstance(state, SourceState):
                continue
            source = record.key[1]
            offended = source in self._offenders
            if offended:
                self._offenders.discard(source)
            ref_seen = bool(record.ref_flag)
            if ref_seen and not offended:
                # The hardware clears the REF flag as it scans (§5); an
                # offender's interval is judged by the policer alone, so
                # its flag survives until a quiet interval reads it.
                record.ref_flag = False
            action = self.policy.review(state, offended, ref_seen)
            if action == "block":
                self.events.append(
                    BlockEvent(time=now, source_ip=source,
                               strikes=state.strikes, action="block")
                )
                self._obs_block_event(now, source, "block")
            elif action == "unblock":
                self.events.append(
                    BlockEvent(time=now, source_ip=source,
                               strikes=0, action="unblock")
                )
                self._obs_block_event(now, source, "unblock")

    @staticmethod
    def _obs_block_event(now: float, source: int, action: str) -> None:
        obs = _obs.session()
        if obs is not None:
            obs.probe("apps.security.block_events", action=action)
            obs.instant(f"{action} {source:#010x}", now,
                        track="apps/security")

    @property
    def blocked_sources(self) -> List[int]:
        """Currently blocked source IPs (control-plane view)."""
        return sorted(
            record.key[1]
            for record in self._installed.hash_table.all_records()
            if isinstance(record.value, SourceState) and record.value.blocked
        )


# ---------------------------------------------------------------------------
# The chain-compiler NF
# ---------------------------------------------------------------------------


@dataclass
class _SourceEntry:
    """Semantic per-source state of :class:`FirewallNF`."""

    packets_this_epoch: int = 0
    seen_this_epoch: bool = False
    strikes: int = 0
    blocked: bool = False
    quiet_intervals: int = 0


class FirewallNF(NF):
    """Backend-independent firewall: per-source budgets in packet time.

    The per-epoch packet budget plays the policer's role and the epoch
    cadence the review timer's, so the verdict stream is a pure function
    of the packet trace — identical on Trio, PISA, and host placements.
    """

    name = "firewall"
    microcode_program = "nf_firewall_parse"
    #: Policer check + blocklist branch, ballpark of the Trio app's
    #: per-packet body beyond the parse front-end.
    trio_body_instructions = 8
    #: Software policing on a host worker: parse + dict ops + policy,
    #: slower than either ASIC path.
    host_ns_per_packet = 350.0

    def __init__(
        self,
        allowed_packets_per_epoch: int = 16,
        strike_threshold: int = 3,
        rehab_quiet_epochs: int = 3,
        max_sources: int = 4096,
        review_threads: int = 4,
        epoch_packets: int = 256,
    ) -> None:
        if allowed_packets_per_epoch < 1:
            raise ValueError(
                f"per-epoch budget must be >= 1: {allowed_packets_per_epoch}"
            )
        if epoch_packets < 1:
            raise ValueError(f"epoch must be >= 1 packets: {epoch_packets}")
        self.policy = StrikePolicy(
            strike_threshold=strike_threshold,
            rehab_quiet_intervals=rehab_quiet_epochs,
        )
        self.allowed_packets_per_epoch = allowed_packets_per_epoch
        self.max_sources = max_sources
        self.review_threads = review_threads
        self.epoch_packets = epoch_packets

    # -- declarations ---------------------------------------------------

    def state_resources(self) -> Tuple[StateSpec, ...]:
        return (
            StateSpec(STATE_HASH_ENTRIES, "sources", entries=self.max_sources,
                      width_bits=64),
            StateSpec(STATE_COUNTER, "blocked", entries=1, width_bits=64),
            StateSpec(STATE_TIMER_THREADS, "review",
                      threads=self.review_threads),
        )

    # -- semantics ------------------------------------------------------

    def process(self, state: NFState, pkt: PacketView) -> str:
        state.count("packets_total")
        entry = state.table.get(pkt.src_ip)
        if entry is None:
            if len(state.table) >= self.max_sources:
                # Table full: forward unpoliced rather than stall traffic.
                state.count("packets_unpoliced")
                return VERDICT_FORWARD
            entry = state.table[pkt.src_ip] = _SourceEntry()
        if entry.blocked:
            # First-instruction drop, as on the Trio data path.
            entry.seen_this_epoch = True
            state.count("packets_blocked")
            return VERDICT_DROP
        entry.seen_this_epoch = True
        entry.packets_this_epoch += 1
        if entry.packets_this_epoch > self.allowed_packets_per_epoch:
            state.count("packets_dropped_policer")
            return VERDICT_DROP
        return VERDICT_FORWARD

    def on_epoch(self, state: NFState, epoch_index: int) -> None:
        for source, entry in list(state.table.items()):
            offended = (
                entry.packets_this_epoch > self.allowed_packets_per_epoch
            )
            action = self.policy.review(
                entry, offended, ref_seen=entry.seen_this_epoch
            )
            if action == "block":
                state.count("sources_blocked")
                state.exports.append(
                    ("block", epoch_index, source, entry.strikes)
                )
            elif action == "unblock":
                state.count("sources_unblocked")
                state.exports.append(("unblock", epoch_index, source, 0))
            entry.packets_this_epoch = 0
            entry.seen_this_epoch = False
