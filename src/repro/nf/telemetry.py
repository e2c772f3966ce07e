"""The telemetry NF: per-flow accounting with heavy-hitter export.

This module owns both realisations of the §7 telemetry design:

* :class:`TelemetryMonitor` — the Trio data-path application (per-flow
  Packet/Byte Counters in the Shared Memory System, timer-thread
  sweeps);
* :class:`TelemetryNF` — the backend-independent network function used
  by the chain compiler, sweeping in packet-count epochs.

Both share :func:`sweep_decision`, the export/retire rule applied to a
flow at each sweep: export when the packet delta crossed the
heavy-hitter threshold, retire when the REF flag shows a full idle
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.net.headers import FlowKey, HeaderError, flow_key
from repro.nf.base import (
    NF,
    NFState,
    PacketView,
    STATE_COUNTER,
    STATE_HASH_ENTRIES,
    STATE_TIMER_THREADS,
    StateSpec,
    VERDICT_FORWARD,
)
from repro.obs import bus as _obs
from repro.trio.counters import PacketByteCounter
from repro.trio.pfe import PFE, TrioApplication
from repro.trio.ppe import PacketContext, ThreadContext

__all__ = [
    "FlowStats",
    "TelemetryMonitor",
    "TelemetryNF",
    "TelemetryReport",
    "sweep_decision",
]


def sweep_decision(delta_packets: float, threshold: float,
                   ref_seen: bool) -> Tuple[bool, bool]:
    """The per-flow sweep rule shared by the Trio app and the NF.

    Returns ``(export, retire)``: export when the packet delta since
    the last sweep reached ``threshold`` (both in the same unit — per
    second for the timer-driven app, per epoch for the NF), retire when
    the REF flag stayed clear for the whole interval.  A flow can be
    exported *and* retired in the same sweep: a burst that ended within
    one interval still deserves its report.
    """
    return delta_packets >= threshold, not ref_seen


@dataclass
class FlowStats:
    """Per-flow telemetry state: the shared-memory counter plus metadata."""

    counter: PacketByteCounter
    first_seen: float
    #: (packets, bytes) at the previous sweep, for rate computation.
    last_packets: int = 0
    last_bytes: int = 0


@dataclass
class TelemetryReport:
    """One exported heavy-hitter observation."""

    time: float
    flow: FlowKey
    packets: int
    bytes: int
    packets_per_s: float


class TelemetryMonitor(TrioApplication):
    """Line-rate per-flow accounting with timer-thread exports."""

    name = "telemetry"

    def __init__(
        self,
        heavy_hitter_pps: float = 1e6,
        scan_threads: int = 8,
        scan_period_s: float = 1e-3,
        export: Optional[Callable[[TelemetryReport], None]] = None,
        max_flows: int = 100_000,
    ) -> None:
        """``heavy_hitter_pps`` is the per-flow packet-rate threshold for
        export; ``export`` receives each report (defaults to collecting
        into :attr:`reports`)."""
        if scan_threads < 1:
            raise ValueError(f"need at least one scan thread: {scan_threads}")
        if scan_period_s <= 0:
            raise ValueError(f"scan period must be positive: {scan_period_s}")
        self.heavy_hitter_pps = heavy_hitter_pps
        self.scan_threads = scan_threads
        self.scan_period_s = scan_period_s
        self.max_flows = max_flows
        self.reports: List[TelemetryReport] = []
        self._export = export or self.reports.append
        self.flows_tracked = 0
        self.flows_retired = 0
        self.flows_dropped_capacity = 0
        self.pfe: Optional[PFE] = None

    @property
    def _installed(self) -> PFE:
        pfe = self.pfe
        if pfe is None:
            raise RuntimeError("application is not installed on a PFE")
        return pfe

    def on_install(self, pfe: PFE) -> None:
        self.pfe = pfe
        obs = _obs.session()
        if obs is not None:
            obs.register_collector(self._obs_collect)
        pfe.timers.launch_periodic(
            name="telemetry-sweep",
            num_threads=self.scan_threads,
            period_s=self.scan_period_s,
            callback=self._sweep,
        )

    def _obs_collect(self, registry: Any) -> None:
        """Export the monitor's counters (runs once at finalize)."""
        flows = registry.counter(
            "apps.telemetry.flows", "flow-table transitions", ("event",))
        flows.inc(self.flows_tracked, event="tracked")
        flows.inc(self.flows_retired, event="retired")
        flows.inc(self.flows_dropped_capacity, event="dropped_capacity")
        registry.gauge(
            "apps.telemetry.reports", "heavy-hitter reports exported"
        ).set(len(self.reports))

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def handle_packet(self, tctx: ThreadContext,
                      pctx: PacketContext) -> Generator[Any, Any, None]:
        yield from tctx.execute(8)  # parse headers
        try:
            flow = flow_key(pctx.packet)
        except HeaderError:
            pctx.forward()
            return
        pfe = self._installed
        record = yield from tctx.hash_lookup(flow)
        if record is None:
            if len(pfe.hash_table) >= self.max_flows:
                # Table full: forward uncounted rather than stall traffic.
                self.flows_dropped_capacity += 1
                pctx.forward()
                return
            stats = FlowStats(
                counter=PacketByteCounter(pfe.memory),
                first_seen=pfe.env.now,
            )
            record, created = yield from tctx.hash_insert_if_absent(
                flow, stats
            )
            if created:
                self.flows_tracked += 1
        yield from record.value.counter.increment(pctx.length)
        pctx.forward()

    # ------------------------------------------------------------------
    # Timer threads (§7: "suitable for periodic monitoring")
    # ------------------------------------------------------------------

    def _sweep(self, tctx: ThreadContext,
               thread_index: int) -> Generator[Any, Any, None]:
        pfe = self._installed
        table = pfe.hash_table
        records = yield from table.scan_segment(
            thread_index % self.scan_threads, self.scan_threads
        )
        now = pfe.env.now
        for record in records:
            yield from tctx.execute(3)
            stats = record.value
            if not isinstance(stats, FlowStats):
                continue
            packets, nbytes = stats.counter.read()
            delta_packets = packets - stats.last_packets
            rate = delta_packets / self.scan_period_s
            export, retire = sweep_decision(
                rate, self.heavy_hitter_pps, bool(record.ref_flag)
            )
            if export:
                self._export(
                    TelemetryReport(
                        time=now,
                        flow=record.key,
                        packets=packets,
                        bytes=nbytes,
                        packets_per_s=rate,
                    )
                )
                obs = _obs.session()
                if obs is not None:
                    obs.probe("apps.telemetry.reports_exported")
                    obs.instant("heavy-hitter", now, track="apps/telemetry",
                                packets_per_s=rate)
            stats.last_packets = packets
            stats.last_bytes = nbytes
            if not retire:
                record.ref_flag = False
            else:
                # Idle for a full interval: retire the flow state and
                # return its counter memory.
                table.delete_nowait(record.key)
                pfe.memory.free(stats.counter.addr,
                                PacketByteCounter.SIZE)
                self.flows_retired += 1


# ---------------------------------------------------------------------------
# The chain-compiler NF
# ---------------------------------------------------------------------------


@dataclass
class _FlowEntry:
    """Semantic per-flow state of :class:`TelemetryNF`."""

    packets: int = 0
    bytes: int = 0
    last_packets: int = 0
    seen_this_epoch: bool = False


class TelemetryNF(NF):
    """Backend-independent telemetry: per-flow counts in packet time.

    Heavy hitters are flows whose packet delta within one epoch reached
    ``heavy_hitter_packets_per_epoch``; flows silent for a whole epoch
    are retired.  Purely trace-determined, so exports are identical on
    every placement.
    """

    name = "telemetry"
    microcode_program = "nf_telemetry_parse"
    #: Counter RMW issue + flow bookkeeping beyond the parse front-end.
    trio_body_instructions = 6
    #: Software per-flow accounting on a host worker.
    host_ns_per_packet = 300.0

    def __init__(
        self,
        heavy_hitter_packets_per_epoch: int = 128,
        max_flows: int = 8192,
        scan_threads: int = 8,
        epoch_packets: int = 256,
    ) -> None:
        if heavy_hitter_packets_per_epoch < 1:
            raise ValueError(
                "heavy-hitter threshold must be >= 1: "
                f"{heavy_hitter_packets_per_epoch}"
            )
        if epoch_packets < 1:
            raise ValueError(f"epoch must be >= 1 packets: {epoch_packets}")
        self.heavy_hitter_packets_per_epoch = heavy_hitter_packets_per_epoch
        self.max_flows = max_flows
        self.scan_threads = scan_threads
        self.epoch_packets = epoch_packets

    # -- declarations ---------------------------------------------------

    def state_resources(self) -> Tuple[StateSpec, ...]:
        return (
            StateSpec(STATE_HASH_ENTRIES, "flows", entries=self.max_flows,
                      width_bits=64),
            StateSpec(STATE_COUNTER, "flow_counters", entries=self.max_flows,
                      width_bits=64),
            StateSpec(STATE_TIMER_THREADS, "sweep",
                      threads=self.scan_threads),
        )

    # -- semantics ------------------------------------------------------

    def process(self, state: NFState, pkt: PacketView) -> str:
        state.count("packets_total")
        entry = state.table.get(pkt.flow)
        if entry is None:
            if len(state.table) >= self.max_flows:
                # Table full: forward uncounted rather than stall traffic.
                state.count("flows_dropped_capacity")
                return VERDICT_FORWARD
            entry = state.table[pkt.flow] = _FlowEntry()
            state.count("flows_tracked")
        entry.packets += 1
        entry.bytes += pkt.length
        entry.seen_this_epoch = True
        return VERDICT_FORWARD

    def on_epoch(self, state: NFState, epoch_index: int) -> None:
        for flow, entry in list(state.table.items()):
            delta = entry.packets - entry.last_packets
            export, retire = sweep_decision(
                delta,
                self.heavy_hitter_packets_per_epoch,
                entry.seen_this_epoch,
            )
            if export:
                state.count("reports_exported")
                state.exports.append(
                    ("hh", epoch_index, flow, entry.packets, entry.bytes)
                )
            entry.last_packets = entry.packets
            entry.seen_this_epoch = False
            if retire:
                del state.table[flow]
                state.count("flows_retired")
