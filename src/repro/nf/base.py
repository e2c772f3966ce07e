"""The network-function (NF) abstraction (ROADMAP item 4, Lemur-style).

An :class:`NF` is one packet-processing function — firewall, telemetry,
aggregation — written once against a *semantic* contract and compiled
onto any of the three data planes (Trio Microcode, PISA stages, host
workers) by :mod:`repro.nf.chain`.  The contract splits each NF into:

* a **typed per-packet handler** (:meth:`NF.process`) over a parsed
  :class:`PacketView` and the NF's :class:`NFState` — deterministic and
  backend-independent, so any legal placement of a chain produces
  bit-identical per-flow verdicts;
* **declared state resources** (:meth:`NF.state_resources`): hash-table
  entries, counters, register arrays, and timer threads.  Backends map
  these onto their native structures (Trio hash block + Packet/Byte
  Counters, PISA per-stage register arrays, host dictionaries) and the
  chain compiler checks them against each backend's budgets;
* **periodic work** (:meth:`NF.on_epoch`), expressed in *packet-count
  time* rather than wall-clock time.  On Trio this is a timer-thread
  sweep; on PISA it is a control-plane register scan; on a host worker
  it is an ordinary loop.  Counting packets instead of seconds is what
  makes the periodic behaviour placement-invariant.

Verdicts reuse the Trio packet fates (forward / drop / consume): a
chain stops traversing NFs at the first non-forward verdict, exactly as
a dropped packet never reaches later stages of a pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.net.headers import FlowKey

__all__ = [
    "NF",
    "NFError",
    "NFState",
    "PacketView",
    "StateSpec",
    "VERDICT_CONSUME",
    "VERDICT_DROP",
    "VERDICT_FORWARD",
    "STATE_COUNTER",
    "STATE_HASH_ENTRIES",
    "STATE_REGISTER_ARRAY",
    "STATE_TIMER_THREADS",
]

#: Packet fates, aligned with :mod:`repro.trio.ppe` ACTION_* semantics.
VERDICT_FORWARD = "forward"
VERDICT_DROP = "drop"
VERDICT_CONSUME = "consume"

#: State-resource kinds an NF may declare.
STATE_HASH_ENTRIES = "hash_entries"
STATE_COUNTER = "counter"
STATE_REGISTER_ARRAY = "register_array"
STATE_TIMER_THREADS = "timer_threads"

_STATE_KINDS = (
    STATE_HASH_ENTRIES,
    STATE_COUNTER,
    STATE_REGISTER_ARRAY,
    STATE_TIMER_THREADS,
)


class NFError(ValueError):
    """An NF declaration or chain specification is invalid."""


@dataclass(frozen=True)
class StateSpec:
    """One declared state resource.

    ``entries`` is the element count (hash records, counters, register
    slots); ``width_bits`` the per-element width for register arrays and
    counters; ``threads`` the timer-thread count for
    :data:`STATE_TIMER_THREADS` declarations.
    """

    kind: str
    name: str
    entries: int = 0
    width_bits: int = 32
    threads: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _STATE_KINDS:
            raise NFError(
                f"unknown state kind {self.kind!r}; expected one of "
                f"{', '.join(_STATE_KINDS)}"
            )
        if self.kind == STATE_TIMER_THREADS:
            if self.threads < 1:
                raise NFError(
                    f"timer-thread spec {self.name!r} needs threads >= 1"
                )
        elif self.entries < 1:
            raise NFError(f"state spec {self.name!r} needs entries >= 1")

    @property
    def sram_bits(self) -> int:
        """SRAM footprint of this resource in bits (0 for threads)."""
        if self.kind == STATE_TIMER_THREADS:
            return 0
        return self.entries * self.width_bits


@dataclass(frozen=True)
class PacketView:
    """The parsed, typed view of one packet handed to NF handlers.

    Built once per packet by the chain executor from the shared
    :func:`repro.net.headers.flow_key` codec, so every NF sees the same
    flow identity regardless of which backend it was placed on.
    ``index`` is the packet's position in the trace — the logical clock
    that :meth:`NF.on_epoch` cadences are measured against.
    """

    index: int
    flow: FlowKey
    length: int
    payload_len: int
    #: First payload word (big-endian), the gradient proxy for the
    #: aggregation NF; 0 for payloads shorter than 4 bytes.
    payload_word: int

    @property
    def src_ip(self) -> int:
        return self.flow[0]

    @property
    def dst_ip(self) -> int:
        return self.flow[1]

    @property
    def src_port(self) -> int:
        return self.flow[2]

    @property
    def dst_port(self) -> int:
        return self.flow[3]


class NFState:
    """Semantic state store for one NF instance during one chain run.

    The executor creates one per (NF, run); backends only influence the
    *cost* of touching it, never its contents — that invariance is what
    the placement-identity tests pin down.
    """

    def __init__(self) -> None:
        #: Keyed state records (the hash-table analogue).
        self.table: Dict[Any, Any] = {}
        #: Named monotonic counters (the Packet/Byte Counter analogue).
        self.counters: Dict[str, int] = {}
        #: Records exported by periodic work (heavy hitters, results...).
        self.exports: List[Tuple[Any, ...]] = []

    def count(self, name: str, delta: int = 1) -> None:
        """Bump a named counter (created at 0 on first use)."""
        self.counters[name] = self.counters.get(name, 0) + delta


class NF:
    """Base class for network functions placeable by the chain compiler.

    Subclasses implement :meth:`process` (and usually :meth:`on_epoch`)
    and declare their state resources; the per-backend hooks below feed
    the cost models in :mod:`repro.nf.cost`:

    ``microcode_program``
        Name of this NF's Microcode parse front-end in
        :data:`repro.microcode.programs.BUILTIN_PROGRAMS`.  The Trio
        backend compiles and statically analyses it
        (:func:`repro.microcode.analysis.analyze_program`): the program
        must be clean and bounded, its worst-case instruction bound is
        the parse charge, and its LMEM/pointer checks are the Trio
        feasibility gate.
    ``trio_body_instructions``
        Per-packet instruction charge of the NF body beyond the parse
        front-end (hash math, policy checks).
    ``host_ns_per_packet``
        CPU cost of one packet on a host worker, nanoseconds.
    ``epoch_packets``
        Periodic-work cadence in packets.
    """

    name: str = "nf"
    epoch_packets: int = 256
    microcode_program: Optional[str] = None
    trio_body_instructions: int = 0
    host_ns_per_packet: float = 150.0

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def state_resources(self) -> Tuple[StateSpec, ...]:
        """Declared state resources; default none."""
        return ()

    def pisa_registers(self) -> Tuple[Tuple[str, int, int], ...]:
        """Register arrays the PISA backend must allocate.

        Returns ``(name, size, width_bits)`` triples, one per stage in
        declaration order.  The default derives them from
        :meth:`state_resources`: hash-table state becomes a hash-indexed
        register array, counters a counter array — the standard PISA
        realisation of keyed state.  Timer threads need no registers
        (their sweeps run from the control plane on PISA).
        """
        registers: List[Tuple[str, int, int]] = []
        for spec in self.state_resources():
            if spec.kind == STATE_TIMER_THREADS:
                continue
            width = 64 if spec.kind == STATE_HASH_ENTRIES else spec.width_bits
            registers.append((f"{self.name}.{spec.name}", spec.entries, width))
        return tuple(registers)

    def timer_threads(self) -> int:
        """Total declared timer threads (Trio hardware-timer budget)."""
        return sum(
            spec.threads
            for spec in self.state_resources()
            if spec.kind == STATE_TIMER_THREADS
        )

    def hash_entries(self) -> int:
        """Total declared hash-table entries (Trio hash-block budget)."""
        return sum(
            spec.entries
            for spec in self.state_resources()
            if spec.kind == STATE_HASH_ENTRIES
        )

    def trio_state_ops_per_packet(self) -> Tuple[int, int]:
        """(hash XTXNs, memory/RMW XTXNs) charged per packet on Trio.

        Default: one hash lookup per declared hash resource and one RMW
        per declared counter resource — the dominant pattern of the
        shipped applications.
        """
        hash_ops = sum(
            1 for spec in self.state_resources()
            if spec.kind == STATE_HASH_ENTRIES
        )
        rmw_ops = sum(
            1 for spec in self.state_resources()
            if spec.kind == STATE_COUNTER
        )
        return hash_ops, rmw_ops

    def trio_instructions_per_packet(self, parse_bound: float) -> float:
        """Per-packet PPE instruction charge on Trio.

        ``parse_bound`` is the statically analysed worst-case bound of
        :attr:`microcode_program` (0 when the NF has none).
        """
        return parse_bound + float(self.trio_body_instructions)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def process(self, state: NFState, pkt: PacketView) -> str:
        """Handle one packet; returns a VERDICT_* string."""
        raise NotImplementedError

    def on_epoch(self, state: NFState, epoch_index: int) -> None:
        """Periodic work, every :attr:`epoch_packets` packets."""

    def counters(self, state: NFState) -> Dict[str, int]:
        """Counter snapshot for placement-identity validation."""
        return dict(state.counters)

    def exports(self, state: NFState) -> Tuple[Tuple[Any, ...], ...]:
        """Exported records for placement-identity validation."""
        return tuple(state.exports)

    def __repr__(self) -> str:
        return f"<NF {self.name}>"
