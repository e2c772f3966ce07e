"""Packet Processing Engines and thread contexts (§2.2).

Each PPE is a VLIW multi-threaded Microcode engine.  A thread has exactly
one datapath instruction in flight: the next instruction is not dispatched
until the previous one exits the pipeline, so a single thread progresses at
``clock / pipeline_depth`` instructions per second, while a PPE with
``pipeline_depth`` resident threads sustains one instruction per cycle.
The model charges that per-thread latency directly (``execute(n)``) —
configured with ``threads_per_ppe == pipeline_depth_cycles`` the aggregate
PPE throughput cap is automatically respected.

:class:`ThreadContext` is the API surface handed to applications (and to
the Microcode interpreter): local memory, registers, instruction
execution, synchronous XTXNs to the Shared Memory System and the hash
block, and tail reads from the Memory and Queueing Subsystem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.net.packet import Packet
from repro.sim import Environment
from repro.trio.chipset import TrioChipsetConfig
from repro.trio.hashtable import HardwareHashTable
from repro.trio.memory import SharedMemorySystem
from repro.trio.rmw import RMWOpKind

__all__ = ["PPE", "PacketContext", "ThreadContext"]


#: Packet fates set by applications on the PacketContext.
ACTION_FORWARD = "forward"
ACTION_DROP = "drop"
ACTION_CONSUME = "consume"


@dataclass
class PacketContext:
    """Per-packet processing state.

    The hardware splits each arriving packet into a head (loaded into the
    thread's LMEM) and a tail (kept in the Packet Buffer, §2.1).
    """

    packet: Packet
    head: bytearray
    tail: bytes
    ingress_port: Optional[str] = None
    arrival_seq: int = 0
    arrival_time: float = 0.0
    #: One of ACTION_FORWARD / ACTION_DROP / ACTION_CONSUME.
    action: str = ACTION_FORWARD
    #: Optional egress port name chosen by the application.
    egress_port: Optional[str] = None
    #: New packets emitted during processing: (packet, egress_port_or_None).
    emitted: List[Tuple[Packet, Optional[str]]] = field(default_factory=list)

    @property
    def length(self) -> int:
        """Original wire length of the packet."""
        return len(self.packet)

    def drop(self) -> None:
        self.action = ACTION_DROP

    def consume(self) -> None:
        """The application took ownership; the packet is freed."""
        self.action = ACTION_CONSUME

    def forward(self, egress_port: Optional[str] = None) -> None:
        self.action = ACTION_FORWARD
        self.egress_port = egress_port

    def emit(self, packet: Packet, egress_port: Optional[str] = None) -> None:
        """Queue a new packet created by this thread (e.g. a Result packet)."""
        self.emitted.append((packet, egress_port))


class PPE:
    """One Packet Processing Engine: bookkeeping for its resident threads."""

    def __init__(self, env: Environment, index: int, config: TrioChipsetConfig):
        self.env = env
        self.index = index
        self.config = config
        self.threads_spawned = 0
        self.instructions_executed = 0
        self.busy_s = 0.0

    def __repr__(self) -> str:
        return f"<PPE {self.index} threads={self.threads_spawned}>"


#: Cached zero patterns for LMEM / register-file reuse, keyed by size.
_ZERO_BYTES: dict = {}
_ZERO_REGS: dict = {}


class ThreadContext:
    """Execution context of one PPE thread.

    Created by the PFE when a packet (or timer/internal event) spawns a
    thread; recycled into a free pool when processing completes, so the
    1.25 KB LMEM buffer and the register file are reused across packets
    instead of reallocated.  All methods that consume simulated time are
    generators used with ``yield from``.

    Back-to-back pure-latency charges are *coalesced*: ``execute`` only
    accumulates its delay, and the next blocking operation (memory XTXN,
    hash XTXN, tail read, or the final :meth:`flush`) folds the pending
    charge into its own wait.  Completion timestamps are identical to
    issuing one kernel event per charge; only the event count drops.
    """

    _ids = itertools.count()

    def __init__(
        self,
        env: Environment,
        ppe: PPE,
        config: TrioChipsetConfig,
        memory: SharedMemorySystem,
        hash_table: HardwareHashTable,
        packet_ctx: Optional[PacketContext] = None,
    ):
        self.env = env
        self.ppe = ppe
        self.config = config
        self.memory = memory
        self.hash_table = hash_table
        self.packet_ctx = packet_ctx
        self.thread_id = next(self._ids)
        #: Thread-local memory (1.25 KB, §2.2).  The packet head is loaded
        #: at offset 0 before the thread starts.
        self.lmem = bytearray(config.lmem_bytes)
        #: 32 private 64-bit general-purpose registers (§2.2).
        self.registers: List[int] = [0] * config.registers_per_thread
        self.instructions = 0
        #: Accumulated pure-delay charge not yet turned into a kernel event.
        self.pending_s = 0.0
        if packet_ctx is not None:
            head = packet_ctx.head[: config.lmem_bytes]
            self.lmem[: len(head)] = head

    def reset(self, ppe: PPE, packet_ctx: Optional[PacketContext]) -> None:
        """Reinitialise a pooled context for a new thread spawn.

        Equivalent to constructing a fresh context (zeroed LMEM and
        registers, new thread id) but reuses the existing buffers.
        """
        config = self.config
        self.ppe = ppe
        self.packet_ctx = packet_ctx
        self.thread_id = next(self._ids)
        self.instructions = 0
        self.pending_s = 0.0
        size = config.lmem_bytes
        zeros = _ZERO_BYTES.get(size)
        if zeros is None:
            zeros = _ZERO_BYTES[size] = bytes(size)
        self.lmem[:] = zeros
        nregs = config.registers_per_thread
        zregs = _ZERO_REGS.get(nregs)
        if zregs is None:
            zregs = _ZERO_REGS[nregs] = (0,) * nregs
        self.registers[:] = zregs
        if packet_ctx is not None:
            head = packet_ctx.head[:size]
            self.lmem[: len(head)] = head

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------

    def execute(self, n_instructions: int):
        """Run ``n_instructions`` datapath instructions on this thread.

        Charges single-thread latency: ``n × pipeline_depth / clock``.
        The charge is deferred and folded into the thread's next blocking
        wait (or its final flush), which is timing-equivalent because a
        pure delay commutes with the delays around it.
        """
        if n_instructions < 0:
            raise ValueError(f"negative instruction count: {n_instructions}")
        self.instructions += n_instructions
        self.ppe.instructions_executed += n_instructions
        delay = n_instructions * self.config.single_thread_instr_s
        self.ppe.busy_s += delay
        self.pending_s += delay
        return
        yield  # pragma: no cover - makes this a (zero-event) generator

    def flush(self):
        """Turn any accumulated deferred charge into one kernel event."""
        if self.pending_s:
            pending, self.pending_s = self.pending_s, 0.0
            yield self.env.delay(pending)

    def _take_pending(self) -> float:
        pending, self.pending_s = self.pending_s, 0.0
        return pending

    @property
    def now(self) -> float:
        """Thread-local simulated time, including deferred charges.

        Equals what ``env.now`` would read if every ``execute`` charge had
        been slept eagerly; model code inside handlers must use this (not
        ``env.now``) when timestamping.
        """
        return self.env.now + self.pending_s

    def set_register(self, index: int, value: int) -> None:
        """Write a 64-bit GPR (wraps modulo 2^64)."""
        self.registers[index] = value & (2**64 - 1)

    # ------------------------------------------------------------------
    # Packet tail access (§4: tail data resides in the Memory and
    # Queueing Subsystem and must be read into LMEM before use)
    # ------------------------------------------------------------------

    def read_tail(self, offset: int, size: int):
        """XTXN pulling ``size`` tail bytes into LMEM; returns the bytes."""
        if self.packet_ctx is None:
            raise RuntimeError("no packet bound to this thread")
        tail = self.packet_ctx.tail
        if offset < 0 or offset > len(tail):
            raise ValueError(
                f"tail offset {offset} outside 0..{len(tail)}"
            )
        yield self.env.delay(
            self._take_pending() + self.config.tail_read_latency_s
        )
        chunk = tail[offset:offset + size]
        self.lmem[: len(chunk)] = chunk  # lands in LMEM scratch space
        return chunk

    def read_tail_chunks(self, num_chunks: int):
        """Charge the latency of ``num_chunks`` sequential tail XTXNs.

        The per-chunk reads of the Figure 10 loop are pure back-to-back
        latency (no shared resource between them), so lumping them into
        one delay is timing-equivalent to issuing them one at a time and
        keeps the event count linear in packets rather than chunks.
        """
        if num_chunks < 0:
            raise ValueError(f"negative chunk count: {num_chunks}")
        total = self._take_pending() + (
            num_chunks * self.config.tail_read_latency_s
        )
        if total:
            yield self.env.delay(total)

    # ------------------------------------------------------------------
    # Shared Memory System XTXNs (synchronous: thread suspends, §3.1)
    # ------------------------------------------------------------------

    def mem_read(self, addr: int, size: int = 8):
        result = yield from self.memory.read(
            addr, size, pre_delay_s=self._take_pending(),
            actor=self.thread_id,
        )
        return result

    def mem_write(self, addr: int, data: bytes):
        yield from self.memory.write(
            addr, data, pre_delay_s=self._take_pending(),
            actor=self.thread_id,
        )

    def mem_add32(self, addr: int, operand: int):
        result = yield from self.memory.add32(
            addr, operand, pre_delay_s=self._take_pending(),
            actor=self.thread_id,
        )
        return result

    def mem_fetch_and_op(self, kind: RMWOpKind, addr: int, operand: int,
                         size: int = 8):
        result = yield from self.memory.fetch_and_op(
            kind, addr, operand, size, pre_delay_s=self._take_pending(),
            actor=self.thread_id,
        )
        return result

    def counter_inc(self, addr: int, nbytes: int):
        """The CounterIncPhys XTXN (§3.2)."""
        yield from self.memory.counter_inc(
            addr, nbytes, pre_delay_s=self._take_pending(),
            actor=self.thread_id,
        )

    # ------------------------------------------------------------------
    # Hash block XTXNs
    # ------------------------------------------------------------------

    def hash_lookup(self, key):
        record = yield from self.hash_table.lookup(
            key, pre_delay_s=self._take_pending(), actor=self.thread_id
        )
        return record

    def hash_insert_if_absent(self, key, value):
        record, created = yield from self.hash_table.insert_if_absent(
            key, value, pre_delay_s=self._take_pending(),
            actor=self.thread_id,
        )
        return record, created

    def hash_delete(self, key):
        existed = yield from self.hash_table.delete(
            key, pre_delay_s=self._take_pending(), actor=self.thread_id
        )
        return existed

    def __repr__(self) -> str:
        return f"<ThreadContext {self.thread_id} on PPE {self.ppe.index}>"
