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


class PacketContext:
    """Per-packet processing state.

    The hardware splits each arriving packet into a head (loaded into the
    thread's LMEM) and a tail (kept in the Packet Buffer, §2.1).
    """

    __slots__ = ("packet", "head", "tail", "ingress_port", "arrival_seq",
                 "arrival_time", "action", "egress_port", "emitted")

    def __init__(self, packet: Packet, head: bytearray, tail: bytes,
                 ingress_port: Optional[str] = None, arrival_seq: int = 0,
                 arrival_time: float = 0.0):
        self.packet = packet
        self.head = head
        self.tail = tail
        self.ingress_port = ingress_port
        self.arrival_seq = arrival_seq
        self.arrival_time = arrival_time
        #: One of ACTION_FORWARD / ACTION_DROP / ACTION_CONSUME.
        self.action = ACTION_FORWARD
        #: Optional egress port name chosen by the application.
        self.egress_port: Optional[str] = None
        #: New packets emitted during processing: (packet, egress_port_or_None).
        self.emitted: List[Tuple[Packet, Optional[str]]] = []

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
    instead of reallocated.  Methods that may suspend the thread return
    generators to use with ``yield from``.

    A thread keeps its own time and turns it into a kernel event only
    where another party can see it.  ``execute`` charges accumulate in
    :attr:`pending_s`; pure waits with no shared resource (tail reads,
    the Result loop's chunk latency) move :attr:`clock` instead of
    sleeping.  The next memory or hash XTXN, or the final :meth:`flush`,
    schedules one event at ``clock + (pending + latency)``: the same
    additions in the same order as sleeping each wait eagerly, so every
    completion timestamp is unchanged and only the event count drops.
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
        #: Latency of one datapath instruction on this thread.
        self.instr_s = config.single_thread_instr_s
        #: Accumulated pure-delay charge not yet turned into a kernel event.
        self.pending_s = 0.0
        #: Where folded pure waits have taken the thread, or None while
        #: it is at ``env.now``.
        self.clock: Optional[float] = None
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
        self.clock = None
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
    # Compute and the thread clock
    # ------------------------------------------------------------------

    def execute(self, n_instructions: int) -> Tuple[()]:
        """Run ``n_instructions`` datapath instructions on this thread.

        Charges single-thread latency: ``n × pipeline_depth / clock``.
        The charge is deferred and folded into the thread's next blocking
        wait (or its final flush), which is timing-equivalent because a
        pure delay commutes with the delays around it.  Returns ``()``,
        so ``yield from tctx.execute(n)`` works and builds no generator.
        """
        if n_instructions < 0:
            raise ValueError(f"negative instruction count: {n_instructions}")
        self.instructions += n_instructions
        ppe = self.ppe
        ppe.instructions_executed += n_instructions
        delay = n_instructions * self.instr_s
        ppe.busy_s += delay
        self.pending_s += delay
        return ()

    def advance(self, delay_s: float) -> None:
        """Charge a pure wait by moving the thread clock, not sleeping.

        Only for waits on nothing another party changes: the thread's
        next XTXN or :meth:`flush` turns the clock into a kernel event.
        """
        clock = self.clock
        self.clock = (self.env.now if clock is None else clock) + (
            self.pending_s + delay_s)
        self.pending_s = 0.0

    def _issue(self) -> Tuple[Optional[float], float]:
        """(clock, pending charge) a blocking wait starts from; the
        thread is back in step with the kernel once it wakes."""
        clock, pending = self.clock, self.pending_s
        self.clock = None
        self.pending_s = 0.0
        return clock, pending

    def flush(self):
        """Turn the pending charge and folded waits into one kernel event."""
        clock, pending = self._issue()
        if clock is not None:
            yield self.env.delay_until(clock + pending)
        elif pending:
            yield self.env.delay(pending)

    @property
    def now(self) -> float:
        """Thread-local simulated time, including deferred charges.

        Equals what ``env.now`` would read if every ``execute`` charge and
        pure wait had been slept eagerly; model code inside handlers must
        use this (not ``env.now``) when timestamping.
        """
        clock = self.clock
        return (self.env.now if clock is None else clock) + self.pending_s

    def set_register(self, index: int, value: int) -> None:
        """Write a 64-bit GPR (wraps modulo 2^64)."""
        self.registers[index] = value & (2**64 - 1)

    # ------------------------------------------------------------------
    # Packet tail access (§4: tail data resides in the Memory and
    # Queueing Subsystem and must be read into LMEM before use)
    # ------------------------------------------------------------------

    def read_tail(self, offset: int, size: int):
        """XTXN pulling ``size`` tail bytes into LMEM; returns the bytes.

        A pure latency (no shared resource), so it moves the thread clock.
        """
        if self.packet_ctx is None:
            raise RuntimeError("no packet bound to this thread")
        tail = self.packet_ctx.tail
        if offset < 0 or offset > len(tail):
            raise ValueError(
                f"tail offset {offset} outside 0..{len(tail)}"
            )
        self.advance(self.config.tail_read_latency_s)
        chunk = tail[offset:offset + size]
        self.lmem[: len(chunk)] = chunk  # lands in LMEM scratch space
        return chunk
        yield  # pragma: no cover - makes this a (zero-event) generator

    def read_tail_chunks(self, num_chunks: int) -> Tuple[()]:
        """Charge the latency of ``num_chunks`` sequential tail XTXNs.

        The per-chunk reads of the Figure 10 loop are pure back-to-back
        latency (no shared resource between them), so they move the
        thread clock by the lumped latency; no chunks and nothing
        pending leave it where it is.  Returns ``()`` like
        :meth:`execute`.
        """
        if num_chunks < 0:
            raise ValueError(f"negative chunk count: {num_chunks}")
        total = num_chunks * self.config.tail_read_latency_s
        if total or self.pending_s:
            self.advance(total)
        return ()

    # ------------------------------------------------------------------
    # Shared Memory System XTXNs (synchronous: thread suspends, §3.1)
    # ------------------------------------------------------------------

    # Each returns the XTXN's generator, issued from the thread's own
    # time, for the caller to ``yield from``.

    def mem_read(self, addr: int, size: int = 8):
        at, pending = self._issue()
        return self.memory.read(addr, size, pending, self.thread_id, at)

    def mem_write(self, addr: int, data: bytes):
        at, pending = self._issue()
        return self.memory.write(addr, data, pending, self.thread_id, at)

    def mem_add32(self, addr: int, operand: int):
        at, pending = self._issue()
        return self.memory.add32(addr, operand, pending, self.thread_id, at)

    def mem_fetch_and_op(self, kind: RMWOpKind, addr: int, operand: int,
                         size: int = 8):
        at, pending = self._issue()
        return self.memory.fetch_and_op(
            kind, addr, operand, size, pending, self.thread_id, at)

    def counter_inc(self, addr: int, nbytes: int):
        """The CounterIncPhys XTXN (§3.2)."""
        at, pending = self._issue()
        return self.memory.counter_inc(
            addr, nbytes, pending, self.thread_id, at)

    def mem_bulk_add32(self, addr: int, values):
        """Aggregate an int32 vector at ``addr`` (the bulk RMW path)."""
        at, pending = self._issue()
        return self.memory.bulk_add32(
            addr, values, pending, self.thread_id, at)

    def mem_bulk_read(self, addr: int, size: int):
        """Stream ``size`` bytes out of memory; returns the bytes."""
        at, pending = self._issue()
        return self.memory.bulk_read(addr, size, pending, self.thread_id, at)

    def mem_bulk_write(self, addr: int, data: bytes):
        """Stream ``data`` into memory."""
        at, pending = self._issue()
        return self.memory.bulk_write(
            addr, data, pending, self.thread_id, at)

    # ------------------------------------------------------------------
    # Hash block XTXNs
    # ------------------------------------------------------------------

    def hash_lookup(self, key):
        at, pending = self._issue()
        return self.hash_table.lookup(key, pending, self.thread_id, at)

    def hash_insert_if_absent(self, key, value):
        at, pending = self._issue()
        return self.hash_table.insert_if_absent(
            key, value, pending, self.thread_id, at)

    def hash_delete(self, key):
        at, pending = self._issue()
        return self.hash_table.delete(key, pending, self.thread_id, at)

    def __repr__(self) -> str:
        return f"<ThreadContext {self.thread_id} on PPE {self.ppe.index}>"
