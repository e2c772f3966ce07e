"""Read-modify-write engines (§2.3).

Packet processing needs extremely high-rate read-modify-write operations,
so Trio offloads them to engines that sit next to the memory banks: a range
of addresses is owned by one engine, concurrent requests to the same
location are serialised by that engine, and no coherence traffic is needed.

Two service paths are modelled:

* **Per-op path** (:meth:`RMWComplex.execute`): a single operation is
  queued FCFS on the engine owning its address and served at 8 bytes per
  clock cycle (adds take 2 cycles per 32-bit word).  This is what counters,
  policers, fetch-and-ops, and record updates use.
* **Bulk path** (:meth:`RMWComplex.bulk_add32`): gradient aggregation
  writes whole 64-byte chunks whose words interleave across all engines.
  Per-word event simulation would be prohibitive, so the bulk path models
  the engine complex as a fluid FCFS server with the exact aggregate rate
  of the hardware — ``num_engines × clock / add_cycles`` adds per second
  (6 G adds/s for the evaluated generation, §6.3).  Aggregate-rate
  contention between concurrent aggregations is preserved; per-word
  ordering detail is not (documented deviation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.obs import bus as _obs
from repro.sim import Environment, Resource

__all__ = ["RMWComplex", "RMWOpKind", "RMWStats"]


class RMWOpKind(enum.Enum):
    """The read-modify-write operations the memory system supports (§2.3)."""

    READ = "read"
    WRITE = "write"
    ADD32 = "add32"
    FETCH_AND_AND = "fetch_and_and"
    FETCH_AND_OR = "fetch_and_or"
    FETCH_AND_XOR = "fetch_and_xor"
    FETCH_AND_CLEAR = "fetch_and_clear"
    FETCH_AND_SWAP = "fetch_and_swap"
    MASKED_WRITE = "masked_write"
    COUNTER_INC = "counter_inc"


@dataclass
class RMWStats:
    """Operation counters for one engine or the whole complex."""

    ops: int = 0
    bytes_serviced: int = 0
    busy_s: float = 0.0


class RMWComplex:
    """All RMW engines of one PFE plus the fluid bulk-aggregation server."""

    #: Address-interleave granule: consecutive 64 B blocks map to
    #: consecutive engines, spreading hot structures across the complex.
    INTERLEAVE_BYTES = 64

    def __init__(
        self,
        env: Environment,
        storage,
        num_engines: int = 12,
        clock_hz: float = 1e9,
        bytes_per_cycle: int = 8,
        add32_cycles: int = 2,
    ):
        """``storage`` must expose ``read_raw(addr, size)``,
        ``write_raw(addr, data)``, ``read_int(addr, size)`` and
        ``write_int(addr, value, size)``; latency is charged here, not
        there."""
        if num_engines < 1:
            raise ValueError(f"need at least one RMW engine, got {num_engines}")
        self.env = env
        self.storage = storage
        self.num_engines = num_engines
        self.clock_hz = float(clock_hz)
        self.bytes_per_cycle = bytes_per_cycle
        self.add32_cycles = add32_cycles
        self._engines: List[Resource] = [Resource(env) for __ in range(num_engines)]
        self._bulk_server = Resource(env)
        self.engine_stats: List[RMWStats] = [RMWStats() for __ in range(num_engines)]
        self.bulk_stats = RMWStats()
        #: Display name used for obs tracks/labels; the owning PFE
        #: overrides it with a per-PFE name.
        self.obs_name = "rmw"
        self._obs_busy = 0
        self._obs_bulk_busy = 0

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------

    @property
    def cycle_s(self) -> float:
        return 1.0 / self.clock_hz

    def engine_for(self, addr: int) -> int:
        """Index of the engine owning ``addr``."""
        return (addr // self.INTERLEAVE_BYTES) % self.num_engines

    def _service_cycles(self, kind: RMWOpKind, size: int) -> int:
        words8 = max(1, (size + self.bytes_per_cycle - 1) // self.bytes_per_cycle)
        if kind is RMWOpKind.ADD32:
            # Two cycles per 32-bit add; `size` bytes hold size/4 adds.
            return self.add32_cycles * max(1, size // 4)
        if kind is RMWOpKind.COUNTER_INC:
            # 16-byte Packet/Byte Counter: two 8-byte add updates.
            return 2 * self.add32_cycles
        return words8

    # ------------------------------------------------------------------
    # Per-op path
    # ------------------------------------------------------------------

    def execute(
        self,
        kind: RMWOpKind,
        addr: int,
        size: int = 8,
        data: Optional[bytes] = None,
        operand: int = 0,
        mask: int = 0,
    ):
        """Run one operation on the owning engine; returns the old value.

        Generator — use as ``result = yield from rmw.execute(...)``.
        Semantic summary (all integer ops little-endian over ``size``
        bytes unless noted):

        * READ: returns stored bytes.
        * WRITE: stores ``data``; returns None.
        * ADD32: adds ``operand`` to the 32-bit word at ``addr`` (wraps);
          returns the old value.
        * FETCH_AND_AND/OR/XOR: applies the logic op with ``operand``;
          returns the old value.
        * FETCH_AND_CLEAR: clears bits in ``operand``; returns old value.
        * FETCH_AND_SWAP: stores ``operand``; returns old value.
        * MASKED_WRITE: ``new = (old & ~mask) | (operand & mask)``;
          returns old value.
        * COUNTER_INC: treats ``addr`` as a 16-byte Packet/Byte Counter;
          adds 1 to the packet half and ``operand`` to the byte half.
        """
        engine_idx = self.engine_for(addr)
        engine = self._engines[engine_idx]
        stats = self.engine_stats[engine_idx]
        obs = _obs.session()
        queued_at = self.env.now if obs is not None else 0.0
        grant = engine.acquire()
        if grant is not None:
            yield grant
        if obs is not None:
            obs.observe("rmw.queue_wait_s", self.env.now - queued_at,
                        complex=self.obs_name)
            self._obs_busy += 1
            obs.sample(f"rmw.engines_busy/{self.obs_name}",
                       self.env.now, self._obs_busy)
        try:
            service_s = self._service_cycles(kind, size) * self.cycle_s
            yield self.env.delay(service_s)
            stats.ops += 1
            stats.bytes_serviced += size
            stats.busy_s += service_s
            if obs is not None:
                # Commit point: the engine applies the op while holding
                # its FCFS grant — the serialization the MC4xx contract
                # relies on.  Recorded as evidence, never as a conflict.
                obs.note_engine_commit(engine_idx)
            return self._apply(kind, addr, size, data, operand, mask)
        finally:
            engine.release()
            if obs is not None:
                self._obs_busy -= 1
                obs.sample(f"rmw.engines_busy/{self.obs_name}",
                           self.env.now, self._obs_busy)

    def _apply(self, kind: RMWOpKind, addr: int, size: int,
               data: Optional[bytes], operand: int, mask: int):
        storage = self.storage
        if kind is RMWOpKind.READ:
            return storage.read_raw(addr, size)
        if kind is RMWOpKind.WRITE:
            if data is None:
                raise ValueError("WRITE needs data")
            storage.write_raw(addr, data)
            return None
        if kind is RMWOpKind.COUNTER_INC:
            for offset, delta in ((0, 1), (8, operand)):
                value = storage.read_int(addr + offset, 8) + delta
                storage.write_int(addr + offset, value & (2**64 - 1), 8)
            return None

        old = storage.read_int(addr, size)
        limit = (1 << (size * 8)) - 1
        if kind is RMWOpKind.ADD32:
            if size != 4:
                raise ValueError("ADD32 operates on 4-byte words")
            new = (old + operand) & 0xFFFFFFFF
        elif kind is RMWOpKind.FETCH_AND_AND:
            new = old & operand
        elif kind is RMWOpKind.FETCH_AND_OR:
            new = old | operand
        elif kind is RMWOpKind.FETCH_AND_XOR:
            new = old ^ operand
        elif kind is RMWOpKind.FETCH_AND_CLEAR:
            new = old & ~operand & limit
        elif kind is RMWOpKind.FETCH_AND_SWAP:
            new = operand & limit
        elif kind is RMWOpKind.MASKED_WRITE:
            new = (old & ~mask & limit) | (operand & mask)
        else:
            raise ValueError(f"unsupported RMW op: {kind}")
        storage.write_int(addr, new, size)
        return old

    # ------------------------------------------------------------------
    # Bulk path
    # ------------------------------------------------------------------

    def bulk_add32(self, addr: int, values: Sequence[int]):
        """Add a vector of 32-bit values into memory starting at ``addr``.

        Generator — the calling thread blocks for the complex's aggregate
        service time of ``len(values)`` adds, FCFS against all other bulk
        work.  Values and memory words wrap modulo 2^32 (the aggregation
        semantics of int32 gradient summation).
        """
        n_ops = len(values)
        if n_ops == 0:
            return
        yield from self._bulk(n_ops * self.add32_cycles, n_ops, 4 * n_ops)
        raw = self.storage.read_raw(addr, 4 * n_ops)
        current = np.frombuffer(raw, dtype="<u4").astype(np.int64)
        # One final mask suffices: (a + b) mod 2^32 == (a + b mod 2^32).
        summed = (current + np.asarray(values, dtype=np.int64)) & 0xFFFFFFFF
        self.storage.write_raw(addr, summed.astype("<u4").tobytes())

    def bulk_transfer(self, nbytes: int):
        """Charge bulk read/write bandwidth for ``nbytes`` (no mutation).

        Generator — used for streaming whole buffers (e.g. building the
        Result packet from the aggregation buffer) at the complex's
        aggregate 8 B/cycle/engine rate, FCFS with other bulk work.
        """
        if nbytes <= 0:
            return
        cycles = (nbytes + self.bytes_per_cycle - 1) // self.bytes_per_cycle
        yield from self._bulk(cycles, 1, nbytes)

    def _bulk(self, cycles: int, ops: int, nbytes: int):
        """Serve one bulk job of ``cycles`` engine cycles on the fluid
        server: FCFS wait, service at the complex's aggregate rate, and
        ``ops``/``nbytes`` into :attr:`bulk_stats`."""
        obs = _obs.session()
        queued_at = self.env.now if obs is not None else 0.0
        grant = self._bulk_server.acquire()
        if grant is not None:
            yield grant
        if obs is not None:
            obs.observe("rmw.bulk_wait_s", self.env.now - queued_at,
                        complex=self.obs_name)
            self._obs_bulk_busy += 1
            obs.sample(f"rmw.bulk_busy/{self.obs_name}",
                       self.env.now, self._obs_bulk_busy)
        try:
            service_s = cycles / (self.num_engines * self.clock_hz)
            yield self.env.delay(service_s)
            self.bulk_stats.ops += ops
            self.bulk_stats.bytes_serviced += nbytes
            self.bulk_stats.busy_s += service_s
        finally:
            self._bulk_server.release()
            if obs is not None:
                self._obs_bulk_busy -= 1
                obs.sample(f"rmw.bulk_busy/{self.obs_name}",
                           self.env.now, self._obs_bulk_busy)

    @property
    def total_ops(self) -> int:
        """Ops serviced across all engines and the bulk server."""
        return self.bulk_stats.ops + sum(s.ops for s in self.engine_stats)
