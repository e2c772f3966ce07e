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

Every engine and the bulk server is a FIFO server with a known service
time, so a request's finish is fixed when it arrives: it starts when the
requests ahead of it finish (``free_at``), or at once on an idle server,
and its process wakes once, at ``start + service``.  No grant event.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.obs import bus as _obs
from repro.sim import Environment

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


#: (queue-wait histogram, busy track) of the engines, then of the bulk
#: server.
_OBS_SERIES = (("rmw.queue_wait_s", "rmw.engines_busy"),
               ("rmw.bulk_wait_s", "rmw.bulk_busy"))


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
        #: Duration of one engine clock cycle.
        self.cycle_s = 1.0 / self.clock_hz
        self.bytes_per_cycle = bytes_per_cycle
        self.add32_cycles = add32_cycles
        # Per engine, then the bulk server last: requests whose finish
        # has not fired yet (a server is busy while this is non-zero),
        # and when the last of them finishes.
        self._held: List[int] = [0] * (num_engines + 1)
        self._free_at: List[float] = [0.0] * (num_engines + 1)
        self._bulk_index = num_engines
        self.engine_stats: List[RMWStats] = [RMWStats() for __ in range(num_engines)]
        self.bulk_stats = RMWStats()
        #: Display name used for obs tracks/labels; the owning PFE
        #: overrides it with a per-PFE name.
        self.obs_name = "rmw"
        #: Requests in service on the engines and on the bulk server.
        self._obs_busy = [0, 0]
        #: Arrival times of the requests queued at each server, kept
        #: while obs records, so a request's wait and start are recorded
        #: when the one ahead of it finishes.
        self._obs_waiting: List[Deque[float]] = [
            deque() for __ in range(num_engines + 1)]

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------

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
        service_s = self._service_cycles(kind, size) * self.cycle_s
        obs = _obs.session()
        finish = self._serve(engine_idx, service_s, obs)
        try:
            yield finish
            stats = self.engine_stats[engine_idx]
            stats.ops += 1
            stats.bytes_serviced += size
            stats.busy_s += service_s
            if obs is not None:
                # Commit point: the engine applies the op at the end of
                # its FCFS service — the serialization the MC4xx contract
                # relies on.  Recorded as evidence, never as a conflict.
                obs.note_engine_commit(engine_idx)
            return self._apply(kind, addr, size, data, operand, mask)
        finally:
            self._done(engine_idx, obs)

    def _serve(self, server: int, service_s: float, obs):
        """The event a request arriving now at ``server`` (an engine
        index, or :attr:`_bulk_index`) waits on: its FIFO finish instant."""
        env = self.env
        held = self._held
        if held[server]:
            finish = self._free_at[server] + service_s
            self._free_at[server] = finish
            held[server] += 1
            if obs is not None:
                self._obs_waiting[server].append(env.now)
            return env.delay_until(finish)
        held[server] = 1
        self._free_at[server] = env.now + service_s
        if obs is not None:
            self._obs_busy_step(obs, server, 1, 0.0)
        return env.delay(service_s)

    def _done(self, server: int, obs) -> None:
        """A request at ``server`` finished: the next queued one starts."""
        self._held[server] -= 1
        if obs is None:
            return
        self._obs_busy_step(obs, server, -1)
        waiting = self._obs_waiting[server]
        if waiting:
            self._obs_busy_step(obs, server, 1,
                                self.env.now - waiting.popleft())

    def _obs_busy_step(self, obs, server: int, step: int,
                       wait_s: Optional[float] = None) -> None:
        """Record a request entering (with its queue wait) or leaving
        service at ``server``."""
        bulk = server == self._bulk_index
        wait_name, busy_name = _OBS_SERIES[bulk]
        if wait_s is not None:
            obs.observe(wait_name, wait_s, complex=self.obs_name)
        self._obs_busy[bulk] += step
        obs.sample(f"{busy_name}/{self.obs_name}", self.env.now,
                   self._obs_busy[bulk])

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
        work.  ``values`` is a list or an integer array (the int32 view
        the Trio-ML decoder returns); values and memory words wrap modulo
        2^32 (the aggregation semantics of int32 gradient summation).
        """
        n_ops = len(values)
        if n_ops == 0:
            return
        yield from self._bulk(n_ops * self.add32_cycles, n_ops, 4 * n_ops)
        raw = self.storage.read_raw(addr, 4 * n_ops)
        # The cast to uint32 wraps each addend modulo 2^32, and so does
        # the uint32 sum: (a + b) mod 2^32 == (a + b mod 2^32).
        summed = (np.frombuffer(raw, dtype="<u4")
                  + np.asarray(values).astype("<u4"))
        self.storage.write_raw(addr, summed.tobytes())

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
        service_s = cycles / (self.num_engines * self.clock_hz)
        obs = _obs.session()
        finish = self._serve(self._bulk_index, service_s, obs)
        try:
            yield finish
            self.bulk_stats.ops += ops
            self.bulk_stats.bytes_serviced += nbytes
            self.bulk_stats.busy_s += service_s
        finally:
            self._done(self._bulk_index, obs)
