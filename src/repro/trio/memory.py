"""The Shared Memory System (§2.3).

One unified address space spans two architecturally equivalent memories
that differ only in capacity, latency, and bandwidth:

* **On-chip SRAM** — heavily multi-banked, ~70 ns access from the PPE,
  typically 2–8 MB; used for frequently accessed structures.
* **Off-chip DRAM** — several GB at 300–400 ns, fronted by a multi-megabyte
  on-chip cache (modelled as an LRU over 64-byte lines).

All PPE accesses go through XTXNs: a request to a read-modify-write
engine, service there, and a reply.  Region latency models the full
PPE-observed round trip, crossbar transit included (§2.3: the crossbar
"will never limit the memory performance", so it has no model of its
own); engine queueing adds on top under contention.
Storage is sparse (4 KB pages allocated on first touch) so multi-gigabyte
regions cost nothing until used.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import bus as _obs
from repro.sim import Environment
from repro.trio.chipset import TrioChipsetConfig
from repro.trio.rmw import RMWComplex, RMWOpKind

__all__ = ["MemoryError_", "MemoryRegion", "SharedMemorySystem"]

_PAGE_SIZE = 4096
_LINE_SIZE = 64


class MemoryError_(Exception):
    """Raised on out-of-range accesses or allocation failure.

    (Named with a trailing underscore to avoid shadowing the builtin.)
    """


@dataclass
class _FreeBlock:
    addr: int
    size: int


class MemoryRegion:
    """One contiguous latency-homogeneous range of the unified address space."""

    def __init__(self, name: str, base: int, size: int, latency_s: float):
        self.name = name
        self.base = base
        self.size = size
        self.latency_s = latency_s
        self._pages: Dict[int, bytearray] = {}
        self._bump = base
        self._free: List[_FreeBlock] = []
        self.allocated_bytes = 0

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    # -- raw storage ----------------------------------------------------

    def read_raw(self, addr: int, size: int) -> bytes:
        self._check_range(addr, size)
        page_idx, offset = divmod(addr, _PAGE_SIZE)
        end = offset + size
        if end <= _PAGE_SIZE:
            # Fast path: the access lives in a single page (every 8-64 B
            # XTXN does, given 64 B alignment of allocations).
            page = self._pages.get(page_idx)
            if page is None:
                return bytes(size)
            return bytes(page[offset:end])
        out = bytearray(size)
        pos = 0
        while pos < size:
            page_idx, offset = divmod(addr + pos, _PAGE_SIZE)
            take = min(_PAGE_SIZE - offset, size - pos)
            page = self._pages.get(page_idx)
            if page is not None:
                out[pos:pos + take] = page[offset:offset + take]
            pos += take
        return bytes(out)

    def write_raw(self, addr: int, data: bytes) -> None:
        size = len(data)
        self._check_range(addr, size)
        page_idx, offset = divmod(addr, _PAGE_SIZE)
        end = offset + size
        if end <= _PAGE_SIZE:
            page = self._pages.get(page_idx)
            if page is None:
                page = bytearray(_PAGE_SIZE)
                self._pages[page_idx] = page
            page[offset:end] = data
            return
        pos = 0
        while pos < size:
            page_idx, offset = divmod(addr + pos, _PAGE_SIZE)
            take = min(_PAGE_SIZE - offset, size - pos)
            page = self._pages.get(page_idx)
            if page is None:
                page = bytearray(_PAGE_SIZE)
                self._pages[page_idx] = page
            page[offset:offset + take] = data[pos:pos + take]
            pos += take

    def read_int(self, addr: int, size: int) -> int:
        """Little-endian unsigned read without a bytes round trip.

        Fast path for the 8-byte-and-under aligned accesses the RMW
        engines issue on every fetch-and-op; falls back to
        :meth:`read_raw` for page-straddling accesses.
        """
        self._check_range(addr, size)
        page_idx, offset = divmod(addr, _PAGE_SIZE)
        end = offset + size
        if end <= _PAGE_SIZE:
            page = self._pages.get(page_idx)
            if page is None:
                return 0
            return int.from_bytes(page[offset:end], "little")
        return int.from_bytes(self.read_raw(addr, size), "little")

    def write_int(self, addr: int, value: int, size: int) -> None:
        """Little-endian unsigned write without a bytes round trip."""
        self._check_range(addr, size)
        page_idx, offset = divmod(addr, _PAGE_SIZE)
        end = offset + size
        if end <= _PAGE_SIZE:
            page = self._pages.get(page_idx)
            if page is None:
                page = bytearray(_PAGE_SIZE)
                self._pages[page_idx] = page
            page[offset:end] = value.to_bytes(size, "little")
            return
        self.write_raw(addr, value.to_bytes(size, "little"))

    def _check_range(self, addr: int, size: int) -> None:
        if size < 0:
            raise MemoryError_(f"negative access size: {size}")
        if addr < self.base or addr + size > self.base + self.size:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + size:#x}) outside region "
                f"{self.name} [{self.base:#x}, {self.end:#x})"
            )

    # -- allocation -----------------------------------------------------

    def alloc(self, size: int, align: int = 64) -> int:
        """First-fit allocation, falling back to the bump pointer."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive, got {size}")
        for i, block in enumerate(self._free):
            aligned = (block.addr + align - 1) // align * align
            waste = aligned - block.addr
            if block.size >= size + waste:
                remaining = block.size - size - waste
                if remaining > 0:
                    self._free[i] = _FreeBlock(aligned + size, remaining)
                else:
                    del self._free[i]
                self.allocated_bytes += size
                return aligned
        aligned = (self._bump + align - 1) // align * align
        if aligned + size > self.end:
            raise MemoryError_(
                f"region {self.name} exhausted "
                f"({self.allocated_bytes} bytes allocated, {size} requested)"
            )
        self._bump = aligned + size
        self.allocated_bytes += size
        return aligned

    def free(self, addr: int, size: int) -> None:
        """Return a block to the free list (no coalescing)."""
        self._check_range(addr, size)
        self._free.append(_FreeBlock(addr, size))
        self.allocated_bytes -= size


class _DramCache:
    """LRU tag store over 64-byte lines modelling the on-chip DRAM cache."""

    def __init__(self, capacity_bytes: int):
        self.capacity_lines = max(1, capacity_bytes // _LINE_SIZE)
        self._lines: "OrderedDict[int, None]" = OrderedDict()
        #: Lines of the last access when it spanned several and at most
        #: ``capacity_lines``: all present, the most recent in address order.
        self._mru_span: Optional[range] = None
        self.hits = 0
        self.misses = 0

    def access(self, addr: int, size: int) -> bool:
        """Touch the lines covering [addr, addr+size); True if all hit."""
        lines = self._lines
        first = addr // _LINE_SIZE
        last = (addr + max(size, 1) - 1) // _LINE_SIZE
        if first == last:
            # Fast path: the 8-64 B XTXNs live in one line.
            self._mru_span = None
            if first in lines:
                lines.move_to_end(first)
                self.hits += 1
                return True
            self.misses += 1
            lines[first] = None
            if len(lines) > self.capacity_lines:
                lines.popitem(last=False)
            return False
        span = range(first, last + 1)
        if span == self._mru_span:
            # The same lines again with nothing in between: each one hits,
            # and moving each to the back in address order keeps the order.
            self.hits += len(span)
            return True
        all_hit = True
        for line in span:
            if line in lines:
                lines.move_to_end(line)
                self.hits += 1
            else:
                all_hit = False
                self.misses += 1
                lines[line] = None
                if len(lines) > self.capacity_lines:
                    lines.popitem(last=False)
        # A walk only evicts lines it has not touched yet, so a span that
        # fits ends it wholly present and most recent, in address order.
        self._mru_span = span if len(span) <= self.capacity_lines else None
        return all_hit


class SharedMemorySystem:
    """The full PFE memory complex: regions, allocator, RMW engines, XTXNs."""

    SRAM_BASE = 0x0000_0000
    DRAM_BASE = 0x1_0000_0000

    def __init__(self, env: Environment, config: TrioChipsetConfig):
        self.env = env
        self.config = config
        self.sram = MemoryRegion(
            "sram", self.SRAM_BASE, config.sram_bytes, config.sram_latency_s
        )
        self.dram = MemoryRegion(
            "dram", self.DRAM_BASE, config.dram_bytes, config.dram_latency_s
        )
        self._regions = (self.sram, self.dram)
        #: Last region hit — repeated same-address RMW traffic (counters,
        #: aggregation buffers) resolves without rescanning the region list.
        self._region_cache: MemoryRegion = self.sram
        self._dram_cache = _DramCache(config.dram_cache_bytes)
        self.rmw = RMWComplex(
            env,
            storage=self,
            num_engines=config.num_rmw_engines,
            clock_hz=config.clock_hz,
            bytes_per_cycle=config.rmw_bytes_per_cycle,
            add32_cycles=config.rmw_add32_cycles,
        )

    # -- region plumbing -------------------------------------------------

    def region_of(self, addr: int) -> MemoryRegion:
        region = self._region_cache
        if region.base <= addr < region.end:
            return region
        for region in self._regions:
            if region.contains(addr):
                self._region_cache = region
                return region
        raise MemoryError_(f"address {addr:#x} is outside the unified space")

    def read_raw(self, addr: int, size: int) -> bytes:
        """Zero-time raw read (used by RMW engines and tests)."""
        return self.region_of(addr).read_raw(addr, size)

    def write_raw(self, addr: int, data: bytes) -> None:
        """Zero-time raw write (used by RMW engines and tests)."""
        self.region_of(addr).write_raw(addr, data)

    def read_int(self, addr: int, size: int) -> int:
        """Zero-time little-endian read (RMW fetch-and-op fast path)."""
        return self.region_of(addr).read_int(addr, size)

    def write_int(self, addr: int, value: int, size: int) -> None:
        """Zero-time little-endian write (RMW fetch-and-op fast path)."""
        self.region_of(addr).write_int(addr, value, size)

    def alloc(self, size: int, region: str = "sram", align: int = 64) -> int:
        """Allocate ``size`` bytes in the named region; returns the address."""
        if region == "sram":
            return self.sram.alloc(size, align)
        if region == "dram":
            return self.dram.alloc(size, align)
        raise MemoryError_(f"unknown region: {region!r}")

    def free(self, addr: int, size: int) -> None:
        """Free a previously allocated block."""
        self.region_of(addr).free(addr, size)

    def access_latency_s(self, addr: int, size: int = 8) -> float:
        """PPE-observed latency for one access (DRAM cache aware)."""
        region = self.region_of(addr)
        if region is self.dram:
            if self._dram_cache.access(addr, size):
                return self.config.dram_cache_hit_latency_s
            return region.latency_s
        return region.latency_s

    @property
    def dram_cache_hits(self) -> int:
        return self._dram_cache.hits

    @property
    def dram_cache_misses(self) -> int:
        return self._dram_cache.misses

    # -- XTXN API (generators; yield from inside a process) ---------------

    def _validate_xtxn_size(self, size: int) -> None:
        limit = self.config.max_xtxn_bytes
        if size < 1 or size > limit:
            raise MemoryError_(
                f"XTXN size {size} outside 1..{limit} "
                "(memory transactions are 8-64 bytes, §2.3)"
            )

    def _xtxn(self, service, op: str, addr: int, size: int,
              pre_delay_s: float, actor, atomic: bool = False):
        """The one path of every XTXN: wait, serve, record the window.

        ``pre_delay_s`` folds a caller-side deferred charge (coalesced
        ``execute`` time) into the access wait — one kernel event instead
        of two, identical completion timestamp.  ``service`` is the RMW
        complex generator that serves the access once the ``size``-byte
        access latency has elapsed.  ``actor`` attributes the access to a
        PPE thread for the racecheck validator; the window goes to the
        obs bus, and recording never adds simulation events, so timing is
        identical either way.
        """
        obs = _obs.session()
        start = self.env.now + pre_delay_s if obs is not None else 0.0
        yield self.env.delay(pre_delay_s + self.access_latency_s(addr, size))
        result = yield from service
        if obs is not None:
            obs.record(actor, op, addr, size, start, self.env.now,
                       atomic=atomic)
        return result

    def read(self, addr: int, size: int = 8, pre_delay_s: float = 0.0,
             actor=None):
        """Synchronous read XTXN; returns the bytes."""
        self._validate_xtxn_size(size)
        return (yield from self._xtxn(
            self.rmw.execute(RMWOpKind.READ, addr, size),
            "read", addr, size, pre_delay_s, actor))

    def write(self, addr: int, data: bytes, pre_delay_s: float = 0.0,
              actor=None):
        """Synchronous write XTXN."""
        size = len(data)
        self._validate_xtxn_size(size)
        yield from self._xtxn(
            self.rmw.execute(RMWOpKind.WRITE, addr, size, data=data),
            "write", addr, size, pre_delay_s, actor)

    def add32(self, addr: int, operand: int, pre_delay_s: float = 0.0,
              actor=None):
        """32-bit add RMW; returns the old value."""
        return (yield from self._xtxn(
            self.rmw.execute(RMWOpKind.ADD32, addr, 4, operand=operand),
            "write", addr, 4, pre_delay_s, actor, atomic=True))

    def fetch_and_op(self, kind: RMWOpKind, addr: int, operand: int,
                     size: int = 8, pre_delay_s: float = 0.0, actor=None):
        """Logical fetch-and-op (AND/OR/XOR/CLEAR/SWAP); returns old value."""
        self._validate_xtxn_size(size)
        return (yield from self._xtxn(
            self.rmw.execute(kind, addr, size, operand=operand),
            "write", addr, size, pre_delay_s, actor, atomic=True))

    def masked_write(self, addr: int, operand: int, mask: int, size: int = 8,
                     pre_delay_s: float = 0.0, actor=None):
        """Masked write RMW; returns the old value."""
        self._validate_xtxn_size(size)
        return (yield from self._xtxn(
            self.rmw.execute(RMWOpKind.MASKED_WRITE, addr, size,
                             operand=operand, mask=mask),
            "write", addr, size, pre_delay_s, actor, atomic=True))

    def counter_inc(self, addr: int, nbytes: int, pre_delay_s: float = 0.0,
                    actor=None):
        """Packet/Byte Counter increment (the CounterIncPhys XTXN, §3.2)."""
        yield from self._xtxn(
            self.rmw.execute(RMWOpKind.COUNTER_INC, addr, 16, operand=nbytes),
            "write", addr, 16, pre_delay_s, actor, atomic=True)

    # -- bulk paths used by aggregation ----------------------------------

    def bulk_add32(self, addr: int, values: Sequence[int],
                   pre_delay_s: float = 0.0, actor=None):
        """Aggregate a vector of int32 values into memory (fluid model)."""
        yield from self._xtxn(
            self.rmw.bulk_add32(addr, values),
            "write", addr, 4 * len(values), pre_delay_s, actor, atomic=True)

    def bulk_read(self, addr: int, size: int, pre_delay_s: float = 0.0,
                  actor=None):
        """Stream ``size`` bytes out of memory; returns the bytes."""
        yield from self._xtxn(self.rmw.bulk_transfer(size),
                              "read", addr, size, pre_delay_s, actor)
        return self.read_raw(addr, size)

    def bulk_write(self, addr: int, data: bytes, pre_delay_s: float = 0.0,
                   actor=None):
        """Stream ``data`` into memory."""
        yield from self._xtxn(self.rmw.bulk_transfer(len(data)),
                              "write", addr, len(data), pre_delay_s, actor)
        self.write_raw(addr, data)
