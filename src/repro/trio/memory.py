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

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

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


class MemoryRegion:
    """One contiguous latency-homogeneous range of the unified address space."""

    def __init__(self, name: str, base: int, size: int, latency_s: float):
        self.name = name
        self.base = base
        self.size = size
        self.end = base + size
        self.latency_s = latency_s
        self._pages: Dict[int, bytearray] = {}
        self._bump = base
        #: Freed blocks as (addr, size), in the order they were freed.
        self._free: List[Tuple[int, int]] = []
        self.allocated_bytes = 0

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
        if addr < self.base or addr + size > self.end:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + size:#x}) outside region "
                f"{self.name} [{self.base:#x}, {self.end:#x})"
            )

    # -- allocation -----------------------------------------------------

    def alloc(self, size: int, align: int = 64) -> int:
        """First-fit allocation, falling back to the bump pointer."""
        if size <= 0:
            raise MemoryError_(f"allocation size must be positive, got {size}")
        free = self._free
        for i, (addr, block_size) in enumerate(free):
            aligned = (addr + align - 1) // align * align
            waste = aligned - addr
            if block_size >= size + waste:
                remaining = block_size - size - waste
                if remaining > 0:
                    free[i] = (aligned + size, remaining)
                else:
                    del free[i]
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
        self._free.append((addr, size))
        self.allocated_bytes -= size


class _LineGroup:
    """The lines one DRAM-cache access touched (see :class:`_DramCache`)."""

    __slots__ = ("first", "last", "lines", "live")

    def __init__(self, first: int, last: int):
        self.first = first
        self.last = last
        #: Lines in address order; a line that a later access took over
        #: stays listed until eviction skips it.
        self.lines: Deque[int] = deque()
        #: How many of ``lines`` this group still owns.
        self.live = 0


class _DramCache:
    """LRU tag store over 64-byte lines modelling the on-chip DRAM cache.

    Exact per-line LRU, kept per access.  The lines one access touches
    form a group with one stamp (its place in ``_groups``), and the LRU
    order is (stamp, line): the order a per-line ``move_to_end`` walk in
    address order leaves.  An access to exactly the lines of an earlier
    access that still owns them all hits and re-stamps that group in
    O(1).  Any other access walks its lines one by one into a new group,
    evicting the least recent line on each miss that overfills the cache.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_lines = max(1, capacity_bytes // _LINE_SIZE)
        #: Present line -> the group of the access that touched it last.
        self._owner: Dict[int, _LineGroup] = {}
        #: Groups that own a line, least recently stamped first.
        self._groups: "OrderedDict[_LineGroup, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, addr: int, size: int) -> bool:
        """Touch the lines covering [addr, addr+size); True if all hit."""
        first = addr // _LINE_SIZE
        last = (addr + max(size, 1) - 1) // _LINE_SIZE
        owner = self._owner
        groups = self._groups
        group = owner.get(first)
        if (group is not None and group.first == first
                and group.last == last and group.live == last - first + 1):
            groups.move_to_end(group)
            self.hits += group.live
            return True
        group = _LineGroup(first, last)
        groups[group] = None
        lines = group.lines
        all_hit = True
        for line in range(first, last + 1):
            previous = owner.get(line)
            owner[line] = group
            lines.append(line)
            group.live += 1
            if previous is not None:
                self.hits += 1
                previous.live -= 1
                if not previous.live:
                    del groups[previous]
            else:
                all_hit = False
                self.misses += 1
                if len(owner) > self.capacity_lines:
                    self._evict()
        return all_hit

    def _evict(self) -> None:
        """Drop the least recent line: the lowest line still owned by the
        least recently stamped group."""
        groups = self._groups
        group = next(iter(groups))
        owner = self._owner
        lines = group.lines
        line = lines.popleft()
        while owner.get(line) is not group:
            line = lines.popleft()
        del owner[line]
        group.live -= 1
        if not group.live:
            del groups[group]


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
        region = self.dram if addr >= self.DRAM_BASE else self.sram
        if region.base <= addr < region.end:
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
              pre_delay_s: float, actor, atomic: bool = False,
              at: Optional[float] = None):
        """The one path of every XTXN: wait, serve, record the window.

        The access leaves the issuing thread at its own time: ``at`` (the
        thread clock, ``env.now`` when None) plus ``pre_delay_s`` (its
        deferred ``execute`` charge).  Its access latency ends in one
        kernel event at ``at + (pre_delay_s + latency)``, the instant
        eager sleeps would reach.  ``service`` is the RMW complex
        generator that serves the access from there.  ``actor``
        attributes the access to a PPE thread for the racecheck
        validator; the window goes to the obs bus, and recording never
        adds simulation events, so timing is identical either way.
        """
        env = self.env
        if at is None:
            at = env.now
        yield env.delay_until(
            at + (pre_delay_s + self.access_latency_s(addr, size)))
        result = yield from service
        obs = _obs.session()
        if obs is not None:
            obs.record(actor, op, addr, size, at + pre_delay_s, env.now,
                       atomic=atomic)
        return result

    def read(self, addr: int, size: int = 8, pre_delay_s: float = 0.0,
             actor=None, at: Optional[float] = None):
        """Synchronous read XTXN; returns the bytes."""
        self._validate_xtxn_size(size)
        return (yield from self._xtxn(
            self.rmw.execute(RMWOpKind.READ, addr, size),
            "read", addr, size, pre_delay_s, actor, at=at))

    def write(self, addr: int, data: bytes, pre_delay_s: float = 0.0,
              actor=None, at: Optional[float] = None):
        """Synchronous write XTXN."""
        size = len(data)
        self._validate_xtxn_size(size)
        yield from self._xtxn(
            self.rmw.execute(RMWOpKind.WRITE, addr, size, data=data),
            "write", addr, size, pre_delay_s, actor, at=at)

    def add32(self, addr: int, operand: int, pre_delay_s: float = 0.0,
              actor=None, at: Optional[float] = None):
        """32-bit add RMW; returns the old value."""
        return (yield from self._xtxn(
            self.rmw.execute(RMWOpKind.ADD32, addr, 4, operand=operand),
            "write", addr, 4, pre_delay_s, actor, atomic=True, at=at))

    def fetch_and_op(self, kind: RMWOpKind, addr: int, operand: int,
                     size: int = 8, pre_delay_s: float = 0.0, actor=None,
                     at: Optional[float] = None):
        """Logical fetch-and-op (AND/OR/XOR/CLEAR/SWAP); returns old value."""
        self._validate_xtxn_size(size)
        return (yield from self._xtxn(
            self.rmw.execute(kind, addr, size, operand=operand),
            "write", addr, size, pre_delay_s, actor, atomic=True, at=at))

    def masked_write(self, addr: int, operand: int, mask: int, size: int = 8,
                     pre_delay_s: float = 0.0, actor=None,
                     at: Optional[float] = None):
        """Masked write RMW; returns the old value."""
        self._validate_xtxn_size(size)
        return (yield from self._xtxn(
            self.rmw.execute(RMWOpKind.MASKED_WRITE, addr, size,
                             operand=operand, mask=mask),
            "write", addr, size, pre_delay_s, actor, atomic=True, at=at))

    def counter_inc(self, addr: int, nbytes: int, pre_delay_s: float = 0.0,
                    actor=None, at: Optional[float] = None):
        """Packet/Byte Counter increment (the CounterIncPhys XTXN, §3.2)."""
        yield from self._xtxn(
            self.rmw.execute(RMWOpKind.COUNTER_INC, addr, 16, operand=nbytes),
            "write", addr, 16, pre_delay_s, actor, atomic=True,
            at=at)

    # -- bulk paths used by aggregation ----------------------------------

    def bulk_add32(self, addr: int, values: Sequence[int],
                   pre_delay_s: float = 0.0, actor=None,
                   at: Optional[float] = None):
        """Aggregate a vector of int32 values into memory (fluid model)."""
        yield from self._xtxn(
            self.rmw.bulk_add32(addr, values),
            "write", addr, 4 * len(values), pre_delay_s, actor, atomic=True,
            at=at)

    def bulk_read(self, addr: int, size: int, pre_delay_s: float = 0.0,
                  actor=None, at: Optional[float] = None):
        """Stream ``size`` bytes out of memory; returns the bytes."""
        yield from self._xtxn(self.rmw.bulk_transfer(size),
                              "read", addr, size, pre_delay_s, actor, at=at)
        return self.read_raw(addr, size)

    def bulk_write(self, addr: int, data: bytes, pre_delay_s: float = 0.0,
                   actor=None, at: Optional[float] = None):
        """Stream ``data`` into memory."""
        yield from self._xtxn(self.rmw.bulk_transfer(len(data)),
                              "write", addr, len(data), pre_delay_s, actor,
                              at=at)
        self.write_raw(addr, data)
