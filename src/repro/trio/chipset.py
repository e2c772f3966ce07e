"""Per-generation Trio chipset configuration.

The paper gives hard numbers for some parameters (1 GHz clock, 70 ns SRAM
and 300–400 ns DRAM access latency, 8 B/cycle per RMW engine, 12 RMW
engines used by Trio-ML, 192-byte packet head for the evaluated generation,
1.25 KB of thread-local memory, 32×64-bit registers, 16 PPEs in gen 1 and
160 in gen 6, 40 Gbps in gen 1 and 1.6 Tbps in gen 6).  Parameters the
paper leaves out (threads per PPE: "tens"; instruction pipeline depth:
"multiple clock cycles") are set to representative values and marked as
estimates; every model reads them from this config so they can be swept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = ["TrioChipsetConfig", "GENERATIONS"]


@dataclass(frozen=True)
class TrioChipsetConfig:
    """All architectural parameters of one Trio PFE generation."""

    generation: int
    year: int
    #: Network bandwidth of one PFE, bits/second.
    pfe_bandwidth_bps: float
    #: Number of Packet Processing Engines per PFE.
    num_ppes: int
    #: Hardware threads per PPE ("tens" in the paper; estimate).
    threads_per_ppe: int = 20
    #: PPE core clock, Hz (§6.3: 1 GHz).
    clock_hz: float = 1e9
    #: Cycles from instruction dispatch to writeback.  A thread cannot issue
    #: its next datapath instruction until the previous one exits the
    #: pipeline (§2.2), so single-thread rate is clock/pipeline_depth while
    #: a fully threaded PPE sustains one instruction per cycle.  Estimate.
    pipeline_depth_cycles: int = 20
    #: Bytes of the packet placed in the head (§4: 192 for this generation).
    head_size_bytes: int = 192
    #: Thread-local memory (§2.2: 1.25 KB).
    lmem_bytes: int = 1280
    #: 64-bit general purpose registers per thread (§2.2).
    registers_per_thread: int = 32
    #: Call-return nesting limit (§2.2).
    call_stack_depth: int = 8
    #: On-chip SRAM size (software configurable, typically 2–8 MB).
    sram_bytes: int = 8 * 1024 * 1024
    #: Off-chip DRAM cache size (typically 8–24 MB).
    dram_cache_bytes: int = 16 * 1024 * 1024
    #: Off-chip DRAM size (several GB).
    dram_bytes: int = 4 * 1024 * 1024 * 1024
    #: SRAM access latency from the PPE (§2.3: ~70 ns).
    sram_latency_s: float = 70e-9
    #: Off-chip DRAM access latency from the PPE (§2.3: 300–400 ns).
    dram_latency_s: float = 350e-9
    #: Latency of a DRAM access that hits the on-chip DRAM cache (estimate:
    #: close to SRAM, plus tag lookup).
    dram_cache_hit_latency_s: float = 100e-9
    #: Number of read-modify-write engines (§6.3: Trio-ML uses 12).
    num_rmw_engines: int = 12
    #: Each RMW engine processes 8 bytes per clock cycle (§2.3).
    rmw_bytes_per_cycle: int = 8
    #: Cycles per 32-bit add performed by an RMW engine (§6.3: 2).
    rmw_add32_cycles: int = 2
    #: Latency to pull a chunk of packet tail from the Memory and Queueing
    #: Subsystem into LMEM via an XTXN (estimate: DRAM-class access).
    tail_read_latency_s: float = 300e-9
    #: Maximum single memory transaction size, bytes (§2.3: 8–64 B).
    max_xtxn_bytes: int = 64
    #: Number of high-resolution hardware timers (§5: "tens").
    num_hw_timers: int = 32

    @property
    def cycle_s(self) -> float:
        """Duration of one clock cycle in seconds."""
        return 1.0 / self.clock_hz

    @property
    def single_thread_instr_s(self) -> float:
        """Latency of one datapath instruction as seen by one thread."""
        return self.pipeline_depth_cycles * self.cycle_s

    @property
    def total_threads(self) -> int:
        """Hardware threads across all PPEs of the PFE."""
        return self.num_ppes * self.threads_per_ppe

    @property
    def rmw_add32_rate_ops_s(self) -> float:
        """Aggregate 32-bit add rate of the RMW complex (§6.3: 6 Gop/s)."""
        return self.num_rmw_engines * self.clock_hz / self.rmw_add32_cycles

    def scaled(self, **overrides) -> "TrioChipsetConfig":
        """A copy of this config with selected fields overridden."""
        return replace(self, **overrides)


def _gen(generation: int, year: int, bandwidth_gbps: float, num_ppes: int,
         **overrides) -> TrioChipsetConfig:
    return TrioChipsetConfig(
        generation=generation,
        year=year,
        pfe_bandwidth_bps=bandwidth_gbps * 1e9,
        num_ppes=num_ppes,
        **overrides,
    )


#: The six Trio generations (§2: gen 1 in 2009 at 40 Gbps with 16 PPEs,
#: gen 6 in 2022 at 1.6 Tbps with 160 PPEs; §8 confirms the PPE counts).
#: Intermediate generations are interpolated estimates; the evaluation uses
#: generation 5 (MPC10E line cards, §6.1).
GENERATIONS: Dict[int, TrioChipsetConfig] = {
    1: _gen(1, 2009, 40.0, 16, num_rmw_engines=2),
    2: _gen(2, 2011, 130.0, 32, num_rmw_engines=4),
    3: _gen(3, 2013, 130.0, 40, num_rmw_engines=4),
    4: _gen(4, 2016, 240.0, 64, num_rmw_engines=8),
    5: _gen(5, 2019, 400.0, 96, num_rmw_engines=12),
    6: _gen(6, 2022, 1600.0, 160, num_rmw_engines=24),
}
