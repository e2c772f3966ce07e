"""The vMX Virtual Router (§3.1).

Juniper's first step toward third-party access to Trio is vMX: a
virtualised Universal Routing Platform with a **virtual control plane**
(VCP, running Junos) and a **virtual forwarding plane** (VFP) that runs
the Microcode engine optimised for x86.

The model reuses the PFE machinery with an x86-calibrated "chipset":
a handful of worker cores instead of ~100 PPEs, deeper effective
instruction latency (interpreted Microcode), cache-hierarchy memory
latencies instead of the hardware's banked SRAM, and software-emulated
read-modify-write (fewer, slower engine equivalents — x86 atomics on a
shared cache line).  The same applications (including Trio-ML) run
unmodified, just slower — which is exactly vMX's value proposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.addressing import IPv4Address
from repro.sim import Environment
from repro.trio.chipset import TrioChipsetConfig
from repro.trio.pfe import PFE, TrioApplication

__all__ = ["VCP", "VirtualMX", "VMX_VFP_CONFIG"]

#: The VFP "chipset": Microcode on x86 (calibration estimates).
VMX_VFP_CONFIG = TrioChipsetConfig(
    generation=0,                 # not a silicon generation
    year=2015,
    pfe_bandwidth_bps=40e9,       # a well-tuned DPDK box
    num_ppes=8,                   # worker cores
    threads_per_ppe=4,            # SMT-ish software threads
    clock_hz=2.5e9,
    pipeline_depth_cycles=60,     # interpreted micro-instruction cost
    head_size_bytes=192,
    sram_bytes=32 * 1024 * 1024,        # "on-chip" = L3-resident
    dram_cache_bytes=32 * 1024 * 1024,
    dram_bytes=16 * 1024 * 1024 * 1024,
    sram_latency_s=40e-9,          # L3 hit
    dram_latency_s=120e-9,         # DRAM on a server
    dram_cache_hit_latency_s=40e-9,
    num_rmw_engines=2,             # software atomics serialise hard
    rmw_add32_cycles=12,           # lock-prefixed RMW on a hot line
    tail_read_latency_s=200e-9,
    num_hw_timers=32,
)


@dataclass
class _ConfigChange:
    version: int
    description: str


class VCP:
    """The virtual control plane: Junos-style candidate/commit config.

    Changes (routes, application installs) accumulate on a candidate and
    take effect on :meth:`commit`, mirroring Junos's commit model.
    """

    def __init__(self, vfp: PFE):
        self._vfp = vfp
        self._candidate: List = []
        self.committed_version = 0
        self.history: List[_ConfigChange] = []

    def set_route(self, dst: IPv4Address, port_name: str) -> None:
        self._candidate.append(
            ("route", IPv4Address(dst), port_name)
        )

    def set_application(self, app: TrioApplication) -> None:
        self._candidate.append(("app", app))

    @property
    def pending_changes(self) -> int:
        return len(self._candidate)

    def commit(self, comment: str = "") -> int:
        """Apply the candidate configuration to the forwarding plane."""
        for change in self._candidate:
            if change[0] == "route":
                __, dst, port_name = change
                self._vfp.add_route(dst, port_name)
            else:
                self._vfp.install_app(change[1])
        applied = len(self._candidate)
        self._candidate.clear()
        self.committed_version += 1
        self.history.append(
            _ConfigChange(self.committed_version,
                          comment or f"{applied} changes")
        )
        return self.committed_version

    def rollback(self) -> int:
        """Discard the candidate configuration."""
        discarded = len(self._candidate)
        self._candidate.clear()
        return discarded


class VirtualMX:
    """A vMX instance: one VFP (x86 Microcode engine) plus its VCP."""

    def __init__(self, env: Environment, name: str = "vmx",
                 num_ports: int = 4,
                 config: Optional[TrioChipsetConfig] = None):
        self.env = env
        self.name = name
        self.vfp = PFE(env, name=f"{name}-vfp",
                       config=config or VMX_VFP_CONFIG,
                       num_ports=num_ports)
        self.vcp = VCP(self.vfp)

    def port(self, index: int):
        return self.vfp.port(index)

    def __repr__(self) -> str:
        return f"<VirtualMX {self.name} cores={self.vfp.config.num_ppes}>"
