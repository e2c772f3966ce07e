"""The Trio chipset model.

This package models the architecture of §2 of the paper:

* :mod:`repro.trio.chipset` — per-generation configuration (clock, PPE
  count, memory sizes and latencies, RMW engine count).
* :mod:`repro.trio.rmw` — read-modify-write engines and their operations.
* :mod:`repro.trio.memory` — the Shared Memory System (on-chip SRAM,
  off-chip DRAM with on-chip cache, unified address space, allocator).
* :mod:`repro.trio.hashtable` — the hardware hash block with per-record
  'Recently Referenced' (REF) flags.
* :mod:`repro.trio.counters` — Packet/Byte Counters and policers.
* :mod:`repro.trio.ppe` — multi-threaded Packet Processing Engines and the
  thread context exposed to applications.
* :mod:`repro.trio.reorder` — the Reorder Engine.
* :mod:`repro.trio.timers` — timer threads (§5).
* :mod:`repro.trio.pfe` — the Packet Forwarding Engine tying it together,
  its Dispatch module included.
* :mod:`repro.trio.router` — a multi-PFE router with interconnect fabric.
"""

from repro.trio.chipset import GENERATIONS, TrioChipsetConfig
from repro.trio.memory import MemoryError_, SharedMemorySystem
from repro.trio.rmw import RMWComplex
from repro.trio.hashtable import HardwareHashTable, HashRecord
from repro.trio.counters import PacketByteCounter, Policer
from repro.trio.ppe import PacketContext, PPE, ThreadContext
from repro.trio.reorder import ReorderEngine
from repro.trio.timers import TimerManager
from repro.trio.pfe import PFE, TrioApplication
from repro.trio.router import TrioRouter
from repro.trio.afi import AFIApplication, ForwardingGraph, ForwardingNode, Sandbox
from repro.trio.vmx import VirtualMX

__all__ = [
    "AFIApplication",
    "ForwardingGraph",
    "ForwardingNode",
    "Sandbox",
    "VirtualMX",
    "GENERATIONS",
    "HardwareHashTable",
    "HashRecord",
    "MemoryError_",
    "PFE",
    "PPE",
    "PacketByteCounter",
    "PacketContext",
    "Policer",
    "RMWComplex",
    "ReorderEngine",
    "SharedMemorySystem",
    "ThreadContext",
    "TimerManager",
    "TrioApplication",
    "TrioChipsetConfig",
    "TrioRouter",
]
