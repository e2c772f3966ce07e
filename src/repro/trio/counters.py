"""Packet/Byte Counters and policers (§2.3, §3.2).

A Packet/Byte Counter is a 16-byte shared-memory structure: an 8-byte
packet count followed by an 8-byte byte count, updated atomically by the
``CounterIncPhys`` XTXN (packet half +1, byte half +packet length).

A policer is a token bucket evaluated by the read-modify-write engine next
to its state, so hundreds of threads can police the same flow without
moving the state around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sim import Environment
from repro.trio.memory import SharedMemorySystem
from repro.trio.rmw import RMWOpKind

__all__ = ["PacketByteCounter", "Policer"]


class PacketByteCounter:
    """A 16-byte Packet/Byte Counter living in the Shared Memory System."""

    SIZE = 16

    def __init__(self, memory: SharedMemorySystem, region: str = "sram"):
        self.memory = memory
        self.addr = memory.alloc(self.SIZE, region=region, align=16)

    def increment(self, packet_length: int):
        """CounterIncPhys XTXN: +1 packet, +``packet_length`` bytes.

        Generator — ``yield from counter.increment(len(pkt))``.
        """
        yield from self.memory.counter_inc(self.addr, packet_length)

    def read(self) -> Tuple[int, int]:
        """Zero-time (control-plane) read of (packets, bytes)."""
        raw = self.memory.read_raw(self.addr, self.SIZE)
        packets = int.from_bytes(raw[0:8], "little")
        nbytes = int.from_bytes(raw[8:16], "little")
        return packets, nbytes


class Policer:
    """Single-rate token-bucket policer with shared-memory state.

    State layout (16 bytes): 8-byte token count in millitokens (tokens are
    bytes scaled by 1000 to avoid float state), 8-byte last-update
    timestamp in nanoseconds.
    """

    SIZE = 16

    def __init__(
        self,
        env: Environment,
        memory: SharedMemorySystem,
        rate_bps: float,
        burst_bytes: int,
        region: str = "sram",
    ):
        if rate_bps <= 0:
            raise ValueError(f"policer rate must be positive, got {rate_bps}")
        if burst_bytes <= 0:
            raise ValueError(f"burst must be positive, got {burst_bytes}")
        self.env = env
        self.memory = memory
        self.rate_bytes_per_s = rate_bps / 8.0
        self.burst_bytes = burst_bytes
        self.addr = memory.alloc(self.SIZE, region=region, align=16)
        self._write_state(burst_bytes * 1000, 0)
        self.conformed = 0
        self.exceeded = 0

    def _read_state(self) -> Tuple[int, int]:
        raw = self.memory.read_raw(self.addr, self.SIZE)
        return (
            int.from_bytes(raw[0:8], "little"),
            int.from_bytes(raw[8:16], "little"),
        )

    def _write_state(self, millitokens: int, t_ns: int) -> None:
        self.memory.write_raw(
            self.addr,
            millitokens.to_bytes(8, "little") + t_ns.to_bytes(8, "little"),
        )

    def police(self, nbytes: int):
        """Charge ``nbytes``; returns True if conforming, False if exceeding.

        Generator — the update runs as one RMW-engine operation on the
        policer's address, serialising concurrent updates (§2.3 lists
        policers among the engine-side operations).
        """
        # The engine executes the whole token update atomically, so it
        # is one atomic 16-byte write XTXN; we model the service time
        # with a masked-write-sized op and compute the bucket arithmetic
        # at the engine.
        memory = self.memory
        yield from memory._xtxn(
            memory.rmw.execute(RMWOpKind.READ, self.addr, 16), "write",
            self.addr, 16, pre_delay_s=0.0, actor=None, atomic=True)
        millitokens, last_ns = self._read_state()
        now_ns = int(self.env.now * 1e9)
        elapsed_s = max(0, now_ns - last_ns) / 1e9
        refill = int(elapsed_s * self.rate_bytes_per_s * 1000)
        millitokens = min(self.burst_bytes * 1000, millitokens + refill)
        cost = nbytes * 1000
        if millitokens >= cost:
            self._write_state(millitokens - cost, now_ns)
            self.conformed += 1
            return True
        self._write_state(millitokens, now_ns)
        self.exceeded += 1
        return False
