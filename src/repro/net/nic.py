"""NIC model: TX/RX rings in front of a port, DPDK style.

The paper's end hosts drive 100 Gbps ConnectX-5 NICs through DPDK, i.e.
user space owns descriptor rings and the NIC drains/fills them.  The model
captures what matters for the experiments: a bounded TX ring (the sender
waits while it is full; no frame is dropped), per-packet TX overhead for
the host side, and an RX callback path with no kernel latency.  The TX
side is a FIFO server settled in closed form, like a link direction.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Optional

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.link import Port
from repro.net.packet import Packet
from repro.sim import Environment, Event

__all__ = ["NIC"]


class NIC:
    """A host NIC with a bounded TX ring and an RX callback.

    Args:
        env: simulation environment.
        name: NIC name (also names its port).
        mac: station MAC address.
        ip: station IPv4 address.
        tx_ring_size: descriptor ring depth: how many sent frames may wait
            to start; :meth:`send` holds the calling process while the
            ring is full.
        tx_overhead_s: per-packet host-side cost (DPDK descriptor write +
            doorbell), applied before a frame reaches the wire.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        mac: MACAddress,
        ip: IPv4Address,
        tx_ring_size: int = 4096,
        tx_overhead_s: float = 0.0,
    ):
        if not isinstance(tx_ring_size, int) or tx_ring_size < 1:
            raise ValueError(
                f"tx_ring_size must be an int >= 1, got {tx_ring_size!r}")
        # Chained bounds: NaN fails them, where it passes `< 0`.
        if not 0 <= tx_overhead_s < math.inf:
            raise ValueError(f"tx_overhead_s must be non-negative and "
                             f"finite, got {tx_overhead_s}")
        self.env = env
        self.name = name
        self.mac = MACAddress(mac)
        self.ip = IPv4Address(ip)
        self.tx_overhead_s = float(tx_overhead_s)
        self.port = Port(env, name=f"{name}.port", rx_handler=self._on_rx)
        #: When the frames already sent finish their ``tx_overhead_s``.
        self._free_at = env.now
        #: Start instants of the last ``tx_ring_size`` frames sent.
        self._starts: Deque[float] = deque(maxlen=tx_ring_size)
        self._rx_callback: Optional[Callable[[Packet], None]] = None
        self.dropped_rx = 0

    def set_rx_callback(self, callback: Callable[[Packet], None]) -> None:
        """Install the function invoked for every received frame."""
        self._rx_callback = callback

    def send(self, packet: Packet) -> Event:
        """Queue ``packet`` on the TX ring; yields until accepted.

        Usage (inside a process)::

            yield nic.send(pkt)
        """
        pending = self.try_send(packet)
        return Event(self.env).succeed() if pending is None else pending

    def try_send(self, packet: Packet) -> Optional[Event]:
        """Queue ``packet``, blocking only when the ring is full.

        A frame is accepted now, or, if the frame ``tx_ring_size`` places
        ahead has not started yet, when that one starts.  It starts once
        accepted and once the frame ahead has left, and leaves
        ``tx_overhead_s`` later.  Returns None when it is accepted now,
        else the event of its acceptance, which the caller must ``yield``
        at once (back-pressure, as :meth:`send`).
        """
        env = self.env
        now = env.now
        starts = self._starts
        accepted = now
        if len(starts) == starts.maxlen and starts[0] > now:
            accepted = starts[0]
        start = accepted if accepted > self._free_at else self._free_at
        starts.append(start)
        self._free_at = leave = start + self.tx_overhead_s
        if leave == now:
            self.port.send(packet)
        else:
            env.call_at(leave, self.port.send, packet)
        return None if accepted == now else env.delay_until(accepted)

    def _on_rx(self, packet: Packet, port: Port) -> None:
        if self._rx_callback is None:
            self.dropped_rx += 1
            return
        self._rx_callback(packet)

    def __repr__(self) -> str:
        return f"<NIC {self.name} mac={self.mac} ip={self.ip}>"
