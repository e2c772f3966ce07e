"""NIC model: TX/RX rings in front of a port, DPDK style.

The paper's end hosts drive 100 Gbps ConnectX-5 NICs through DPDK, i.e.
user space owns descriptor rings and the NIC drains/fills them.  The model
captures what matters for the experiments: a bounded TX ring (packets are
dropped or the sender blocks when it is full), per-packet TX overhead for
the host side, and an RX callback path with no kernel latency.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.link import Port
from repro.net.packet import Packet
from repro.sim import Environment, Store

__all__ = ["NIC"]


class NIC:
    """A host NIC with a bounded TX ring and an RX callback.

    Args:
        env: simulation environment.
        name: NIC name (also names its port).
        mac: station MAC address.
        ip: station IPv4 address.
        tx_ring_size: descriptor ring depth; :meth:`send` blocks the calling
            process when full.
        tx_overhead_s: per-packet host-side cost (DPDK descriptor write +
            doorbell), applied before a frame reaches the wire.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        mac: MACAddress,
        ip: IPv4Address,
        tx_ring_size: int = 1024,
        tx_overhead_s: float = 0.0,
    ):
        self.env = env
        self.name = name
        self.mac = MACAddress(mac)
        self.ip = IPv4Address(ip)
        self.tx_overhead_s = float(tx_overhead_s)
        self.port = Port(env, name=f"{name}.port", rx_handler=self._on_rx)
        self._tx_ring: Store = Store(env, capacity=tx_ring_size)
        self._rx_callback: Optional[Callable[[Packet], None]] = None
        self.dropped_rx = 0
        env.process(self._tx_loop(), name=f"nic:{name}:tx")

    def set_rx_callback(self, callback: Callable[[Packet], None]) -> None:
        """Install the function invoked for every received frame."""
        self._rx_callback = callback

    def send(self, packet: Packet):
        """Queue ``packet`` on the TX ring; yields until accepted.

        Usage (inside a process)::

            yield nic.send(pkt)
        """
        return self._tx_ring.put(packet)

    def try_send(self, packet: Packet):
        """Enqueue ``packet``, blocking only when the ring is full.

        Returns None when the ring accepted the frame synchronously;
        otherwise returns the pending ack event, which the caller must
        ``yield`` (back-pressure, same semantics as :meth:`send`).
        """
        ring = self._tx_ring
        if ring.capacity is None or len(ring) < ring.capacity:
            ring.put_nowait(packet)
            return None
        return ring.put(packet)

    def _tx_loop(self):
        while True:
            packet = yield self._tx_ring.get()
            if self.tx_overhead_s:
                yield self.env.delay(self.tx_overhead_s)
            self.port.send(packet)

    def _on_rx(self, packet: Packet, port: Port) -> None:
        if self._rx_callback is None:
            self.dropped_rx += 1
            return
        self._rx_callback(packet)

    def __repr__(self) -> str:
        return f"<NIC {self.name} mac={self.mac} ip={self.ip}>"
