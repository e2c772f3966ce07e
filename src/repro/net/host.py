"""A generic end host: one NIC plus an inbox of received packets.

Workload models (SwitchML workers, Trio-ML workers, traffic generators)
subclass or wrap :class:`Host`.  The base class provides UDP send/receive
convenience so applications deal in payloads, not frames.
"""

from __future__ import annotations

from typing import Optional

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.headers import HeaderError
from repro.net.nic import NIC
from repro.net.packet import Packet
from repro.sim import Environment, Store

__all__ = ["Host"]


class Host:
    """An end host with a single NIC and a received-packet inbox."""

    def __init__(
        self,
        env: Environment,
        name: str,
        mac: MACAddress,
        ip: IPv4Address,
        tx_ring_size: int = 4096,
        tx_overhead_s: float = 0.0,
    ):
        self.env = env
        self.name = name
        self.nic = NIC(
            env,
            name=name,
            mac=mac,
            ip=ip,
            tx_ring_size=tx_ring_size,
            tx_overhead_s=tx_overhead_s,
        )
        self.inbox: Store = Store(env)
        self.nic.set_rx_callback(self._receive)

    @property
    def mac(self) -> MACAddress:
        return self.nic.mac

    @property
    def ip(self) -> IPv4Address:
        return self.nic.ip

    def _receive(self, packet: Packet) -> None:
        self.inbox.put_nowait(packet)

    def send_udp(
        self,
        dst_mac: MACAddress,
        dst_ip: IPv4Address,
        src_port: int,
        dst_port: int,
        payload: bytes,
    ):
        """Build and queue a UDP frame; yields until the NIC accepts it."""
        packet = Packet.udp(
            src_mac=self.mac,
            dst_mac=dst_mac,
            src_ip=self.ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
        )
        return self.nic.send(packet)

    def try_send_udp(
        self,
        dst_mac: MACAddress,
        dst_ip: IPv4Address,
        src_port: int,
        dst_port: int,
        payload: bytes,
    ):
        """Like :meth:`send_udp`, but grants synchronously when possible.

        Returns None when the NIC ring accepted the frame immediately;
        otherwise returns the pending ack event to ``yield`` on.
        """
        packet = Packet.udp(
            src_mac=self.mac,
            dst_mac=dst_mac,
            src_ip=self.ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            payload=payload,
        )
        return self.nic.try_send(packet)

    def recv(self):
        """Event yielding the next received packet."""
        return self.inbox.get()

    def recv_udp_payload(self, packet: Optional[Packet] = None):
        """Process helper: receive a frame and return its UDP payload.

        Non-UDP frames are skipped.  Usage::

            payload = yield from host.recv_udp_payload()
        """
        while True:
            frame = packet if packet is not None else (yield self.recv())
            packet = None
            try:
                __, __, __, payload = frame.parse_udp()
            except HeaderError:
                continue
            return payload

    def __repr__(self) -> str:
        return f"<Host {self.name} ip={self.ip}>"
