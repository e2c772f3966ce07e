"""A generic end host: one NIC plus an inbox of received packets.

Workload models (SwitchML workers, Trio-ML workers, traffic generators)
subclass or wrap :class:`Host`.  The base class builds UDP frames from
payloads and queues received frames in its inbox.
"""

from __future__ import annotations

from repro.net.addressing import IPv4Address, MACAddress
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
    ):
        self.env = env
        self.name = name
        self.nic = NIC(env, name=name, mac=mac, ip=ip)
        self.inbox: Store = Store(env)
        self.nic.set_rx_callback(self._receive)

    @property
    def mac(self) -> MACAddress:
        return self.nic.mac

    @property
    def ip(self) -> IPv4Address:
        return self.nic.ip

    def _receive(self, packet: Packet) -> None:
        self.inbox.put(packet)

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

    def recv(self):
        """Event yielding the next received packet."""
        return self.inbox.get()

    def __repr__(self) -> str:
        return f"<Host {self.name} ip={self.ip}>"
