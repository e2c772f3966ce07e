"""A multi-PFE Trio router (the MX480 of the testbed, §6.1).

The router owns the chassis-level state: its PFEs, the interconnection
fabric, the global unicast route table (destination IP → (PFE, port)),
and the chassis multicast membership.  Packets arriving at one PFE and
destined to a port on another PFE cross the fabric; hierarchical
aggregation (§4) uses :meth:`send_to_pfe` to feed first-level PFE results
to the top-level aggregator PFE directly, without IP forwarding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.addressing import IPv4Address
from repro.net.headers import destination_ip
from repro.net.multicast import MulticastGroupTable
from repro.net.packet import Packet
from repro.sim import Environment
from repro.trio.chipset import GENERATIONS, TrioChipsetConfig
from repro.trio.fabric import Fabric
from repro.trio.pfe import PFE

__all__ = ["TrioRouter"]


class TrioRouter:
    """A chassis of PFEs joined by an any-to-any fabric."""

    def __init__(
        self,
        env: Environment,
        name: str = "mx480",
        num_pfes: int = 6,
        ports_per_pfe: int = 4,
        config: Optional[TrioChipsetConfig] = None,
        fabric_bandwidth_bps: float = 400e9,
        fabric_latency_s: float = 500e-9,
    ):
        self.env = env
        self.name = name
        self.config = config or GENERATIONS[5]
        self.fabric = Fabric(
            env, bandwidth_bps=fabric_bandwidth_bps, latency_s=fabric_latency_s
        )
        self.pfes: Dict[str, PFE] = {}
        for i in range(num_pfes):
            pfe_name = f"pfe{i + 1}"
            pfe = PFE(
                env,
                name=pfe_name,
                config=self.config,
                num_ports=ports_per_pfe,
                router=self,
            )
            self.pfes[pfe_name] = pfe
            self.fabric.attach(pfe_name, self._fabric_sink(pfe))
        #: Global unicast routes: destination IP -> (pfe_name, port_name).
        self.route_table: Dict[IPv4Address, Tuple[str, str]] = {}
        #: Chassis multicast: group -> port names "pfeX.pY".
        self.multicast = MulticastGroupTable()
        self.unrouted_drops = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def pfe(self, name: str) -> PFE:
        return self.pfes[name]

    def add_route(self, dst: IPv4Address, pfe_name: str, port_name: str) -> None:
        """Install a host route on the chassis."""
        if pfe_name not in self.pfes:
            raise ValueError(f"unknown PFE {pfe_name!r}")
        self.route_table[IPv4Address(dst)] = (pfe_name, port_name)

    def join_multicast(self, group: IPv4Address, pfe_name: str,
                       port_name: str) -> None:
        """Add a port to a multicast group (IGMP join / static config)."""
        if pfe_name not in self.pfes:
            raise ValueError(f"unknown PFE {pfe_name!r}")
        self.multicast.join(group, f"{pfe_name}:{port_name}")

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _fabric_sink(self, pfe: PFE):
        def sink(packet: Packet) -> None:
            purpose = packet.meta.pop("fabric_purpose", "egress")
            if purpose == "process":
                pfe.accept(packet, ingress_port=None)
            else:
                egress_port = packet.meta.pop("fabric_egress_port")
                pfe._ports_by_name[egress_port].send(packet)

        return sink

    def send_to_pfe(self, packet: Packet, src_pfe: str, dst_pfe: str) -> None:
        """Hand a packet to another PFE for *processing* (hierarchical
        aggregation path: first-level PFEs feed the top-level PFE
        directly, §4)."""
        packet.meta["fabric_purpose"] = "process"
        self.fabric.send(src_pfe, dst_pfe, packet)

    def deliver(self, packet: Packet, from_pfe: PFE,
                egress_hint: Optional[str] = None) -> None:
        """Route a processed packet to its egress port(s)."""
        if egress_hint is not None:
            pfe_name, __, port_name = egress_hint.partition(":")
            self._egress(packet, from_pfe, pfe_name, port_name or egress_hint)
            return
        dst = destination_ip(packet)
        if dst is not None and dst.is_multicast:
            members = self.multicast.members(dst)
            if not members:
                self.unrouted_drops += 1
                return
            for member in members:
                pfe_name, __, port_name = member.partition(":")
                self._egress(packet.copy(), from_pfe, pfe_name, port_name)
            return
        if dst is not None and dst in self.route_table:
            pfe_name, port_name = self.route_table[dst]
            self._egress(packet, from_pfe, pfe_name, port_name)
            return
        self.unrouted_drops += 1

    def _egress(self, packet: Packet, from_pfe: PFE, pfe_name: str,
                port_name: str) -> None:
        target = self.pfes.get(pfe_name)
        if target is None:
            self.unrouted_drops += 1
            return
        if target is from_pfe:
            target._ports_by_name[port_name].send(packet)
            return
        packet.meta["fabric_purpose"] = "egress"
        packet.meta["fabric_egress_port"] = port_name
        self.fabric.send(from_pfe.name, pfe_name, packet)

    def __repr__(self) -> str:
        return f"<TrioRouter {self.name} pfes={list(self.pfes)}>"
