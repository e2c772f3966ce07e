"""A multi-PFE Trio router (the MX480 of the testbed, §6.1).

The router owns the chassis-level state: its PFEs, the interconnection
fabric, the global unicast route table (destination IP → (PFE, port)),
and the chassis multicast membership.  The fabric is any-to-any (§2.1):
each PFE pair is one full-duplex :class:`~repro.net.link.Link` between
two fabric ports, so each direction serialises its frames in order and
adds a fixed transit latency.  Packets arriving at one PFE and destined
to a port on another PFE cross the fabric; hierarchical aggregation (§4)
uses :meth:`send_to_pfe` to feed first-level PFE results to the
top-level aggregator PFE directly, without IP forwarding.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Optional, Tuple

from repro.net.addressing import IPv4Address
from repro.net.headers import destination_ip
from repro.net.link import Link, Port
from repro.net.multicast import MulticastGroupTable
from repro.net.packet import Packet
from repro.sim import Environment
from repro.trio.chipset import GENERATIONS, TrioChipsetConfig
from repro.trio.pfe import PFE

__all__ = ["TrioRouter"]

#: Serialisation rate of one fabric direction between two PFEs.
FABRIC_BANDWIDTH_BPS = 400e9
#: Transit latency of the fabric, after serialisation.
FABRIC_LATENCY_S = 500e-9


class TrioRouter:
    """A chassis of PFEs joined by an any-to-any fabric."""

    def __init__(
        self,
        env: Environment,
        name: str = "mx480",
        num_pfes: int = 6,
        ports_per_pfe: int = 4,
        config: Optional[TrioChipsetConfig] = None,
    ):
        self.env = env
        self.name = name
        self.config = config or GENERATIONS[5]
        self.pfes: Dict[str, PFE] = {}
        for i in range(num_pfes):
            pfe_name = f"pfe{i + 1}"
            self.pfes[pfe_name] = PFE(
                env,
                name=pfe_name,
                config=self.config,
                num_ports=ports_per_pfe,
                router=self,
            )
        #: Fabric ports keyed (owner, peer): a frame sent on
        #: ``fabric[(src, dst)]`` reaches PFE ``dst``.
        self.fabric: Dict[Tuple[str, str], Port] = {}
        sinks = {name: self._fabric_sink(pfe) for name, pfe in self.pfes.items()}
        for a, b in combinations(self.pfes, 2):
            port_a = Port(env, f"{a}.fabric.{b}", rx_handler=sinks[a])
            port_b = Port(env, f"{b}.fabric.{a}", rx_handler=sinks[b])
            Link(env, port_a, port_b, bandwidth_bps=FABRIC_BANDWIDTH_BPS,
                 propagation_delay_s=FABRIC_LATENCY_S)
            self.fabric[(a, b)] = port_a
            self.fabric[(b, a)] = port_b
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
        self._check_port(pfe_name, port_name)
        self.route_table[IPv4Address(dst)] = (pfe_name, port_name)

    def join_multicast(self, group: IPv4Address, pfe_name: str,
                       port_name: str) -> None:
        """Add a port to a multicast group (IGMP join / static config)."""
        self._check_port(pfe_name, port_name)
        self.multicast.join(group, f"{pfe_name}:{port_name}")

    def _check_port(self, pfe_name: str, port_name: str) -> None:
        pfe = self.pfes.get(pfe_name)
        if pfe is None:
            raise ValueError(f"unknown PFE {pfe_name!r}")
        if port_name not in pfe._ports_by_name:
            raise ValueError(f"{port_name!r} is not a port of {pfe_name}")

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _fabric_sink(self, pfe: PFE):
        def sink(packet: Packet, port: Port) -> None:
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
        self.fabric[(src_pfe, dst_pfe)].send(packet)

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
        self.fabric[(from_pfe.name, pfe_name)].send(packet)

    def __repr__(self) -> str:
        return f"<TrioRouter {self.name} pfes={list(self.pfes)}>"
