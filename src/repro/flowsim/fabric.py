"""The leaf/spine fabric both simulation levels run on.

:func:`build_leaf_spine` wires a :class:`FabricShape` up out of the
real :mod:`repro.net` stack.  The fluid runner
(:func:`repro.flowsim.scenario.run_flows`) reads its paths and link
capacities; :func:`run_packet_flows` sends the same ``FlowSpec`` list
over it frame by frame, so the two levels compare record for record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.flowsim.flow import DEFAULT_MTU_PAYLOAD_BYTES, FlowRecord, FlowSpec
from repro.net import IPv4Address, MACAddress, Topology
from repro.net.headers import EthernetHeader
from repro.net.host import Host
from repro.net.link import Port
from repro.net.packet import Packet
from repro.sim import Environment

__all__ = [
    "FabricShape",
    "build_leaf_spine",
    "host_name",
    "run_packet_flows",
]

#: Where leaves and spine read a frame's destination address: bytes
#: 16-19 of the option-less IPv4 header behind the Ethernet header.
_DST_IP = slice(EthernetHeader.LENGTH + 16, EthernetHeader.LENGTH + 20)

#: UDP ports of packet-level flows (arbitrary, fixed).
_SRC_PORT = 40000
_DST_PORT = 9000


def host_name(leaf: int, index: int) -> str:
    return f"h{leaf:02d}-{index:02d}"


@dataclass(frozen=True)
class FabricShape:
    """A single-spine leaf/spine Clos with oversubscribed uplinks.

    Hosts are named ``h<leaf>-<index>`` and addressed
    ``10.<leaf>.0.<index + 1>``; :func:`build_leaf_spine` builds it.
    """

    leaves: int = 4
    hosts_per_leaf: int = 16
    host_bandwidth_bps: float = 100e9
    #: Leaf->spine uplink speed; at the default 800G a leaf of sixteen
    #: 100G hosts is 2:1 oversubscribed, so uplinks genuinely contend
    #: (uplink utilisation ~0.76 at the default load) while the system
    #: stays stable — offered load must remain below every bottleneck
    #: or the active-flow set grows without bound.
    uplink_bandwidth_bps: float = 800e9
    propagation_s: float = 1e-6

    def __post_init__(self) -> None:
        # The bounds of what host_ip can address.
        for name, most in (("leaves", 256), ("hosts_per_leaf", 255)):
            value = getattr(self, name)
            if not 1 <= value <= most:
                raise ValueError(
                    f"fabric {name} must be in [1, {most}] to address "
                    f"hosts as 10.<leaf>.0.<index + 1>: {value}")
        # Chained bounds: NaN fails them, where it passes `<= 0`.
        for name in ("host_bandwidth_bps", "uplink_bandwidth_bps"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"fabric {name} must be positive and finite: {value}")
        if not 0 <= self.propagation_s < math.inf:
            raise ValueError(f"fabric propagation_s must be non-negative "
                             f"and finite: {self.propagation_s}")

    @property
    def num_hosts(self) -> int:
        return self.leaves * self.hosts_per_leaf

    @property
    def aggregate_access_bps(self) -> float:
        return self.num_hosts * self.host_bandwidth_bps

    def arrival_rate(self, load: float, mean_flow_bytes: float) -> float:
        """Poisson flow starts per second that offer ``load`` of the
        aggregate host access bandwidth at this mean flow size."""
        return self.aggregate_access_bps * load / (mean_flow_bytes * 8.0)

    def host_names(self) -> List[str]:
        return [host_name(leaf, index)
                for leaf in range(self.leaves)
                for index in range(self.hosts_per_leaf)]

    def host_address(self, host_index: int) -> Tuple[int, int]:
        """(leaf, index-within-leaf) of a flat host index."""
        return divmod(host_index, self.hosts_per_leaf)

    def host_ip(self, leaf: int, index: int) -> IPv4Address:
        return IPv4Address(f"10.{leaf}.0.{index + 1}")


def _forwarder(table: Dict[bytes, Port]):
    """A switch port's rx handler: the frame, fully received, leaves
    by the port ``table`` maps its destination address to."""

    def forward(packet: Packet, _port: Port) -> None:
        table[packet.data[_DST_IP]].send(packet)

    return forward


def build_leaf_spine(env: Environment,
                     fabric: FabricShape) -> Topology:
    """The fabric's hosts, leaves, and spine, wired up in ``env``.

    Each leaf and the spine is registered as a device whose value is its
    forwarding table (destination address -> egress port): a leaf sends
    its own hosts' frames down and every other frame up; the spine
    sends each frame down to its destination's leaf.
    """
    topology = Topology(env)
    spine: Dict[bytes, Port] = {}
    uplinks: List[Tuple[Dict[bytes, Port], Port]] = []
    spine_forward = _forwarder(spine)
    for leaf in range(fabric.leaves):
        table: Dict[bytes, Port] = {}
        forward = _forwarder(table)
        for index in range(fabric.hosts_per_leaf):
            host = Host(
                env,
                host_name(leaf, index),
                MACAddress(0x0200_0000 + leaf * 256 + index),
                fabric.host_ip(leaf, index),
            )
            topology.add_host(host)
            down = Port(env, f"leaf{leaf}:down{index}", rx_handler=forward)
            topology.register_port(down, f"leaf{leaf}")
            topology.connect(
                host.nic.port, down,
                bandwidth_bps=fabric.host_bandwidth_bps,
                propagation_delay_s=fabric.propagation_s,
            )
            table[host.ip.to_bytes()] = down
        up = Port(env, f"leaf{leaf}:up", rx_handler=forward)
        topology.register_port(up, f"leaf{leaf}")
        spine_port = Port(env, f"spine:leaf{leaf}", rx_handler=spine_forward)
        topology.register_port(spine_port, "spine")
        topology.add_device(f"leaf{leaf}", table)
        topology.connect(
            up, spine_port,
            bandwidth_bps=fabric.uplink_bandwidth_bps,
            propagation_delay_s=fabric.propagation_s,
        )
        spine.update(dict.fromkeys(table, spine_port))
        uplinks.append((table, up))
    for table, up in uplinks:
        for address in spine:
            table.setdefault(address, up)
    topology.add_device("spine", spine)
    return topology


def run_packet_flows(fabric: FabricShape, flows: Iterable[FlowSpec],
                     tx_overhead_s: Optional[Mapping[str, float]] = None,
                     ) -> List[FlowRecord]:
    """Run ``flows`` frame by frame over the fabric; one record per
    flow, in flow order.

    Each flow sends its payload as back-to-back MTU UDP frames from its
    ``start_s``; its FCT runs until the destination host receives the
    last payload byte.  ``tx_overhead_s`` gives straggling hosts, by
    name, a per-packet transmit cost.
    """
    env = Environment()
    hosts = build_leaf_spine(env, fabric).hosts
    for name, overhead in (tx_overhead_s or {}).items():
        # Chained bounds: NaN fails them, where it passes `< 0`.
        if not 0 <= overhead < math.inf:
            raise ValueError(f"host {name!r}: tx_overhead_s must be "
                             f"non-negative and finite: {overhead}")
        hosts[name].nic.tx_overhead_s = float(overhead)
    specs = list(flows)
    for spec in specs:
        for name in (spec.src, spec.dst):
            if name not in hosts:
                raise ValueError(f"flow {spec.flow_id}: unknown host {name!r}")
    records: Dict[int, FlowRecord] = {}
    # The frame carrying each flow's last payload bytes -> flow index.
    # Links are FIFO and paths fixed, so that frame arrives last.
    last_frames: Dict[Packet, int] = {}

    def receive(packet: Packet) -> None:
        index = last_frames.pop(packet, None)
        if index is not None:
            spec = specs[index]
            now = env.now
            fct = now - spec.start_s
            records[index] = FlowRecord(
                spec=spec, finish_s=now, fct_s=fct,
                goodput_bps=spec.size_bytes * 8.0 / fct,
            )

    def send(index: int):
        spec = specs[index]
        src, dst = hosts[spec.src], hosts[spec.dst]
        remaining = math.ceil(spec.size_bytes)
        while remaining > 0:
            chunk = min(DEFAULT_MTU_PAYLOAD_BYTES, remaining)
            remaining -= chunk
            frame = Packet.udp(src.mac, dst.mac, src.ip, dst.ip,
                               _SRC_PORT, _DST_PORT, bytes(chunk))
            if not remaining:
                last_frames[frame] = index
            pending = src.nic.try_send(frame)
            if pending is not None:
                yield pending

    for host in hosts.values():
        host.nic.set_rx_callback(receive)
    for index, spec in enumerate(specs):
        env.call_at(spec.start_s, env.process, send(index))
    env.run()
    return [records[index] for index in range(len(specs))]
