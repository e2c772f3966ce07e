"""Topology builder: wires hosts and device ports together.

Keeps an inventory of named nodes and the links between their ports, so an
experiment can be described declaratively::

    topo = Topology(env)
    topo.add_host(worker)
    topo.connect(worker.nic.port, router_port, bandwidth_bps=100e9)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.host import Host
from repro.net.link import Link, Port
from repro.sim import Environment

__all__ = ["Hop", "Topology"]

#: One step of a flow path: the link plus the port transmitting onto it.
#: The transmit port identifies the *direction*, which is what the
#: flow-level solver allocates capacity over (each direction of a
#: full-duplex link is an independent resource).
Hop = Tuple[Link, Port]

#: Default link speed of the paper's testbed.
DEFAULT_BANDWIDTH_BPS = 100e9
#: A couple of metres of fibre plus PHY latency.
DEFAULT_PROPAGATION_S = 1e-6


class Topology:
    """An inventory of hosts, devices, and links for one experiment."""

    def __init__(self, env: Environment):
        self.env = env
        self.hosts: Dict[str, Host] = {}
        self.devices: Dict[str, object] = {}
        self.links: List[Link] = []
        #: port name -> owning node name, for flow-path resolution.
        self._port_owner: Dict[str, str] = {}
        #: Memoised node adjacency for :meth:`find_path`; rebuilt after
        #: any link or port-ownership change.
        self._adjacency: Optional[Dict[str, List[Tuple[str, Hop]]]] = None
        #: source -> its breadth-first tree (node -> (parent, hop)),
        #: built on first use and dropped with the adjacency.
        self._trees: Dict[str, Dict[str, Tuple[str, Hop]]] = {}

    def add_host(self, host: Host) -> Host:
        """Register a host by its name (and its NIC port for routing)."""
        if host.name in self.hosts:
            raise ValueError(f"duplicate host name: {host.name!r}")
        self.hosts[host.name] = host
        self._port_owner[host.nic.port.name] = host.name
        self._adjacency = None
        return host

    def add_device(self, name: str, device: object) -> object:
        """Register a switch/router device by name."""
        if name in self.devices:
            raise ValueError(f"duplicate device name: {name!r}")
        self.devices[name] = device
        return device

    def register_port(self, port: Port, node_name: str) -> Port:
        """Declare that ``port`` belongs to node ``node_name``.

        Host NIC ports are registered automatically by :meth:`add_host`;
        device ports must be registered explicitly before
        :meth:`find_path` can route through the device.
        """
        self._port_owner[port.name] = node_name
        self._adjacency = None
        return port

    def find_path(self, src: str, dst: str) -> List[Hop]:
        """Shortest path from node ``src`` to node ``dst`` as directed hops.

        Breadth-first search over the link inventory, deterministic by
        construction: neighbours are explored in link-insertion order, so
        two identically built topologies always return the same path.
        Each hop is ``(link, tx_port)`` — the transmit port names the
        link *direction* the flow occupies.  Raises ``ValueError`` when
        either node is unknown or no path exists.

        The first search from ``src`` builds its whole breadth-first
        tree; later searches from it walk that tree.  A search that
        stops at ``dst`` would have discovered every node up to ``dst``
        in the same order, so each path is the same hop for hop.
        """
        if src not in self.hosts and src not in self.devices:
            raise ValueError(f"unknown node: {src!r}")
        if dst not in self.hosts and dst not in self.devices:
            raise ValueError(f"unknown node: {dst!r}")
        if src == dst:
            return []
        # node -> list of (neighbour node, hop), in link-insertion
        # order; memoised across calls since a topology is static once
        # built.  Any mutation clears it, and a rebuild drops the trees.
        adjacency = self._adjacency
        if adjacency is None:
            adjacency = {}
            for link in self.links:
                a, b = link.ports
                owner_a = self._port_owner.get(a.name)
                owner_b = self._port_owner.get(b.name)
                if owner_a is None or owner_b is None:
                    continue
                adjacency.setdefault(owner_a, []).append((owner_b, (link, a)))
                adjacency.setdefault(owner_b, []).append((owner_a, (link, b)))
            self._adjacency = adjacency
            self._trees = {}
        tree = self._trees.get(src)
        if tree is None:
            tree = self._trees[src] = _search_tree(adjacency, src)
        if dst not in tree:
            raise ValueError(f"no path from {src!r} to {dst!r}")
        path: List[Hop] = []
        cursor = dst
        while cursor != src:
            cursor, step = tree[cursor]
            path.append(step)
        path.reverse()
        return path

    def connect(
        self,
        a: Port,
        b: Port,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        propagation_delay_s: float = DEFAULT_PROPAGATION_S,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ) -> Link:
        """Create a full-duplex link between two ports."""
        link = Link(
            self.env,
            a,
            b,
            bandwidth_bps=bandwidth_bps,
            propagation_delay_s=propagation_delay_s,
            loss_rate=loss_rate,
            loss_seed=loss_seed,
        )
        self.links.append(link)
        self._adjacency = None
        return link

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self.hosts[name]

    def device(self, name: str) -> object:
        """Look up a device by name."""
        return self.devices[name]

    def find_port(self, name: str) -> Optional[Port]:
        """Find any connected port by its name, or None."""
        for link in self.links:
            for port in link.ports:
                if port.name == name:
                    return port
        return None


def _search_tree(adjacency: Dict[str, List[Tuple[str, Hop]]],
                 src: str) -> Dict[str, Tuple[str, Hop]]:
    """Every node reachable from ``src`` -> (parent node, hop), by a
    breadth-first search that visits neighbours in adjacency order."""
    frontier = [src]
    came_from: Dict[str, Tuple[str, Hop]] = {src: (src, None)}
    while frontier:
        next_frontier: List[str] = []
        for node in frontier:
            for neighbour, hop in adjacency.get(node, ()):
                if neighbour not in came_from:
                    came_from[neighbour] = (node, hop)
                    next_frontier.append(neighbour)
        frontier = next_frontier
    return came_from
