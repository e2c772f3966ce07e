"""Tests for ``Topology.find_path``: one breadth-first tree per source.

Each path must be the one a search that stops at its destination finds,
hop for hop, and any change to the link inventory must reach the next
answer.
"""

import pytest

from repro.flowsim import FabricShape, build_leaf_spine
from repro.net import Host, IPv4Address, MACAddress, Port, Topology
from repro.sim import Environment


def _stop_at_destination(topology, owner, src, dst):
    """Breadth-first search from ``src`` that returns on reaching
    ``dst``, exploring neighbours in link-insertion order."""
    if src == dst:
        return []
    adjacency = {}
    for link in topology.links:
        a, b = link.ports
        if a.name in owner and b.name in owner:
            adjacency.setdefault(owner[a.name], []).append(
                (owner[b.name], (link, a)))
            adjacency.setdefault(owner[b.name], []).append(
                (owner[a.name], (link, b)))
    frontier = [src]
    came_from = {src: None}
    while frontier:
        next_frontier = []
        for node in frontier:
            for neighbour, hop in adjacency.get(node, ()):
                if neighbour in came_from:
                    continue
                came_from[neighbour] = (node, hop)
                if neighbour == dst:
                    path = []
                    cursor = dst
                    while cursor != src:
                        cursor, step = came_from[cursor]
                        path.append(step)
                    return path[::-1]
                next_frontier.append(neighbour)
        frontier = next_frontier
    raise AssertionError(f"no path from {src} to {dst}")


def _ring(env, size=4):
    """``size`` devices ``r0..`` in a ring, linked in index order, so
    ``r0 -> r2`` ties between ``r1`` and ``r3``."""
    topology = Topology(env)
    owner = {}
    for index in range(size):
        topology.add_device(f"r{index}", object())
    for index in range(size):
        nxt = (index + 1) % size
        a = Port(env, f"r{index}:to{nxt}")
        b = Port(env, f"r{nxt}:to{index}")
        for port, node in ((a, f"r{index}"), (b, f"r{nxt}")):
            topology.register_port(port, node)
            owner[port.name] = node
        topology.connect(a, b)
    return topology, owner


def _assert_every_pair_matches(topology, owner, nodes):
    for src in nodes:
        for dst in nodes:
            assert topology.find_path(src, dst) == _stop_at_destination(
                topology, owner, src, dst), (src, dst)


class TestFindPath:
    def test_leaf_spine_paths_match_stop_at_destination(self):
        topology = build_leaf_spine(
            Environment(), FabricShape(leaves=3, hosts_per_leaf=4))
        owner = {host.nic.port.name: name
                 for name, host in topology.hosts.items()}
        for link in topology.links:
            for port in link.ports:
                owner.setdefault(port.name, port.name.split(":")[0])
        nodes = list(topology.hosts) + list(topology.devices)
        assert len(nodes) == 3 * 4 + 3 + 1
        _assert_every_pair_matches(topology, owner, nodes)

    def test_ring_tie_matches_stop_at_destination(self):
        topology, owner = _ring(Environment())
        _assert_every_pair_matches(topology, owner,
                                   [f"r{index}" for index in range(4)])
        # Two shortest paths tie; the first link inserted wins.
        path = topology.find_path("r0", "r2")
        assert [port.name for __, port in path] == ["r0:to1", "r1:to2"]

    def test_connect_after_search_changes_the_answer(self):
        env = Environment()
        topology, __ = _ring(env)
        assert len(topology.find_path("r0", "r2")) == 2
        a, b = Port(env, "r0:to2"), Port(env, "r2:to0")
        topology.register_port(a, "r0")
        topology.register_port(b, "r2")
        # The search above built r0's tree; a direct link must replace it.
        topology.find_path("r0", "r1")
        link = topology.connect(a, b)
        assert topology.find_path("r0", "r2") == [(link, a)]

    def test_register_port_after_search_changes_the_answer(self):
        env = Environment()
        topology, __ = _ring(env)
        topology.add_device("r4", object())
        near, far = Port(env, "r3:to4"), Port(env, "r4:to3")
        topology.register_port(near, "r3")
        topology.connect(near, far)
        with pytest.raises(ValueError, match="no path"):
            topology.find_path("r0", "r4")
        topology.register_port(far, "r4")
        assert [port.name for __, port in topology.find_path("r0", "r4")] \
            == ["r0:to3", "r3:to4"]

    def test_add_host_after_search_changes_the_answer(self):
        env = Environment()
        topology = build_leaf_spine(
            env, FabricShape(leaves=1, hosts_per_leaf=2))
        spare = Host(env, "spare", MACAddress(0x0299), IPv4Address(
            "10.9.9.9"))
        down = Port(env, "leaf0:spare")
        topology.register_port(down, "leaf0")
        topology.connect(spare.nic.port, down)
        assert len(topology.find_path("h00-00", "leaf0")) == 1
        topology.add_host(spare)
        assert [port.name for __, port in
                topology.find_path("h00-00", "spare")] \
            == ["h00-00.port", "leaf0:spare"]

    def test_unknown_and_unreachable_nodes_raise(self):
        env = Environment()
        topology, __ = _ring(env)
        topology.add_device("island", object())
        with pytest.raises(ValueError, match="unknown node"):
            topology.find_path("nope", "r0")
        with pytest.raises(ValueError, match="unknown node"):
            topology.find_path("r0", "nope")
        with pytest.raises(ValueError, match="no path"):
            topology.find_path("r0", "island")
        with pytest.raises(ValueError, match="no path"):
            topology.find_path("island", "r0")
