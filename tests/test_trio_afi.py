"""Tests for the Advanced Forwarding Interface graph and sandboxes."""

import pytest

from repro.net import Host, IPv4Address, MACAddress, Topology
from repro.sim import Environment
from repro.trio import PFE
from repro.trio.afi import (
    AFIApplication,
    AFIError,
    DROP,
    FORWARD,
    ForwardingGraph,
    ForwardingNode,
    Sandbox,
)


def counting_node(name, log, result=None, next_node=None):
    def op(tctx, pctx):
        log.append(name)
        yield from tctx.execute(1)
        return result

    return ForwardingNode(name=name, op=op, next_node=next_node)


class TestForwardingGraph:
    def run_graph(self, graph):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=1)
        from repro.net import Packet
        from repro.trio.ppe import PacketContext, ThreadContext

        packet = Packet(bytes(64), flow_key="f")
        pctx = PacketContext(packet=packet, head=bytearray(packet.data),
                             tail=b"")
        tctx = ThreadContext(env=env, ppe=pfe.ppes[0], config=pfe.config,
                             memory=pfe.memory, hash_table=pfe.hash_table,
                             packet_ctx=pctx)

        def proc():
            result = yield from graph.run(tctx, pctx)
            return result

        p = env.process(proc())
        return env.run(until=p)

    def test_linear_walk(self):
        log = []
        graph = ForwardingGraph()
        graph.add_node(counting_node("a", log, next_node="b"), entry=True)
        graph.add_node(counting_node("b", log, next_node=FORWARD))
        assert self.run_graph(graph) == FORWARD
        assert log == ["a", "b"]

    def test_dynamic_branching(self):
        log = []
        graph = ForwardingGraph()
        graph.add_node(counting_node("a", log, result="c"), entry=True)
        graph.add_node(counting_node("b", log, next_node=FORWARD))
        graph.add_node(counting_node("c", log, next_node=DROP))
        assert self.run_graph(graph) == DROP
        assert log == ["a", "c"]

    def test_reorder_via_connect(self):
        log = []
        graph = ForwardingGraph()
        graph.add_node(counting_node("a", log, next_node="b"), entry=True)
        graph.add_node(counting_node("b", log, next_node=FORWARD))
        graph.add_node(counting_node("x", log, next_node="b"))
        graph.connect("a", "x")  # a -> x -> b
        self.run_graph(graph)
        assert log == ["a", "x", "b"]

    def test_cycle_detected(self):
        log = []
        graph = ForwardingGraph()
        graph.add_node(counting_node("a", log, next_node="b"), entry=True)
        graph.add_node(counting_node("b", log, next_node="a"))
        with pytest.raises(AFIError, match="cycle"):
            self.run_graph(graph)

    def test_validate_catches_dangling_edges(self):
        graph = ForwardingGraph()
        graph.add_node(ForwardingNode("a", next_node="ghost"), entry=True)
        with pytest.raises(AFIError, match="unknown node"):
            graph.validate()

    def test_duplicate_node_rejected(self):
        graph = ForwardingGraph()
        graph.add_node(ForwardingNode("a", next_node=FORWARD))
        with pytest.raises(AFIError):
            graph.add_node(ForwardingNode("a"))

    def test_reserved_names_rejected(self):
        graph = ForwardingGraph()
        with pytest.raises(AFIError):
            graph.add_node(ForwardingNode(FORWARD))

    def test_remove_node(self):
        graph = ForwardingGraph()
        graph.add_node(ForwardingNode("a", next_node=FORWARD), entry=True)
        graph.remove_node("a")
        assert graph.entry is None
        with pytest.raises(AFIError):
            graph.remove_node("a")

    def test_node_without_successor_faults(self):
        graph = ForwardingGraph()
        graph.add_node(ForwardingNode("a"), entry=True)
        with pytest.raises(AFIError, match="no successor"):
            self.run_graph(graph)

    def test_packet_counters(self):
        log = []
        graph = ForwardingGraph()
        node = counting_node("a", log, next_node=FORWARD)
        graph.add_node(node, entry=True)
        self.run_graph(graph)
        self.run_graph(graph)
        assert node.packets_seen == 2


class TestSandbox:
    def test_sandbox_runs_inside_parent_graph(self):
        log = []
        parent = ForwardingGraph()
        parent.add_node(counting_node("ingress", log, next_node="sb"),
                        entry=True)
        sandbox = Sandbox("tenant1")
        sandbox.add_node(counting_node("custom1", log, next_node="custom2"),
                         entry=True)
        sandbox.add_node(counting_node("custom2", log, next_node=FORWARD))
        parent.add_node(sandbox.as_node("sb", next_node="egress"))
        parent.add_node(counting_node("egress", log, next_node=FORWARD))
        result = TestForwardingGraph().run_graph(parent)
        assert result == FORWARD
        assert log == ["ingress", "custom1", "custom2", "egress"]
        assert sandbox.packets_in == 1

    def test_sandbox_can_drop(self):
        log = []
        parent = ForwardingGraph()
        parent.add_node(counting_node("ingress", log, next_node="sb"),
                        entry=True)
        sandbox = Sandbox("tenant1")
        sandbox.add_node(counting_node("filter", log, next_node=DROP),
                         entry=True)
        parent.add_node(sandbox.as_node("sb", next_node="egress"))
        parent.add_node(counting_node("egress", log, next_node=FORWARD))
        assert TestForwardingGraph().run_graph(parent) == DROP
        assert "egress" not in log

    def test_third_party_reorders_only_inside_sandbox(self):
        log = []
        sandbox = Sandbox("tenant1")
        sandbox.add_node(counting_node("x", log, next_node="y"), entry=True)
        sandbox.add_node(counting_node("y", log, next_node=FORWARD))
        # The tenant cannot connect to nodes outside its sandbox.
        with pytest.raises(AFIError):
            sandbox.connect("x", "operator_secret_node")

    def test_end_to_end_on_pfe(self):
        env = Environment()
        pfe = PFE(env, "pfe1", num_ports=2)
        h0 = Host(env, "h0", MACAddress(1), IPv4Address("10.0.0.1"))
        h1 = Host(env, "h1", MACAddress(2), IPv4Address("10.0.0.2"))
        topo = Topology(env)
        topo.connect(h0.nic.port, pfe.port(0))
        topo.connect(h1.nic.port, pfe.port(1))
        pfe.add_route(h1.ip, "pfe1.p1")

        graph = ForwardingGraph()

        def drop_small(tctx, pctx):
            yield from tctx.execute(1)
            return DROP if pctx.length < 80 else None

        graph.add_node(ForwardingNode("filter", op=drop_small,
                                      next_node=FORWARD), entry=True)
        pfe.install_app(AFIApplication(graph))

        def send():
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"tiny")        # dropped
            yield h0.send_udp(h1.mac, h1.ip, 1, 2, b"L" * 100)     # forwarded

        def recv():
            packet = yield h1.recv()
            return packet.parse_udp()[3]

        env.process(send())
        p = env.process(recv())
        assert env.run(until=p) == b"L" * 100
        assert pfe.packets_dropped == 1

    def test_invalid_graph_rejected_at_install(self):
        graph = ForwardingGraph()
        with pytest.raises(AFIError):
            AFIApplication(graph)  # no entry node
