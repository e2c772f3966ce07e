"""The Advanced Forwarding Interface (AFI) (§3.1).

In Trio, packet forwarding is a sequence of operations executed by a PFE;
each operation is a node on a graph of potential packet forwarding
operations, and the PFE executes a series of operations for an individual
packet based on its type/fields.  AFI provides *partial* programmability:
third-party developers control and manage a section of this forwarding
path graph via a small virtual container called a **sandbox**, within
which they may add, remove, and reorder operations for specific packets —
without touching the operator-owned parts of the graph.

Model:

* :class:`ForwardingNode` — one operation: a generator
  ``fn(tctx, pctx) -> next`` where ``next`` is the name of the next node,
  a terminal action (:data:`FORWARD`/:data:`DROP`/:data:`CONSUME`), or
  None to follow the node's static ``next`` edge.
* :class:`ForwardingGraph` — named nodes plus an entry point; walking the
  graph charges each node's instruction cost on the PPE thread.
* :class:`Sandbox` — a sub-graph mounted at one node of the parent graph;
  it exposes only add/remove/reorder operations, so a third party cannot
  escape its container.
* :class:`AFIApplication` — installs a graph as the PFE application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.trio.pfe import PFE, TrioApplication
from repro.trio.ppe import PacketContext, ThreadContext

__all__ = [
    "AFIApplication",
    "AFIError",
    "CONSUME",
    "DROP",
    "FORWARD",
    "ForwardingGraph",
    "ForwardingNode",
    "Sandbox",
]

#: Terminal results a node may return.
FORWARD = "__forward__"
DROP = "__drop__"
CONSUME = "__consume__"
_TERMINALS = (FORWARD, DROP, CONSUME)

#: Safety valve against cyclic graphs.
MAX_NODES_PER_PACKET = 1000


class AFIError(Exception):
    """Graph construction or execution error."""


#: Node operations are generators: ``op(tctx, pctx) -> Optional[str]``.
NodeOp = Callable[[ThreadContext, PacketContext], object]


@dataclass
class ForwardingNode:
    """One operation on the forwarding path.

    ``op`` may be None for a pure connector node.  ``next_node`` is the
    static successor, used when ``op`` returns None.
    """

    name: str
    op: Optional[NodeOp] = None
    next_node: Optional[str] = None
    instruction_cost: int = 2
    packets_seen: int = 0

    def run(self, tctx: ThreadContext, pctx: PacketContext):
        self.packets_seen += 1
        if self.instruction_cost:
            yield from tctx.execute(self.instruction_cost)
        if self.op is None:
            return self.next_node
        result = yield from self.op(tctx, pctx)
        if result is None:
            return self.next_node
        return result


class ForwardingGraph:
    """A graph of forwarding operations with a single entry node."""

    def __init__(self, name: str = "forwarding"):
        self.name = name
        self.nodes: Dict[str, ForwardingNode] = {}
        self.entry: Optional[str] = None

    def add_node(self, node: ForwardingNode,
                 entry: bool = False) -> ForwardingNode:
        if node.name in self.nodes:
            raise AFIError(f"duplicate node {node.name!r}")
        if node.name in _TERMINALS:
            raise AFIError(f"{node.name!r} is a reserved terminal name")
        self.nodes[node.name] = node
        if entry or self.entry is None:
            self.entry = node.name
        return node

    def remove_node(self, name: str) -> None:
        if name not in self.nodes:
            raise AFIError(f"no node named {name!r}")
        del self.nodes[name]
        if self.entry == name:
            self.entry = next(iter(self.nodes), None)

    def set_entry(self, name: str) -> None:
        if name not in self.nodes:
            raise AFIError(f"no node named {name!r}")
        self.entry = name

    def connect(self, src: str, dst: str) -> None:
        """Set the static edge ``src -> dst`` (reordering operations)."""
        if src not in self.nodes:
            raise AFIError(f"no node named {src!r}")
        if dst not in self.nodes and dst not in _TERMINALS:
            raise AFIError(f"no node named {dst!r}")
        self.nodes[src].next_node = dst

    def validate(self) -> None:
        """Check that every static edge points somewhere that exists."""
        if self.entry is None:
            raise AFIError(f"graph {self.name!r} has no entry node")
        for node in self.nodes.values():
            nxt = node.next_node
            if nxt is not None and nxt not in self.nodes \
                    and nxt not in _TERMINALS:
                raise AFIError(
                    f"node {node.name!r} points at unknown node {nxt!r}"
                )

    def run(self, tctx: ThreadContext, pctx: PacketContext):
        """Walk the graph for one packet; returns a terminal action."""
        if self.entry is None:
            raise AFIError(f"graph {self.name!r} has no entry node")
        current = self.entry
        steps = 0
        while True:
            steps += 1
            if steps > MAX_NODES_PER_PACKET:
                raise AFIError(
                    f"packet visited more than {MAX_NODES_PER_PACKET} "
                    "nodes; the forwarding graph likely has a cycle"
                )
            if current in _TERMINALS:
                return current
            node = self.nodes.get(current)
            if node is None:
                raise AFIError(f"walk reached unknown node {current!r}")
            result = yield from node.run(tctx, pctx)
            if result is None:
                raise AFIError(
                    f"node {current!r} has no successor and returned none"
                )
            current = result


class Sandbox:
    """A third-party-controlled section of the forwarding path graph.

    The operator mounts the sandbox at a node of the parent graph; the
    third party gets a private :class:`ForwardingGraph` whose terminal
    :data:`FORWARD` result continues at the operator-chosen exit node.
    The third party cannot reach or modify anything outside the sandbox.
    """

    def __init__(self, name: str, exit_node: str = FORWARD):
        self.name = name
        self.graph = ForwardingGraph(name=f"sandbox:{name}")
        self.exit_node = exit_node
        self.packets_in = 0

    # -- third-party surface -------------------------------------------

    def add_node(self, node: ForwardingNode,
                 entry: bool = False) -> ForwardingNode:
        return self.graph.add_node(node, entry=entry)

    def remove_node(self, name: str) -> None:
        self.graph.remove_node(name)

    def connect(self, src: str, dst: str) -> None:
        self.graph.connect(src, dst)

    def set_entry(self, name: str) -> None:
        self.graph.set_entry(name)

    # -- operator surface -------------------------------------------------

    def as_node(self, name: Optional[str] = None,
                next_node: Optional[str] = None) -> ForwardingNode:
        """The mount point: a parent-graph node that runs this sandbox."""

        def op(tctx: ThreadContext, pctx: PacketContext):
            self.packets_in += 1
            result = yield from self.graph.run(tctx, pctx)
            if result == FORWARD:
                # Leaving the sandbox: continue at the operator's exit.
                return self.exit_node if next_node is None else next_node
            return result

        return ForwardingNode(
            name=name or f"sandbox:{self.name}",
            op=op,
            next_node=next_node,
            instruction_cost=1,
        )


class AFIApplication(TrioApplication):
    """Installs a forwarding graph as the PFE's packet handler."""

    name = "afi"

    def __init__(self, graph: ForwardingGraph):
        graph.validate()
        self.graph = graph

    def handle_packet(self, tctx: ThreadContext, pctx: PacketContext):
        result = yield from self.graph.run(tctx, pctx)
        if result == DROP:
            pctx.drop()
        elif result == CONSUME:
            pctx.consume()
        else:
            pctx.forward(pctx.egress_port)
