"""The Packet Forwarding Engine (§2.1, Figure 2).

A PFE is the central processing element of Trio's forwarding plane.  The
model wires together every block of Figure 2:

* network ports whose received frames enter the **Dispatch module**;
* the Dispatch module, which splits each frame into head and tail, stores
  the tail in the Packet Buffer (Memory and Queueing Subsystem), and hands
  the head to an available PPE thread;
* hundreds of multi-threaded **PPEs** running the installed application;
* the **Reorder Engine**, which releases each flow's results in arrival
  order;
* the **Shared Memory System** (with its RMW engines and crossbar), the
  **hash block**, and the **timer** hardware.

Applications subclass :class:`TrioApplication` and implement
``handle_packet(thread_ctx, packet_ctx)`` as a generator — the moral
equivalent of the Microcode program the paper installs.  A PFE with no
application performs plain IP forwarding from its route table.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.addressing import IPv4Address
from repro.net.headers import destination_ip
from repro.net.link import Port
from repro.net.multicast import MulticastGroupTable
from repro.net.packet import Packet
from repro.obs import bus as _obs
from repro.sim import Environment, Process, Resource, Store
from repro.trio.chipset import GENERATIONS, TrioChipsetConfig
from repro.trio.crossbar import Crossbar
from repro.trio.hashtable import HardwareHashTable
from repro.trio.memory import SharedMemorySystem
from repro.trio.ppe import (
    ACTION_CONSUME,
    ACTION_DROP,
    ACTION_FORWARD,
    PPE,
    PacketContext,
    ThreadContext,
)
from repro.trio.reorder import ReorderEngine
from repro.trio.timers import TimerManager

__all__ = ["PFE", "TrioApplication"]

#: Fixed hardware cost of dispatching a packet head to a PPE thread
#: (head extraction, thread spawn, LMEM load).  Estimate.
DISPATCH_LATENCY_S = 100e-9


class TrioApplication:
    """Base class for Microcode applications installed on a PFE.

    ``handle_packet`` is a generator that processes one packet on one PPE
    thread; it sets the packet's fate on ``packet_ctx`` (forward / drop /
    consume) and may emit new packets.  ``on_install`` runs once when the
    application is installed (job configuration, memory allocation,
    launching timer threads).
    """

    name = "application"

    def on_install(self, pfe: "PFE") -> None:
        """Hook invoked when the app is installed on ``pfe``."""

    def handle_packet(self, tctx: ThreadContext, pctx: PacketContext):
        """Process one packet; default behaviour forwards it unchanged."""
        yield from tctx.execute(1)
        pctx.forward()


class PFE:
    """One Packet Forwarding Engine with its PPEs and memory system."""

    def __init__(
        self,
        env: Environment,
        name: str,
        config: Optional[TrioChipsetConfig] = None,
        num_ports: int = 4,
        router=None,
    ):
        self.env = env
        self.name = name
        self.config = config or GENERATIONS[5]
        self.router = router

        self.crossbar = Crossbar(env, self.config.crossbar_latency_s)
        self.memory = SharedMemorySystem(env, self.config, self.crossbar)
        self.hash_table = HardwareHashTable(
            env, op_latency_s=self.config.sram_latency_s
        )
        self.ppes: List[PPE] = [
            PPE(env, i, self.config) for i in range(self.config.num_ppes)
        ]
        self._thread_slots = Resource(env, capacity=self.config.total_threads)
        self._next_ppe = 0
        self.timers = TimerManager(env, self, self.config.num_hw_timers)

        self.ports: List[Port] = [
            Port(env, name=f"{name}.p{i}", rx_handler=self._on_rx)
            for i in range(num_ports)
        ]
        self._ports_by_name: Dict[str, Port] = {p.name: p for p in self.ports}

        self._dispatch_queue: Store = Store(env)
        self.reorder = ReorderEngine(release=self._release_output)
        self.app: Optional[TrioApplication] = None
        #: Free list of recycled ThreadContexts (LMEM + register file reuse).
        self._tctx_pool: List[ThreadContext] = []

        #: Local unicast routes: destination IP -> port name.
        self.route_table: Dict[IPv4Address, str] = {}
        #: Local multicast membership.
        self.multicast = MulticastGroupTable()

        self.packets_in = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.packets_consumed = 0
        if _obs.enabled():
            self.memory.rmw.obs_name = f"{name}.rmw"
            self.hash_table.obs_name = f"{name}.hash"
            _obs.register_collector(self._obs_collect)
        env.process(self._dispatch_loop(), name=f"{name}:dispatch")

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def install_app(self, app: TrioApplication) -> TrioApplication:
        """Install a Microcode application (replaces any existing one)."""
        self.app = app
        app.on_install(self)
        return app

    def add_route(self, dst: IPv4Address, port_name: str) -> None:
        """Add a host route: packets to ``dst`` leave via ``port_name``."""
        if port_name not in self._ports_by_name:
            raise ValueError(f"{port_name!r} is not a port of {self.name}")
        self.route_table[IPv4Address(dst)] = port_name

    def port(self, index: int) -> Port:
        return self.ports[index]

    @property
    def threads_in_use(self) -> int:
        return self._thread_slots.in_use

    # ------------------------------------------------------------------
    # Ingress path
    # ------------------------------------------------------------------

    def _on_rx(self, packet: Packet, port: Port) -> None:
        self.accept(packet, ingress_port=port.name)

    def accept(self, packet: Packet, ingress_port: Optional[str] = None) -> None:
        """Enqueue a packet for dispatch (from a port or from the fabric)."""
        self.packets_in += 1
        flow_key = packet.flow_key if packet.flow_key is not None else "_anon"
        seq = self.reorder.arrival(flow_key)
        packet.meta["pfe_arrival"] = self.env.now
        self._dispatch_queue.put_nowait((packet, ingress_port, flow_key, seq))

    def _dispatch_loop(self):
        """The Dispatch module: hand heads to PPEs based on availability."""
        while True:
            packet, ingress_port, flow_key, seq = yield self._dispatch_queue.get()
            slot = self._thread_slots.acquire()
            if slot is not None:
                yield slot
            ppe = self.ppes[self._next_ppe]
            self._next_ppe = (self._next_ppe + 1) % len(self.ppes)
            ppe.threads_spawned += 1
            self.env.process(
                self._run_thread(ppe, packet, ingress_port, flow_key, seq),
                name=f"{self.name}:thread:{packet.packet_id}",
            )

    def _checkout_tctx(self, ppe: PPE,
                       pctx: Optional[PacketContext]) -> ThreadContext:
        """Take a recycled ThreadContext from the pool (or build one)."""
        pool = self._tctx_pool
        if pool:
            tctx = pool.pop()
            tctx.reset(ppe, pctx)
            return tctx
        return ThreadContext(
            env=self.env,
            ppe=ppe,
            config=self.config,
            memory=self.memory,
            hash_table=self.hash_table,
            packet_ctx=pctx,
        )

    def _run_thread(self, ppe: PPE, packet: Packet,
                    ingress_port: Optional[str], flow_key, seq: int):
        head, tail = packet.split(self.config.head_size_bytes)
        pctx = PacketContext(
            packet=packet,
            head=bytearray(head),
            tail=tail,
            ingress_port=ingress_port,
            arrival_seq=seq,
            arrival_time=packet.meta.get("pfe_arrival", self.env.now),
        )
        tctx = self._checkout_tctx(ppe, pctx)
        # The dispatch cost coalesces with the thread's first blocking wait.
        tctx.pending_s += DISPATCH_LATENCY_S
        obs = _obs.session()
        if obs is not None:
            started = self.env.now
            obs.observe("pfe.dispatch_latency_s",
                        started - pctx.arrival_time, pfe=self.name)
            obs.sample(f"ppe.threads_in_use/{self.name}",
                       started, self.threads_in_use)
        try:
            handler = self.app.handle_packet if self.app else self._plain_forward
            yield from handler(tctx, pctx)
            yield from tctx.flush()
        finally:
            self._thread_slots.release()
            tctx.packet_ctx = None
            self._tctx_pool.append(tctx)
            if obs is not None:
                obs.complete(f"pkt {packet.packet_id}", started, self.env.now,
                             track=f"{self.name}/threads",
                             ppe=ppe.index, action=pctx.action)
                obs.sample(f"ppe.threads_in_use/{self.name}",
                           self.env.now, self.threads_in_use)
        outputs: List[Tuple[str, Packet, Optional[str]]] = []
        if pctx.action == ACTION_FORWARD:
            outputs.append((ACTION_FORWARD, packet, pctx.egress_port))
            self.packets_forwarded += 1
        elif pctx.action == ACTION_DROP:
            self.packets_dropped += 1
        else:
            self.packets_consumed += 1
        for emitted, egress in pctx.emitted:
            outputs.append((ACTION_FORWARD, emitted, egress))
        self.reorder.complete(flow_key, seq, outputs)
        if obs is not None:
            obs.sample(f"reorder.in_flight/{self.name}",
                       self.env.now, self.reorder.in_flight_flows)

    def _obs_collect(self, registry) -> None:
        """Export counters the model already keeps (runs once at finalize,
        so the packet path pays nothing for them)."""
        pfe = self.name
        packets = registry.counter(
            "pfe.packets", "packets per fate at each PFE", ("fate", "pfe"))
        packets.inc(self.packets_in, fate="in", pfe=pfe)
        packets.inc(self.packets_forwarded, fate="forwarded", pfe=pfe)
        packets.inc(self.packets_dropped, fate="dropped", pfe=pfe)
        packets.inc(self.packets_consumed, fate="consumed", pfe=pfe)

        total_busy = sum(p.busy_s for p in self.ppes)
        registry.counter(
            "ppe.busy_s", "accumulated PPE compute time", ("pfe",)
        ).inc(total_busy, pfe=pfe)
        registry.counter(
            "ppe.instructions", "datapath instructions executed", ("pfe",)
        ).inc(sum(p.instructions_executed for p in self.ppes), pfe=pfe)
        registry.counter(
            "ppe.threads_spawned", "PPE threads spawned", ("pfe",)
        ).inc(sum(p.threads_spawned for p in self.ppes), pfe=pfe)
        elapsed = self.env.now
        if elapsed > 0.0:
            registry.gauge(
                "ppe.occupancy",
                "PPE busy time / (elapsed x num_ppes)", ("pfe",)
            ).set(total_busy / (elapsed * len(self.ppes)), pfe=pfe)

        registry.counter(
            "reorder.released", "outputs released in order", ("pfe",)
        ).inc(self.reorder.released, pfe=pfe)
        registry.gauge(
            "reorder.held_max", "max results held for one flow", ("pfe",)
        ).set(self.reorder.held_max, pfe=pfe)

        table = self.hash_table
        hash_ops = registry.counter(
            "hash.ops", "hash XTXNs by operation", ("op", "table"))
        hash_ops.inc(table.lookups, op="lookup", table=table.obs_name)
        hash_ops.inc(table.inserts, op="insert", table=table.obs_name)
        hash_ops.inc(table.deletes, op="delete", table=table.obs_name)
        registry.gauge(
            "hash.occupancy", "records resident at finalize", ("table",)
        ).set(len(table), table=table.obs_name)

        rmw = self.memory.rmw
        rmw_ops = registry.counter(
            "rmw.ops", "RMW operations serviced", ("complex", "path"))
        rmw_busy = registry.counter(
            "rmw.busy_s", "RMW service time", ("complex", "path"))
        rmw_bytes = registry.counter(
            "rmw.bytes", "bytes serviced by RMW", ("complex", "path"))
        engine_ops = sum(s.ops for s in rmw.engine_stats)
        engine_busy = sum(s.busy_s for s in rmw.engine_stats)
        engine_bytes = sum(s.bytes_serviced for s in rmw.engine_stats)
        rmw_ops.inc(engine_ops, complex=rmw.obs_name, path="engine")
        rmw_busy.inc(engine_busy, complex=rmw.obs_name, path="engine")
        rmw_bytes.inc(engine_bytes, complex=rmw.obs_name, path="engine")
        rmw_ops.inc(rmw.bulk_stats.ops, complex=rmw.obs_name, path="bulk")
        rmw_busy.inc(rmw.bulk_stats.busy_s, complex=rmw.obs_name, path="bulk")
        rmw_bytes.inc(rmw.bulk_stats.bytes_serviced,
                      complex=rmw.obs_name, path="bulk")
        if elapsed > 0.0:
            util = registry.gauge(
                "rmw.utilization",
                "RMW busy time / elapsed (per engine for the engine path)",
                ("complex", "path"))
            util.set(engine_busy / (elapsed * rmw.num_engines),
                     complex=rmw.obs_name, path="engine")
            util.set(rmw.bulk_stats.busy_s / elapsed,
                     complex=rmw.obs_name, path="bulk")

    def _plain_forward(self, tctx: ThreadContext, pctx: PacketContext):
        """Default application: parse and forward by destination IP."""
        yield from tctx.execute(10)  # parse + route lookup, ballpark
        pctx.forward()

    # ------------------------------------------------------------------
    # Internal (timer / event-spawned) threads
    # ------------------------------------------------------------------

    def spawn_internal_thread(self, callback: Callable[[ThreadContext], object],
                              name: str = "internal") -> Process:
        """Run ``callback(thread_ctx)`` as a PPE thread (§2.2: threads can
        start in response to internal events such as timers)."""
        return self.env.process(self._run_internal(callback), name=name)

    def _run_internal(self, callback):
        slot = self._thread_slots.acquire()
        if slot is not None:
            yield slot
        ppe = self.ppes[self._next_ppe]
        self._next_ppe = (self._next_ppe + 1) % len(self.ppes)
        ppe.threads_spawned += 1
        tctx = self._checkout_tctx(ppe, None)
        try:
            yield from callback(tctx)
            yield from tctx.flush()
        finally:
            self._thread_slots.release()
            self._tctx_pool.append(tctx)

    # ------------------------------------------------------------------
    # Egress path
    # ------------------------------------------------------------------

    def _release_output(self, item: Tuple[str, Packet, Optional[str]]) -> None:
        __, packet, egress_port = item
        self.transmit(packet, egress_port)

    def transmit(self, packet: Packet, egress_port: Optional[str] = None) -> None:
        """Send a packet out: explicit port, local route, or the router."""
        if egress_port is not None:
            port = self._ports_by_name.get(egress_port)
            if port is None:
                if self.router is not None:
                    self.router.deliver(packet, egress_hint=egress_port,
                                        from_pfe=self)
                    return
                raise ValueError(f"unknown egress port {egress_port!r}")
            port.send(packet)
            return
        dst = destination_ip(packet)
        if dst is not None and dst.is_multicast:
            members = self.multicast.members(dst)
            if members:
                for port_name in members:
                    self._ports_by_name[port_name].send(packet.copy())
                return
            if self.router is not None:
                self.router.deliver(packet, from_pfe=self)
                return
            self.packets_dropped += 1
            return
        if dst is not None and dst in self.route_table:
            self._ports_by_name[self.route_table[dst]].send(packet)
            return
        if self.router is not None:
            self.router.deliver(packet, from_pfe=self)
            return
        self.packets_dropped += 1  # no route: drop

    def __repr__(self) -> str:
        return f"<PFE {self.name} gen{self.config.generation}>"
