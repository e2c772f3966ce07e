"""The simulator's layers, the public calls timed for each, and the
ratios measured where the work happens.

Every layer is named after the module it lives in.  The targets are the
layer's public entry points; what runs inside an event-loop callback
that no layer claims (including the fluid engine's completion path,
which has no public entry point) stays with ``sim.kernel``.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Tuple

from tracer import Observer, Tracer

__all__ = ["LAYERS", "LAYER_FIELDS", "LayerProbe", "RATIOS",
           "layer_metric_names"]

LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.kernel", ("repro.sim.core:Environment.run",)),
    ("trioml.aggregator", (
        "repro.trioml.aggregator:TrioMLAggregator.handle_packet",
        "repro.trioml.aggregator:TrioMLAggregator.generate_result",
    )),
    ("trioml.worker", ("repro.trioml.worker:TrioMLWorker.allreduce",)),
    ("trio.rmw", ("repro.trio.rmw:RMWComplex.*",)),
    ("trio.memory", tuple(
        f"repro.trio.memory:SharedMemorySystem.{xtxn}"
        for xtxn in ("read", "write", "add32", "fetch_and_op",
                     "masked_write", "counter_inc", "bulk_add32",
                     "bulk_read", "bulk_write"))),
    ("trio.ppe", ("repro.trio.ppe:ThreadContext.*",)),
    ("trio.hashtable", tuple(
        f"repro.trio.hashtable:HardwareHashTable.{xtxn}"
        for xtxn in ("lookup", "insert", "insert_if_absent", "delete",
                     "scan_segment"))),
    ("trio.pfe", ("repro.trio.pfe:PFE.accept", "repro.trio.pfe:PFE.transmit")),
    ("trio.reorder", ("repro.trio.reorder:ReorderEngine.*",)),
    ("net.link", (
        "repro.net.link:Port.send",
        "repro.net.link:Port.deliver",
        "repro.net.link:Link.transmit",
    )),
    ("net.nic", ("repro.net.nic:NIC.*",)),
    ("flowsim.solver", tuple(
        f"repro.flowsim.solver:PathClassSolver.{op}"
        for op in ("add", "remove", "pin", "resolve"))),
    ("flowsim.engine", ("repro.flowsim.engine:FluidEngine.start_flow",)),
    ("flowsim.escalate", ("repro.flowsim.escalate:EscalationPolicy.*",)),
    ("flowsim.packetref", (
        "repro.flowsim.packetref:packet_fan_in",
        "repro.flowsim.packetref:packet_pair",
        "repro.flowsim.packetref:packet_pfe_goodput",
    )),
    ("traffic.generate", (
        "repro.flowsim.scenario:generate_flows",
        "repro.traffic.scenarios:MixedScenario.generate",
        "repro.traffic.scenarios:FanInScenario.generate",
        "repro.traffic.scenarios:DDoSScenario.generate",
    )),
    ("net.topology", ("repro.net.topology:Topology.find_path",)),
    ("traffic.packet_stream", ("repro.traffic.adapters:packet_stream",)),
    ("nf.exec", ("repro.nf.exec:run_chain",)),
    ("nf.firewall", ("repro.nf.firewall:FirewallNF.process",
                     "repro.nf.firewall:FirewallNF.on_epoch")),
    ("nf.telemetry", ("repro.nf.telemetry:TelemetryNF.process",
                      "repro.nf.telemetry:TelemetryNF.on_epoch")),
)

#: Per-layer metric suffixes, in report order.
LAYER_FIELDS = ("calls", "self_s", "incl_s", "share")

#: Ratio metrics, with units, in report order.
RATIOS: Tuple[Tuple[str, str], ...] = (
    ("sim.kernel.events", "count"),
    ("sim.kernel.cancelled_frac", "frac"),
    ("trio.hashtable.hit_frac", "frac"),
    ("flowsim.solver.resolve_us_p50", "us"),
    ("flowsim.solver.resolve_us_p99", "us"),
    ("flowsim.solver.changed_frac", "frac"),
    ("flowsim.solver.live_classes_mean", "count"),
    ("flowsim.packetref.cache_hit_frac", "frac"),
    ("trace.overhead", "x"),
    ("trace.unattributed_share", "frac"),
)

_FIELD_UNITS = {"calls": "count", "self_s": "s", "incl_s": "s",
                "share": "frac"}


def layer_metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric ``(name, unit)``: four per layer, then
    the ratios."""
    names = [(f"{layer}.{field}", _FIELD_UNITS[field])
             for layer, _ in LAYERS for field in LAYER_FIELDS]
    return names + list(RATIOS)


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


class LayerProbe:
    """Installs every layer's targets on a tracer and keeps the counts
    the ratio metrics are built from."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: Environment -> (scheduled, cancelled) at its last ``run``
        #: return; deltas are summed so repeated runs count once.
        self._env_seen: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary())
        self.events = 0
        self.cancelled = 0
        self.hash_probes = 0
        self.hash_hits = 0
        self.resolve_ns: List[int] = []
        self.changed = 0
        self.live_classes = 0

    def _observers(self) -> Dict[str, Observer]:
        table = "repro.trio.hashtable:HardwareHashTable"
        return {
            "repro.sim.core:Environment.run": self._after_run,
            f"{table}.lookup": self._after_lookup,
            f"{table}.insert_if_absent": self._after_insert_if_absent,
            "repro.flowsim.solver:PathClassSolver.resolve": self._after_resolve,
        }

    def install(self) -> None:
        observers = self._observers()
        for layer, specs in LAYERS:
            for spec in specs:
                self.tracer.install(layer, spec, observers.get(spec))

    # -- observers (run after the traced call returns) -------------------

    def _after_run(self, args: tuple, _result: object, _ns: int) -> None:
        env = args[0]
        scheduled, cancelled = env.scheduled_events, env.cancelled_events
        last_scheduled, last_cancelled = self._env_seen.get(env, (0, 0))
        self.events += scheduled - last_scheduled
        self.cancelled += cancelled - last_cancelled
        self._env_seen[env] = (scheduled, cancelled)

    def _after_lookup(self, _args: tuple, record: object, _ns: int) -> None:
        self.hash_probes += 1
        self.hash_hits += record is not None

    def _after_insert_if_absent(self, _args: tuple, result: tuple,
                                _ns: int) -> None:
        self.hash_probes += 1
        self.hash_hits += not result[1]

    def _after_resolve(self, args: tuple, result: dict, ns: int) -> None:
        self.resolve_ns.append(ns)
        self.changed += len(result)
        self.live_classes += args[0].num_classes

    # -- results ---------------------------------------------------------

    def ratios(self) -> Dict[str, float]:
        """Every ratio except the ``trace.*`` pair, which needs the
        untraced baseline the caller holds."""
        from repro.flowsim import packetref

        resolves = sorted(self.resolve_ns)
        hits = misses = 0
        for fn in (packetref.packet_fan_in, packetref.packet_pair,
                   packetref.packet_pfe_goodput):
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return {
            "sim.kernel.events": float(self.events),
            "sim.kernel.cancelled_frac": (
                self.cancelled / self.events if self.events else 0.0),
            "trio.hashtable.hit_frac": (
                self.hash_hits / self.hash_probes
                if self.hash_probes else 0.0),
            "flowsim.solver.resolve_us_p50": _quantile(resolves, 0.50) / 1e3,
            "flowsim.solver.resolve_us_p99": _quantile(resolves, 0.99) / 1e3,
            "flowsim.solver.changed_frac": (
                self.changed / self.live_classes
                if self.live_classes else 0.0),
            "flowsim.solver.live_classes_mean": (
                self.live_classes / len(resolves) if resolves else 0.0),
            "flowsim.packetref.cache_hit_frac": (
                hits / (hits + misses) if hits + misses else 0.0),
        }
