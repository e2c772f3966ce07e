"""A Tofino-class switch: four independent PISA pipelines (§6.1).

Ports are statically assigned to pipelines (16×100 Gbps per pipeline on
the testbed's 64×100 Gbps switch).  Pipelines cannot access each other's
registers; traffic that must touch state in another pipeline has to cross
via recirculation — which is why SwitchML performs best when all workers
share one pipeline (§6.1) and why the paper connects all six servers to a
single pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.addressing import IPv4Address
from repro.net.headers import destination_ip
from repro.net.link import Port
from repro.net.packet import Packet
from repro.sim import Environment
from repro.pisa.pipeline import P4Program, PisaPipeline

__all__ = ["TofinoSwitch"]


class TofinoSwitch:
    """A multi-pipeline PISA switch with port-to-pipeline mapping."""

    def __init__(
        self,
        env: Environment,
        name: str = "tofino",
        num_pipelines: int = 4,
        ports_per_pipeline: int = 16,
        pass_latency_s: float = 600e-9,
        packet_rate_pps: float = 1.0e9,
    ):
        self.env = env
        self.name = name
        self.pipelines: List[PisaPipeline] = [
            PisaPipeline(
                env,
                name=f"{name}.pipe{i}",
                pass_latency_s=pass_latency_s,
                packet_rate_pps=packet_rate_pps,
            )
            for i in range(num_pipelines)
        ]
        self.ports: List[Port] = []
        self._port_pipeline: Dict[str, int] = {}
        for pipe_idx in range(num_pipelines):
            for port_idx in range(ports_per_pipeline):
                port = Port(
                    env,
                    name=f"{name}.pipe{pipe_idx}.p{port_idx}",
                    rx_handler=self._on_rx,
                )
                self.ports.append(port)
                self._port_pipeline[port.name] = pipe_idx
        self._ports_by_name = {p.name: p for p in self.ports}
        for i, pipeline in enumerate(self.pipelines):
            pipeline.set_emit_handler(self._emit)
        #: L3 forwarding table used for plain (non-program) traffic and for
        #: program emissions without an explicit egress port.
        self.route_table: Dict[IPv4Address, str] = {}

    def port(self, pipeline: int, index: int) -> Port:
        """The ``index``-th port of ``pipeline``."""
        return self._ports_by_name[f"{self.name}.pipe{pipeline}.p{index}"]

    def install(self, pipeline_index: int, program: P4Program) -> P4Program:
        """Install ``program`` on one pipeline.

        Each pipeline needs its own program instance: PISA pipelines have
        *independent* register state and cannot share (§2.1).  Use
        :meth:`install_all` with a factory to program several pipelines.
        """
        return self.pipelines[pipeline_index].install(program)

    def install_all(self, program_factory) -> List[P4Program]:
        """Install one fresh program instance per pipeline."""
        return [
            pipeline.install(program_factory())
            for pipeline in self.pipelines
        ]

    def add_route(self, dst: IPv4Address, port_name: str) -> None:
        if port_name not in self._ports_by_name:
            raise ValueError(f"unknown port {port_name!r}")
        self.route_table[IPv4Address(dst)] = port_name

    # ------------------------------------------------------------------

    def _on_rx(self, packet: Packet, port: Port) -> None:
        pipeline = self.pipelines[self._port_pipeline[port.name]]
        packet.meta["tofino_ingress"] = port.name
        pipeline.submit(packet)

    def _emit(self, packet: Packet, egress: Optional[str]) -> None:
        if egress is not None:
            port = self._ports_by_name.get(egress)
            if port is not None:
                port.send(packet)
            return
        dst = destination_ip(packet)
        if dst is not None and dst in self.route_table:
            self._ports_by_name[self.route_table[dst]].send(packet)

    def __repr__(self) -> str:
        return f"<TofinoSwitch {self.name} pipes={len(self.pipelines)}>"
