"""Builders for the paper's testbed topologies (Figure 11).

* :func:`build_single_pfe_testbed` — the §6.3 microbenchmark setup: four
  servers on one PFE, single-level aggregation;
  :func:`run_single_pfe_allreduce` runs one allreduce on it and
  :func:`single_pfe_goodput_bps` reports its per-worker goodput.
* :func:`build_hierarchical_testbed` — the full Figure 11(b) setup: an
  MX480-style chassis with six PFEs, three servers on PFE1 and three on
  PFE2, PFE4 as the top-level aggregator.
* :func:`build_switchml_testbed` — the §6.1 baseline: SwitchML workers on
  one Tofino switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.topology import Topology
from repro.sim import Environment
from repro.trio.chipset import TrioChipsetConfig
from repro.trio.pfe import PFE
from repro.trio.router import TrioRouter
from repro.trioml.config import (
    JobHandle,
    TrioMLJobConfig,
    setup_hierarchical_job,
    setup_single_level_job,
)
from repro.trioml.worker import TrioMLWorker

if TYPE_CHECKING:
    from repro.pisa.tofino import TofinoSwitch
    from repro.switchml.switch import SwitchMLJob, SwitchMLProgram

__all__ = [
    "HierarchicalTestbed",
    "SinglePfeTestbed",
    "SwitchMLTestbed",
    "build_hierarchical_testbed",
    "build_single_pfe_testbed",
    "build_switchml_testbed",
    "run_single_pfe_allreduce",
    "single_pfe_goodput_bps",
]

#: Optional per-worker straggle hook factory: worker index -> hook or None.
HookFactory = Callable[[int], Optional[Callable[[int], float]]]


@dataclass
class _Testbed:
    env: Environment
    workers: list
    topology: Topology

    def run_allreduce(self, gradient_vectors: Sequence[Sequence[int]]):
        """Start one allreduce per worker; returns the processes."""
        return [
            self.env.process(worker.allreduce(vector))
            for worker, vector in zip(self.workers, gradient_vectors)
        ]


@dataclass
class SinglePfeTestbed(_Testbed):
    """Four servers on one PFE (the §6.3 benchmark setup)."""

    handle: JobHandle
    pfe: PFE


@dataclass
class HierarchicalTestbed(_Testbed):
    """Six servers across two line cards with a top-level aggregator PFE."""

    handle: JobHandle
    router: TrioRouter


@dataclass
class SwitchMLTestbed(_Testbed):
    """SwitchML workers on one Tofino switch (the §6.1 baseline)."""

    switch: TofinoSwitch
    programs: List[SwitchMLProgram]


def _add_worker(env: Environment, topology: Topology, index: int,
                config: TrioMLJobConfig,
                hook_factory: Optional[HookFactory]) -> TrioMLWorker:
    """Server ``index + 1``, added to ``topology`` as a host."""
    worker = TrioMLWorker(
        env,
        name=f"server{index + 1}",
        src_id=index,
        job_id=config.job_id,
        mac=MACAddress(0x02_00_00_00_00_01 + index),
        ip=IPv4Address(f"10.0.0.{index + 1}"),
        router_mac=config.router_mac,
        service_ip=config.service_ip,
        grads_per_packet=config.grads_per_packet,
        window=config.window,
        straggle_hook=hook_factory(index) if hook_factory else None,
        retransmit_timeout_s=config.retransmit_timeout_s,
    )
    topology.add_host(worker)
    return worker


def build_single_pfe_testbed(
    env: Environment,
    config: Optional[TrioMLJobConfig] = None,
    num_workers: int = 4,
    chipset: Optional[TrioChipsetConfig] = None,
    with_detector: bool = False,
    hook_factory: Optional[HookFactory] = None,
    link_loss_rate: float = 0.0,
) -> SinglePfeTestbed:
    """Four (by default) servers connected to the same PFE (§6.3)."""
    config = config or TrioMLJobConfig()
    pfe = PFE(env, "pfe1", config=chipset, num_ports=num_workers)
    topology = Topology(env)
    workers: List[TrioMLWorker] = []
    ports: Dict[str, str] = {}
    for index in range(num_workers):
        worker = _add_worker(env, topology, index, config, hook_factory)
        topology.connect(worker.nic.port, pfe.port(index),
                         loss_rate=link_loss_rate, loss_seed=index + 1)
        ports[worker.name] = pfe.port(index).name
        workers.append(worker)
    handle = setup_single_level_job(
        pfe, config, workers, ports, with_detector=with_detector
    )
    if with_detector:
        handle.start_detectors()
    return SinglePfeTestbed(
        env=env, pfe=pfe, workers=workers, handle=handle, topology=topology
    )


def run_single_pfe_allreduce(config: TrioMLJobConfig, blocks: int,
                             num_workers: int = 4,
                             tail_chunk_bytes: Optional[int] = None,
                             **testbed_args) -> Tuple[SinglePfeTestbed, List]:
    """Every worker of a fresh single-PFE testbed (built with
    ``testbed_args``) allreduces ``blocks`` packets; ``tail_chunk_bytes``
    overrides the aggregator's Figure 10 chunk size.  Returns the testbed
    and the finished processes."""
    env = Environment()
    testbed = build_single_pfe_testbed(env, config, num_workers=num_workers,
                                       **testbed_args)
    if tail_chunk_bytes is not None:
        testbed.handle.aggregator.tail_chunk_bytes = tail_chunk_bytes
    vector = np.ones(config.grads_per_packet * blocks, dtype="<i4")
    procs = testbed.run_allreduce([vector] * num_workers)
    env.run(until=env.all_of(procs))
    return testbed, procs


def single_pfe_goodput_bps(grads_per_packet: int, window: int, blocks: int,
                           num_workers: int = 4) -> float:
    """Per-worker goodput (bps) of one :func:`run_single_pfe_allreduce`:
    model bits each worker sends over the allreduce's completion time."""
    config = TrioMLJobConfig(grads_per_packet=grads_per_packet,
                             window=window)
    testbed, __ = run_single_pfe_allreduce(config, blocks,
                                           num_workers=num_workers)
    return grads_per_packet * blocks * 32 / testbed.env.now


def build_hierarchical_testbed(
    env: Environment,
    config: Optional[TrioMLJobConfig] = None,
    chipset: Optional[TrioChipsetConfig] = None,
    with_detector: bool = False,
    hook_factory: Optional[HookFactory] = None,
) -> HierarchicalTestbed:
    """The Figure 11(b) topology: six servers, PFE1/PFE2 first level,
    PFE4 top-level aggregator."""
    config = config or TrioMLJobConfig()
    router = TrioRouter(env, num_pfes=6, ports_per_pfe=4, config=chipset)
    topology = Topology(env)
    workers: List[TrioMLWorker] = []
    ports: Dict[str, tuple] = {}
    first_level: Dict[str, List[TrioMLWorker]] = {"pfe1": [], "pfe2": []}
    for index in range(6):
        pfe_name = "pfe1" if index < 3 else "pfe2"
        port_index = index % 3
        worker = _add_worker(env, topology, index, config, hook_factory)
        topology.connect(worker.nic.port, router.pfe(pfe_name).port(port_index))
        ports[worker.name] = (pfe_name, f"{pfe_name}.p{port_index}")
        first_level[pfe_name].append(worker)
        workers.append(worker)
    handle = setup_hierarchical_job(
        router, config, first_level, ports, top_pfe="pfe4",
        with_detector=with_detector,
    )
    if with_detector:
        handle.start_detectors()
    return HierarchicalTestbed(
        env=env, router=router, workers=workers, handle=handle,
        topology=topology,
    )


def build_switchml_testbed(
    env: Environment,
    job: SwitchMLJob,
    hook_factory: Optional[HookFactory] = None,
) -> SwitchMLTestbed:
    """``job.num_workers`` SwitchML workers on one Tofino switch.

    Worker ``i`` is at 10.0.0.``i + 1`` with MAC ``i + 1``, on switch
    port (0, ``i``), and the switch routes its address to that port.
    """
    from repro.switchml.switch import build_switchml_switch
    from repro.switchml.worker import SwitchMLWorker

    switch, programs = build_switchml_switch(env, job)
    topology = Topology(env)
    workers = []
    for index in range(job.num_workers):
        ip = IPv4Address(f"10.0.0.{index + 1}")
        mac = MACAddress(index + 1)
        job.add_worker(index, ip, mac)
        worker = SwitchMLWorker(
            env, f"w{index}", index, job, mac, ip,
            straggle_hook=hook_factory(index) if hook_factory else None,
        )
        topology.connect(worker.nic.port, switch.port(0, index))
        switch.add_route(ip, switch.port(0, index).name)
        workers.append(worker)
    return SwitchMLTestbed(env=env, workers=workers, topology=topology,
                           switch=switch, programs=programs)
