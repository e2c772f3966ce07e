"""Control-plane configuration for Trio-ML jobs (§4).

Job records are created at configuration time (not by the data plane),
multicast membership is set up for result delivery, and — for
hierarchical aggregation (Figure 11b) — first-level aggregator PFEs are
pointed at the top-level PFE.  All of this is control-plane work: "when
hierarchical aggregation is being set up, all configurations are done via
the control-plane, and no Microcode changes are needed" (§4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addressing import IPv4Address, MACAddress
from repro.trio.pfe import PFE
from repro.trio.router import TrioRouter
from repro.trioml.aggregator import JobRuntime, TrioMLAggregator
from repro.trioml.records import JobRecord
from repro.trioml.straggler import StragglerDetector
from repro.trioml.worker import TrioMLWorker

__all__ = [
    "TrioMLJobConfig",
    "JobHandle",
    "setup_single_level_job",
    "setup_hierarchical_job",
    "setup_remote_first_level_job",
]


@dataclass
class TrioMLJobConfig:
    """User-facing knobs of one aggregation job (§6.1 defaults)."""

    job_id: int = 1
    grads_per_packet: int = 1024
    window: int = 4096
    timeout_s: float = 0.010
    detector_threads: int = 100
    #: Router address the workers send aggregation packets to.
    service_ip: IPv4Address = field(
        default_factory=lambda: IPv4Address("10.255.0.1")
    )
    #: Multicast group the Result packets are delivered to.
    group_ip: IPv4Address = field(
        default_factory=lambda: IPv4Address("239.1.1.1")
    )
    router_mac: MACAddress = field(
        default_factory=lambda: MACAddress(0xFEFEFEFEFEFE)
    )
    #: Loss recovery (§7, future work in the paper): the aggregator caches
    #: completed Results and replays them on retransmission; workers
    #: retransmit after ``retransmit_timeout_s``.
    loss_recovery: bool = False
    retransmit_timeout_s: Optional[float] = None

    @property
    def timeout_ms(self) -> int:
        return max(1, round(self.timeout_s * 1000))


@dataclass
class JobHandle:
    """Everything the experiment needs to drive a configured job."""

    config: TrioMLJobConfig
    aggregators: Dict[str, TrioMLAggregator]
    runtimes: Dict[str, JobRuntime]
    detectors: Dict[str, StragglerDetector] = field(default_factory=dict)

    @property
    def aggregator(self) -> TrioMLAggregator:
        """The (single or top-level) result-producing aggregator."""
        return next(iter(self.aggregators.values()))

    def start_detectors(self) -> None:
        for detector in self.detectors.values():
            detector.start()

    def stop_detectors(self) -> None:
        for detector in self.detectors.values():
            detector.stop()


def _source_mask(src_ids: Sequence[int]) -> int:
    mask = 0
    for src_id in src_ids:
        mask |= 1 << src_id
    return mask


def _get_aggregator(pfe: PFE) -> TrioMLAggregator:
    if isinstance(pfe.app, TrioMLAggregator):
        return pfe.app
    return pfe.install_app(TrioMLAggregator())


def _configure_level(handle: JobHandle, pfe: PFE, src_ids: Sequence[int],
                     result_dst_ip: IPv4Address,
                     detector_timeout_s: Optional[float],
                     top_pfe: Optional[str] = None,
                     own_src_id: int = 0) -> None:
    """Set up one aggregation level of ``handle``'s job on ``pfe``.

    The level waits for ``src_ids`` and sends its Result to
    ``result_dst_ip`` (the job's multicast group at the last level);
    ``top_pfe`` names the PFE a first-level Result crosses the fabric
    to, and ``own_src_id`` is the level's source id there.  A detector
    with ``detector_timeout_s`` is added unless that is None.
    """
    config = handle.config
    aggregator = _get_aggregator(pfe)
    record = JobRecord(
        job_id=config.job_id,
        src_cnt=len(src_ids),
        src_mask=_source_mask(src_ids),
        block_grad_max=config.grads_per_packet,
        block_exp_ms=config.timeout_ms,
        out_src_addr=int(config.service_ip),
        out_dst_addr=int(result_dst_ip),
    )
    runtime = JobRuntime(
        record=record,
        top_pfe=top_pfe,
        own_src_id=own_src_id,
        result_src_ip=config.service_ip,
        result_dst_ip=result_dst_ip,
        result_src_mac=config.router_mac,
        loss_recovery=config.loss_recovery,
    )
    aggregator.configure_job(runtime)
    handle.aggregators[pfe.name] = aggregator
    handle.runtimes[pfe.name] = runtime
    if detector_timeout_s is not None:
        handle.detectors[pfe.name] = StragglerDetector(
            aggregator,
            num_threads=config.detector_threads,
            timeout_s=detector_timeout_s,
        )


def setup_single_level_job(
    pfe: PFE,
    config: TrioMLJobConfig,
    workers: List[TrioMLWorker],
    worker_ports: Dict[str, str],
    with_detector: bool = False,
    remote_src_ids: Sequence[int] = (),
) -> JobHandle:
    """Configure single-level aggregation on one PFE.

    ``worker_ports`` maps worker name -> the PFE port it is attached to;
    result multicast membership is programmed on those ports.
    ``remote_src_ids`` are the source ids of remote first levels (§4's
    multi-device hierarchy) that feed this level besides its workers.
    """
    handle = JobHandle(config=config, aggregators={}, runtimes={})
    _configure_level(handle, pfe,
                     [w.src_id for w in workers] + list(remote_src_ids),
                     config.group_ip,
                     config.timeout_s if with_detector else None)
    for worker in workers:
        pfe.multicast.join(config.group_ip, worker_ports[worker.name])
    return handle


def setup_hierarchical_job(
    router: TrioRouter,
    config: TrioMLJobConfig,
    first_level: Dict[str, List[TrioMLWorker]],
    worker_ports: Dict[str, Tuple[str, str]],
    top_pfe: str,
    with_detector: bool = False,
) -> JobHandle:
    """Configure hierarchical aggregation across a chassis (Figure 11b).

    ``first_level`` maps first-level PFE name -> the workers attached to
    it; ``worker_ports`` maps worker name -> (pfe_name, port_name);
    ``top_pfe`` is the designated top-level aggregator PFE.  First-level
    PFEs feed the top-level PFE directly over the fabric; the top-level
    PFE sees them as individual sources (src_ids 100, 101, …) and
    multicasts the final Result to the job's group.
    """
    if top_pfe in first_level:
        raise ValueError("the top-level PFE cannot also be first-level")
    handle = JobHandle(config=config, aggregators={}, runtimes={})
    level_names = sorted(first_level)
    # Top level first, so it is ready before any first-level result.  It
    # waits twice as long as the first level, so a first-level
    # mitigation (which completes within 2x its timeout) reaches the top
    # before the top's own age-out fires.
    _configure_level(handle, router.pfe(top_pfe),
                     [100 + index for index in range(len(level_names))],
                     config.group_ip,
                     2 * config.timeout_s if with_detector else None)
    for index, pfe_name in enumerate(level_names):
        _configure_level(handle, router.pfe(pfe_name),
                         [w.src_id for w in first_level[pfe_name]],
                         config.service_ip,
                         config.timeout_s if with_detector else None,
                         top_pfe=top_pfe, own_src_id=100 + index)
    # Result multicast membership across the chassis.
    for pfe_name, port_name in worker_ports.values():
        router.join_multicast(config.group_ip, pfe_name, port_name)
    return handle


def setup_remote_first_level_job(
    pfe: PFE,
    config: TrioMLJobConfig,
    workers: List[TrioMLWorker],
    worker_ports: Dict[str, str],
    own_src_id: int,
    upstream_service_ip: IPv4Address,
    uplink_port: str,
    with_detector: bool = False,
) -> JobHandle:
    """Configure a *remote* first-level aggregator (§4's multi-device
    hierarchy): this device aggregates its local workers, then unicasts
    its partial Result to ``upstream_service_ip`` — the next-level
    aggregator on another device — relying on standard IP forwarding over
    ``uplink_port``.  The final Result multicast from the upstream device
    re-enters through the uplink and is forwarded to the local workers'
    group membership.
    """
    upstream = IPv4Address(upstream_service_ip)
    handle = JobHandle(config=config, aggregators={}, runtimes={})
    _configure_level(handle, pfe, [w.src_id for w in workers], upstream,
                     config.timeout_s if with_detector else None,
                     own_src_id=own_src_id)
    # Partial results ride ordinary unicast routing toward the upstream.
    pfe.add_route(upstream, uplink_port)
    # Final results arriving from upstream multicast to the local workers.
    for worker in workers:
        pfe.multicast.join(config.group_ip, worker_ports[worker.name])
    return handle
