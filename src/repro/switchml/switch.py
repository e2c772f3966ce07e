"""The SwitchML aggregation program on the PISA pipeline.

Aggregation state is a pool of slots spread over per-stage register
arrays: stage 0 holds the per-slot contribution count and worker bitmap;
the remaining stages hold the gradient value registers (at most
``StageContext.MAX_ACCESSES_PER_STAGE`` per stage, as on hardware).  A
64-gradient slot just fits one 12-stage pipeline; 256 gradients require
chaining four pipelines, each owning a 64-gradient segment — matching the
paper's observation that SwitchML-256 "consumes the resources of all four
pipelines" (§6.1).

Semantics (the part Figures 12/13 hinge on): a slot produces its result
only when **all** ``num_workers`` have contributed.  There are no timers
— nothing happens between packets — so a straggling worker stalls its
slots indefinitely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.headers import HeaderError
from repro.net.packet import Packet
from repro.obs import bus as _obs
from repro.pisa.pipeline import P4Program, PassResult, StageContext
from repro.pisa.tofino import TofinoSwitch
from repro.sim import Environment
from repro.switchml.protocol import (
    SWITCHML_UDP_PORT,
    SwitchMLHeader,
    decode_switchml,
    encode_switchml,
)

__all__ = ["SwitchMLJob", "SwitchMLProgram", "build_switchml_switch"]

#: Egress-hint prefix routing a packet into the next pipeline of a chain.
CHAIN_PREFIX = "__chain__"


@dataclass
class SwitchMLJob:
    """Control-plane configuration shared by all pipelines of one job."""

    num_workers: int
    pool_size: int
    grads_per_packet: int
    #: worker_id -> (ip, mac); used to unicast result packets.
    workers: Dict[int, Tuple[IPv4Address, MACAddress]] = field(
        default_factory=dict
    )
    switch_ip: IPv4Address = IPv4Address("10.0.0.254")
    switch_mac: MACAddress = MACAddress(0xFE)
    #: Ordered pipeline indices forming the aggregation chain.
    chain: List[int] = field(default_factory=lambda: [0])

    def add_worker(self, worker_id: int, ip: IPv4Address,
                   mac: MACAddress) -> None:
        if worker_id >= 32:
            raise ValueError("worker bitmap register is 32 bits wide")
        self.workers[worker_id] = (IPv4Address(ip), MACAddress(mac))

    @property
    def segment_size(self) -> int:
        """Gradients handled per pipeline of the chain."""
        return self.grads_per_packet // len(self.chain)


class SwitchMLProgram(P4Program):
    """One pipeline's share of the SwitchML aggregation job."""

    name = "switchml"

    def __init__(self, job: SwitchMLJob, chain_position: int):
        super().__init__()
        self.job = job
        self.chain_position = chain_position
        self.is_first = chain_position == 0
        self.is_last = chain_position == len(job.chain) - 1
        segment = job.segment_size
        if job.grads_per_packet % len(job.chain) != 0:
            raise ValueError(
                "gradients per packet must divide evenly across the chain"
            )
        self.grad_offset = chain_position * segment
        self.segment_size = segment
        self.results_emitted = 0
        self.duplicates_dropped = 0
        #: Slot -> open timestamp of slots waiting on more contributions.
        self._slot_open_ts: Dict[int, float] = {}

    def on_install(self, pipeline) -> None:
        obs = _obs.session()
        if obs is not None and (self.is_first or self.is_last):
            obs.register_collector(self._obs_collect)
        pool = self.job.pool_size
        stage = 0
        accesses_left = StageContext.MAX_ACCESSES_PER_STAGE
        if self.is_first:
            self.count_reg = self.register("count", stage, pool)
            self.bitmap_reg = self.register("bitmap", stage, pool)
            accesses_left -= 2
        self.value_regs = []
        for k in range(self.segment_size):
            if accesses_left == 0:
                stage += 1
                accesses_left = StageContext.MAX_ACCESSES_PER_STAGE
            self.value_regs.append(
                self.register(f"value_{k}", stage, pool)
            )
            accesses_left -= 1

    # ------------------------------------------------------------------

    def process(self, ctx: StageContext, packet: Packet,
                pass_index: int) -> PassResult:
        try:
            __, ip, udp, payload = packet.parse_udp()
        except HeaderError:
            return PassResult(emit=[(packet, None)])  # plain L3 traffic
        if udp.dst_port != SWITCHML_UDP_PORT:
            return PassResult(emit=[(packet, None)])
        header, gradients = decode_switchml(payload)
        if header.is_result:
            return PassResult(emit=[(packet, None)])
        slot = header.pool_index % self.job.pool_size

        complete = packet.meta.get("switchml_complete", False)
        if self.is_first:
            ctx.stage(0)
            num_workers = self.job.num_workers
            bit = 1 << header.worker_id
            old_bitmap, __ = ctx.read_modify_write(
                self.bitmap_reg, slot, lambda old: old | bit
            )
            if old_bitmap & bit:
                # Duplicate contribution (retransmission): ignore it.
                self.duplicates_dropped += 1
                return PassResult(dropped=True)
            old_count, __ = ctx.read_modify_write(
                self.count_reg, slot,
                lambda old: 0 if old + 1 >= num_workers else old + 1,
            )
            complete = old_count + 1 >= num_workers
            if complete:
                # The completing packet recycles the slot (the open-source
                # design achieves this with two alternating pools).
                self.bitmap_reg.write_raw(slot, 0)
            packet.meta["switchml_complete"] = complete
            packet.meta.setdefault("switchml_result", {})
            obs = _obs.session()
            if obs is not None:
                now = self.pipeline.env.now
                if old_bitmap == 0:
                    self._slot_open_ts[slot] = now
                if complete:
                    opened = self._slot_open_ts.pop(slot, now)
                    obs.complete(f"slot {slot}", opened, now,
                                 track="switchml/slots",
                                 pool_index=header.pool_index)
                    obs.observe("switchml.slot_fill_s", now - opened)
                    obs.probe("switchml.results")
                obs.sample("switchml.slots_stalled", now,
                           len(self._slot_open_ts))

        # Aggregate this pipeline's gradient segment.
        result_values = packet.meta.get("switchml_result", {})
        for k, reg in enumerate(self.value_regs):
            ctx.stage(reg.stage)
            grad_index = self.grad_offset + k
            contribution = gradients[grad_index] & 0xFFFFFFFF
            if complete:
                old, __ = ctx.read_modify_write(
                    reg, slot, lambda old: 0
                )
                result_values[grad_index] = (old + contribution) & 0xFFFFFFFF
            else:
                ctx.read_modify_write(
                    reg, slot,
                    lambda old, c=contribution: (old + c) & 0xFFFFFFFF,
                )

        if not self.is_last:
            next_pipe = self.job.chain[self.chain_position + 1]
            return PassResult(emit=[(packet, f"{CHAIN_PREFIX}{next_pipe}")])
        if not complete:
            return PassResult(dropped=True)
        return PassResult(emit=self._build_results(header, result_values))

    def _obs_collect(self, registry) -> None:
        """Export the counters this program owns (runs once at finalize).

        The last program of the chain emits the results; the first
        keeps the worker bitmaps and slot-open times.
        """
        pipe = str(self.chain_position)
        if self.is_last:
            registry.counter(
                "switchml.results_emitted", "completed pool slots",
                ("pipeline",)
            ).inc(self.results_emitted, pipeline=pipe)
        if self.is_first:
            registry.counter(
                "switchml.duplicates_dropped", "retransmissions ignored",
                ("pipeline",)
            ).inc(self.duplicates_dropped, pipeline=pipe)
            registry.gauge(
                "switchml.slots_stalled",
                "slots still waiting on a contribution at finalize",
                ("pipeline",)
            ).set(len(self._slot_open_ts), pipeline=pipe)

    def _build_results(self, header: SwitchMLHeader,
                       result_values: Dict[int, int]
                       ) -> List[Tuple[Packet, Optional[str]]]:
        """Unicast the aggregated chunk back to every worker."""
        self.results_emitted += 1
        gradients = [
            result_values[i] - 0x1_0000_0000
            if result_values[i] >= 0x8000_0000 else result_values[i]
            for i in range(self.job.grads_per_packet)
        ]
        result_header = SwitchMLHeader(
            pool_index=header.pool_index,
            worker_id=0xFF,
            num_workers=self.job.num_workers,
            chunk_id=header.chunk_id,
            grad_cnt=self.job.grads_per_packet,
            is_result=True,
        )
        payload = encode_switchml(result_header, gradients)
        out = []
        for __, (ip, mac) in sorted(self.job.workers.items()):
            out.append((
                Packet.udp(
                    src_mac=self.job.switch_mac,
                    dst_mac=mac,
                    src_ip=self.job.switch_ip,
                    dst_ip=ip,
                    src_port=SWITCHML_UDP_PORT,
                    dst_port=SWITCHML_UDP_PORT,
                    payload=payload,
                ),
                None,
            ))
        return out


def build_switchml_switch(
    env: Environment,
    job: SwitchMLJob,
    **switch_kwargs,
) -> Tuple[TofinoSwitch, List[SwitchMLProgram]]:
    """Construct a Tofino switch with the job's pipelines programmed.

    Pipelines named in ``job.chain`` each get their own
    :class:`SwitchMLProgram` instance handling one gradient segment;
    chain hops are wired through the switch's loopback path.
    """
    switch = TofinoSwitch(env, **switch_kwargs)
    programs: List[SwitchMLProgram] = []
    for position, pipe_index in enumerate(job.chain):
        program = SwitchMLProgram(job, chain_position=position)
        switch.install(pipe_index, program)
        programs.append(program)

    original_emit = switch._emit

    def emit(packet: Packet, egress: Optional[str]) -> None:
        if egress is not None and egress.startswith(CHAIN_PREFIX):
            next_pipe = int(egress[len(CHAIN_PREFIX):])
            switch.pipelines[next_pipe].submit(packet)
            return
        original_emit(packet, egress)

    for pipeline in switch.pipelines:
        pipeline.set_emit_handler(emit)
    return switch, programs
