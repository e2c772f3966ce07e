"""The Trio-ML aggregation application (§4, Figure 10).

Each aggregation packet is processed by one PPE thread:

1. extract ``job_id``/``block_id`` and look up the block record;
2. if absent, look up the job record and create the block record (with
   its aggregation buffer in the Shared Memory System);
3. duplicate-detect the source via the received-source bitmask (an RMW
   fetch-and-or);
4. aggregate gradients — phase one from the packet head already in LMEM,
   phase two looping over the tail in 64-byte chunks (16 gradients each,
   ≈1.2 run-time instructions per gradient, §6.3), with the summation
   itself performed by the read-modify-write engines;
5. on the last packet of the block, build the Result packet by pulling
   256-byte chunks from the aggregation buffer, delete the block record,
   and launch forwarding (multicast to the workers, or unicast up the
   aggregation hierarchy).

A Result sent to the job's multicast group is final.  Any other Result
is a partial one for the next level up: a first-level aggregator of a
chassis (hierarchical mode, Figure 11b) sends it directly across the
fabric to the top-level PFE, which sees it as just another source, and
one on another device unicasts it by IP forwarding (§4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

import numpy as np

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.headers import HeaderError
from repro.net.packet import Packet
from repro.obs import bus as _obs
from repro.trio.counters import PacketByteCounter
from repro.trio.pfe import PFE, TrioApplication
from repro.trio.ppe import PacketContext, ThreadContext
from repro.trio.rmw import RMWOpKind
from repro.trioml.protocol import (
    TRIO_ML_UDP_PORT,
    TrioMLHeader,
    decode_trio_ml,
)
from repro.trioml.records import BlockRecord, JobRecord

if TYPE_CHECKING:
    from repro.nf.base import StateSpec

__all__ = ["JobRuntime", "TrioMLAggregator"]

#: The tail is aggregated in 64-byte chunks: 16 32-bit gradients (§4).
TAIL_CHUNK_BYTES = 64
#: The Result packet tail is built in 256-byte chunks (§4).
RESULT_CHUNK_BYTES = 256
#: Run-time instructions per aggregated gradient (§6.3: ≈1.2).
INSTRUCTIONS_PER_GRADIENT = 1.2
#: Static size of the aggregation Microcode program (§6.3: ≈60).
STATIC_PROGRAM_INSTRUCTIONS = 60
#: Entries remembered per job to recognise late packets for blocks whose
#: result was already generated (model detail; see DESIGN.md).
COMPLETED_HISTORY = 65536
#: Completed Results kept for loss-recovery replay (§7).
RESULT_CACHE_MAX = 8192


def _tail_loop_cost(tail_grads: int, chunk_grads: int) -> Tuple[int, int]:
    """(chunks, run-time instructions) of Figure 10's tail loop over
    ``tail_grads`` gradients, ``chunk_grads`` per chunk: the full chunks
    cost alike, then one partial chunk holds the rest."""
    full, rest = divmod(tail_grads, chunk_grads)
    instructions = full * math.ceil(chunk_grads * INSTRUCTIONS_PER_GRADIENT)
    if not rest:
        return full, instructions
    return full + 1, instructions + math.ceil(rest * INSTRUCTIONS_PER_GRADIENT)


@dataclass
class JobRuntime:
    """Per-job data-plane runtime state kept alongside the job record."""

    record: JobRecord
    #: Set on a first-level aggregator of a chassis: the top-level PFE its
    #: Results cross the fabric to.
    top_pfe: Optional[str] = None
    #: src_id this aggregator uses when feeding the next level.
    own_src_id: int = 0
    result_src_ip: IPv4Address = IPv4Address(0)
    result_dst_ip: IPv4Address = IPv4Address(0)
    result_src_mac: MACAddress = MACAddress(0)
    result_dst_mac: MACAddress = MACAddress.broadcast()
    gen_id: int = 0
    #: (block_id, gen_id) -> src_cnt of recently completed blocks.
    completed: Dict[Tuple[int, int], int] = field(default_factory=dict)
    blocks_completed: int = 0
    blocks_degraded: int = 0
    #: Loss recovery (§7): cache completed Results so retransmissions for
    #: already-completed blocks get the Result replayed instead of lost.
    loss_recovery: bool = False
    result_cache: Dict[Tuple[int, int], Packet] = field(default_factory=dict)
    results_replayed: int = 0


@dataclass
class BlockStats:
    """Completion record for instrumentation."""

    job_id: int
    block_id: int
    gen_id: int
    start_time: float
    finish_time: float
    degraded: bool
    src_cnt: int


class TrioMLAggregator(TrioApplication):
    """The Trio-ML Microcode program, installed on one PFE."""

    name = "trio-ml"

    #: Instruction charges for the fixed (non-loop) parts of the program.
    PARSE_INSTRUCTIONS = 8
    CREATE_INSTRUCTIONS = 10
    COMPLETE_CHECK_INSTRUCTIONS = 3
    RESULT_CHUNK_INSTRUCTIONS = 4

    def __init__(self, tail_chunk_bytes: int = TAIL_CHUNK_BYTES,
                 result_chunk_bytes: int = RESULT_CHUNK_BYTES):
        if tail_chunk_bytes % 4 or tail_chunk_bytes <= 0:
            raise ValueError("tail chunk must be a positive multiple of 4")
        self.tail_chunk_bytes = tail_chunk_bytes
        self.result_chunk_bytes = result_chunk_bytes
        self.pfe: Optional[PFE] = None
        self.jobs: Dict[int, JobRuntime] = {}
        #: Per-packet time spent in Trio (Fig. 15 instrumentation).
        self.packet_latencies: List[float] = []
        self.block_stats: List[BlockStats] = []
        self.packets_aggregated = 0
        self.gradients_aggregated = 0
        self.duplicates = 0
        self.stale_packets = 0
        self.no_job_drops = 0
        self.block_cap_drops = 0

    # ------------------------------------------------------------------
    # NF wrapper (repro.nf)
    # ------------------------------------------------------------------

    @classmethod
    def nf_state_resources(cls, max_blocks: int, grads_per_block: int,
                           timer_threads: int = 0) -> Tuple["StateSpec", ...]:
        """The aggregation path's state footprint in NF terms.

        This is what :class:`repro.nf.aggregate.AggregateNF` declares to
        the chain compiler: block records in the hash block, one 32-bit
        aggregation slot per gradient (the RMW add32 targets), and the
        drop counter.  ``timer_threads`` > 0 adds the straggler-timeout
        sweep threads.  Imported lazily — :mod:`repro.nf` wraps this
        module, so a top-level import would be circular.
        """
        from repro.nf.base import (
            STATE_COUNTER,
            STATE_HASH_ENTRIES,
            STATE_REGISTER_ARRAY,
            STATE_TIMER_THREADS,
            StateSpec,
        )

        specs = [
            StateSpec(STATE_HASH_ENTRIES, "blocks", entries=max_blocks,
                      width_bits=64),
            StateSpec(STATE_REGISTER_ARRAY, "agg_buffers",
                      entries=max_blocks * grads_per_block, width_bits=32),
            StateSpec(STATE_COUNTER, "drops", entries=1, width_bits=64),
        ]
        if timer_threads:
            specs.append(
                StateSpec(STATE_TIMER_THREADS, "straggler_sweep",
                          threads=timer_threads)
            )
        return tuple(specs)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def on_install(self, pfe: PFE) -> None:
        self.pfe = pfe
        self.drop_counter = PacketByteCounter(pfe.memory)
        obs = _obs.session()
        if obs is not None:
            obs.register_collector(self._obs_collect)

    def _obs_collect(self, registry) -> None:
        """Export the aggregator's own counters (runs once at finalize)."""
        pfe = self.pfe.name if self.pfe is not None else "?"
        counts = registry.counter(
            "trioml.packets", "aggregation packets by outcome",
            ("outcome", "pfe"))
        counts.inc(self.packets_aggregated, outcome="aggregated", pfe=pfe)
        counts.inc(self.duplicates, outcome="duplicate", pfe=pfe)
        counts.inc(self.stale_packets, outcome="stale", pfe=pfe)
        counts.inc(self.no_job_drops, outcome="no_job_drop", pfe=pfe)
        counts.inc(self.block_cap_drops, outcome="block_cap_drop", pfe=pfe)
        registry.counter(
            "trioml.gradients_aggregated", "gradients summed by the RMW "
            "engines", ("pfe",)
        ).inc(self.gradients_aggregated, pfe=pfe)

    def configure_job(self, runtime: JobRuntime) -> JobRuntime:
        """Install a job: allocate and pack its record, insert the hash
        entry keyed ``(job_id, -1)`` (Figure 9)."""
        record = runtime.record
        record.paddr = self.pfe.memory.alloc(JobRecord.SIZE, region="sram")
        self.pfe.memory.write_raw(record.paddr, record.pack())
        self.pfe.hash_table.insert_nowait((record.job_id, -1), runtime)
        self.jobs[record.job_id] = runtime
        return runtime

    # ------------------------------------------------------------------
    # Data plane (Figure 10 workflow)
    # ------------------------------------------------------------------

    def handle_packet(self, tctx: ThreadContext, pctx: PacketContext):
        yield from tctx.execute(self.PARSE_INSTRUCTIONS)
        try:
            __, ip, udp, payload = pctx.packet.parse_udp()
        except HeaderError:
            pctx.forward()
            return
        if udp.dst_port != TRIO_ML_UDP_PORT:
            # Not an aggregation packet: standard forwarding path.
            yield from tctx.execute(2)
            pctx.forward()
            return
        header, gradients = decode_trio_ml(payload)
        if header.final:
            # A final Result packet in transit (multi-device hierarchy,
            # §4): standard IP/multicast forwarding delivers it.
            yield from tctx.execute(2)
            pctx.forward()
            return
        key = (header.job_id, header.block_id)

        hash_rec = yield from tctx.hash_lookup(key)
        block: Optional[BlockRecord] = (
            hash_rec.value if hash_rec is not None else None
        )
        if block is None:
            job_rec = yield from tctx.hash_lookup((header.job_id, -1))
            if job_rec is None:
                # Through the thread context so deferred execute charges
                # fold into the XTXN (keeps RMW arrival times identical
                # to eager charging).
                yield from tctx.counter_inc(
                    self.drop_counter.addr, pctx.length
                )
                self.no_job_drops += 1
                pctx.drop()
                return
            runtime: JobRuntime = job_rec.value
            if (header.block_id, header.gen_id) in runtime.completed:
                # Late packet for an already-completed block: either the
                # sender straggled past the timeout, or its Result was
                # lost and this is a retransmission.  With loss recovery
                # enabled, replay the cached Result (§7).
                cached = runtime.result_cache.get(
                    (header.block_id, header.gen_id)
                ) if runtime.loss_recovery else None
                if cached is not None:
                    yield from tctx.execute(2)
                    runtime.results_replayed += 1
                    self._emit_result(runtime, cached.copy(), pctx)
                self.stale_packets += 1
                pctx.consume()
                return
            block = yield from self._create_block(tctx, runtime, header)
            if block is None:
                pctx.drop()
                return
        else:
            runtime = self.jobs.get(header.job_id)
            if runtime is None:
                pctx.drop()
                return
        if header.gen_id < block.gen_id:
            self.stale_packets += 1
            pctx.consume()
            return

        # Duplicate detection: fetch-and-or of this source's bit into the
        # received-source bitmask (serialised by the owning RMW engine).
        word_index, bit = divmod(header.src_id, 64)
        mask_addr = block.hot_paddr + 8 + 8 * word_index
        old_mask = yield from tctx.mem_fetch_and_op(
            RMWOpKind.FETCH_AND_OR, mask_addr, 1 << bit
        )
        if old_mask & (1 << bit):
            self.duplicates += 1
            pctx.consume()
            return
        block.rcvd_mask |= 1 << (header.src_id)
        block.contrib_cnt += header.src_cnt or 1
        if header.degraded:
            block.any_degraded = True
        block.max_age_op = max(block.max_age_op, header.age_op)

        yield from self._aggregate_gradients(tctx, pctx, block, gradients)

        # Completion check: RMW-increment the received-source count.
        yield from tctx.execute(self.COMPLETE_CHECK_INSTRUCTIONS)
        old_cnt = yield from tctx.mem_add32(block.hot_paddr, 1)
        block.rcvd_cnt = old_cnt + 1
        if block.rcvd_cnt >= runtime.record.src_cnt and not block.completing:
            block.completing = True
            result = yield from self.generate_result(
                tctx, runtime, block, degraded=False
            )
            self._emit_result(runtime, result, pctx)
        pctx.consume()
        latency = tctx.now - pctx.arrival_time
        self.packet_latencies.append(latency)
        obs = _obs.session()
        if obs is not None:
            obs.observe("trioml.packet_latency_s", latency,
                        pfe=self.pfe.name)

    def _create_block(self, tctx: ThreadContext, runtime: JobRuntime,
                      header: TrioMLHeader) -> Optional[BlockRecord]:
        """Insert a block record and initialise its aggregation buffer."""
        record = runtime.record
        if header.grad_cnt > record.block_grad_max:
            self.no_job_drops += 1
            return None
        if record.block_curr_cnt >= record.block_cnt_max:
            # Memory sharing across jobs: each job caps its concurrent
            # aggregation blocks (block_cnt_max, Figure 17).  The sender
            # will retry once earlier blocks complete.
            self.block_cap_drops += 1
            return None
        # Reserve the slot before any suspension (models a fetch-and-add
        # on the job record, so concurrent creations cannot overshoot).
        record.block_curr_cnt += 1
        yield from tctx.execute(self.CREATE_INSTRUCTIONS)
        memory = self.pfe.memory
        buf_bytes = 4 * header.grad_cnt
        aggr_paddr = memory.alloc(buf_bytes, region="dram")
        hot_paddr = memory.alloc(BlockRecord.HOT_SIZE, region="sram", align=8)
        block = BlockRecord(
            job_id=header.job_id,
            block_id=header.block_id,
            gen_id=header.gen_id,
            grad_cnt=header.grad_cnt,
            block_exp_ms=record.block_exp_ms,
            block_start_time=int(tctx.now * 1e9),
            job_ctx_paddr=record.paddr,
            aggr_paddr=aggr_paddr,
        )
        block.paddr = memory.alloc(BlockRecord.SIZE, region="sram")
        block.hot_paddr = hot_paddr
        hash_rec, created = yield from tctx.hash_insert_if_absent(
            (header.job_id, header.block_id), block
        )
        if not created:
            # Another thread won the race; release what we allocated.
            record.block_curr_cnt -= 1
            memory.free(aggr_paddr, buf_bytes)
            memory.free(hot_paddr, BlockRecord.HOT_SIZE)
            memory.free(block.paddr, BlockRecord.SIZE)
            return hash_rec.value
        # Init Agg Buffer + write the packed record (Figure 10).
        memory.write_raw(hot_paddr, bytes(BlockRecord.HOT_SIZE))
        yield from tctx.mem_bulk_write(aggr_paddr, bytes(min(buf_bytes, 4096)))
        if buf_bytes > 4096:
            memory.write_raw(aggr_paddr, bytes(buf_bytes))
        memory.write_raw(block.paddr, block.pack())
        record.block_total_cnt += 1
        obs = _obs.session()
        if obs is not None:
            obs.probe("trioml.blocks_created", pfe=self.pfe.name)
            obs.instant(
                f"create {block.job_id}/{block.block_id}/g{block.gen_id}",
                tctx.now, track="trioml/blocks")
        return block

    def _aggregate_gradients(self, tctx: ThreadContext, pctx: PacketContext,
                             block: BlockRecord, gradients: np.ndarray):
        """Figure 10's two aggregation phases.

        Phase one covers the gradients whose bytes arrived in the packet
        head (already in LMEM); phase two loops over the tail in 64-byte
        chunks, each pulled from the Memory and Queueing Subsystem by an
        XTXN.  The adds themselves are performed by the RMW engines.
        """
        n = len(gradients)
        header_bytes = 14 + 20 + 8 + TrioMLHeader.SIZE
        head_payload = max(0, self.pfe.config.head_size_bytes - header_bytes)
        head_grads = min(n, head_payload // 4)
        instructions = 0
        if head_grads:
            instructions += math.ceil(head_grads * INSTRUCTIONS_PER_GRADIENT)
        num_chunks, tail_instructions = _tail_loop_cost(
            n - head_grads, self.tail_chunk_bytes // 4)
        instructions += tail_instructions
        if num_chunks:
            # First chunk through the byte-copying path (keeps the LMEM
            # behaviour observable); the rest as lumped equivalent latency.
            yield from tctx.read_tail(0, self.tail_chunk_bytes)
            yield from tctx.read_tail_chunks(num_chunks - 1)
        yield from tctx.execute(instructions)
        yield from tctx.mem_bulk_add32(block.aggr_paddr, gradients)
        self.packets_aggregated += 1
        self.gradients_aggregated += n

    # ------------------------------------------------------------------
    # Result generation (shared with the straggler detector)
    # ------------------------------------------------------------------

    def generate_result(self, tctx: ThreadContext, runtime: JobRuntime,
                        block: BlockRecord, degraded: bool,
                        age_op: int = 0) -> Packet:
        """Build the Result packet and delete the block record.

        Generator returning the ready-to-send packet.  The caller decides
        how to launch forwarding (packet thread emits through the Reorder
        Engine; timer threads transmit directly).
        """
        memory = self.pfe.memory
        n_bytes = 4 * block.grad_cnt
        # The Figure 10 result loop pulls the buffer 256 bytes at a time;
        # per-chunk access latencies are sequential and unconditioned, so
        # they are charged lumped on the thread clock (timing-equivalent;
        # see read_tail_chunks).
        n_chunks = math.ceil(n_bytes / self.result_chunk_bytes)
        aggregated = yield from tctx.mem_bulk_read(block.aggr_paddr, n_bytes)
        if n_chunks > 1:
            tctx.advance(
                (n_chunks - 1)
                * memory.access_latency_s(block.aggr_paddr, n_bytes)
            )
        yield from tctx.execute(n_chunks * self.RESULT_CHUNK_INSTRUCTIONS)

        degraded = degraded or block.any_degraded
        src_cnt = block.contrib_cnt
        header = TrioMLHeader(
            job_id=block.job_id,
            block_id=block.block_id,
            src_id=runtime.own_src_id,
            grad_cnt=block.grad_cnt,
            gen_id=block.gen_id,
            age_op=max(age_op, block.max_age_op),
            final=runtime.result_dst_ip.is_multicast,
            degraded=degraded,
            src_cnt=src_cnt,
        )
        payload = header.pack() + bytes(aggregated)
        result = Packet.udp(
            src_mac=runtime.result_src_mac,
            dst_mac=runtime.result_dst_mac,
            src_ip=runtime.result_src_ip,
            dst_ip=runtime.result_dst_ip,
            src_port=TRIO_ML_UDP_PORT,
            dst_port=TRIO_ML_UDP_PORT,
            payload=payload,
        )

        # Delete Block Record; free the aggregation buffer (Figure 10).
        yield from tctx.hash_delete((block.job_id, block.block_id))
        memory.free(block.aggr_paddr, n_bytes)
        memory.free(block.hot_paddr, BlockRecord.HOT_SIZE)
        memory.free(block.paddr, BlockRecord.SIZE)
        runtime.record.block_curr_cnt -= 1
        runtime.completed[(block.block_id, block.gen_id)] = src_cnt
        if len(runtime.completed) > COMPLETED_HISTORY:
            oldest = next(iter(runtime.completed))
            del runtime.completed[oldest]
            runtime.result_cache.pop(oldest, None)
        if runtime.loss_recovery:
            runtime.result_cache[(block.block_id, block.gen_id)] = result
            if len(runtime.result_cache) > RESULT_CACHE_MAX:
                runtime.result_cache.pop(next(iter(runtime.result_cache)))
        runtime.blocks_completed += 1
        if degraded:
            runtime.blocks_degraded += 1
        start_time = block.block_start_time / 1e9
        self.block_stats.append(
            BlockStats(
                job_id=block.job_id,
                block_id=block.block_id,
                gen_id=block.gen_id,
                start_time=start_time,
                finish_time=tctx.now,
                degraded=degraded,
                src_cnt=src_cnt,
            )
        )
        obs = _obs.session()
        if obs is not None:
            obs.complete(
                f"block {block.job_id}/{block.block_id}/g{block.gen_id}",
                start_time, tctx.now, track="trioml/blocks",
                degraded=degraded, src_cnt=src_cnt)
            obs.observe("trioml.block_latency_s", tctx.now - start_time,
                        degraded=degraded)
            obs.probe("trioml.blocks_completed", degraded=degraded)
        return result

    def _emit_result(self, runtime: JobRuntime, result: Packet,
                     pctx: Optional[PacketContext]) -> None:
        """Launch forwarding for a Result packet."""
        if runtime.top_pfe is not None:
            # Feed the top-level aggregator PFE directly over the fabric,
            # without IP forwarding (§4, hierarchical aggregation).
            self.pfe.router.send_to_pfe(result, self.pfe.name, runtime.top_pfe)
            return
        if pctx is not None:
            pctx.emit(result)
        else:
            self.pfe.transmit(result)
