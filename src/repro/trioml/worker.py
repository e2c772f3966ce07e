"""The Trio-ML end host (§6.1).

Workers stream gradients to the router with DPDK-style UDP packets: the
model's gradient vector is split into *blocks* (up to 1024 gradients, one
packet per block per worker), and a ``window`` parameter bounds the
number of outstanding blocks awaiting aggregation.  Result packets arrive
by multicast; a degraded result (straggler mitigation, §5) carries
``src_cnt`` so receivers can divide the partial aggregate by the number
of contributors — and a worker receiving a result for a block it has not
sent yet (because it is the straggler) abandons that stale send and moves
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.headers import HeaderError
from repro.net.host import Host
from repro.sim import Environment
from repro.trioml.protocol import (
    MAX_GRADIENTS_PER_PACKET,
    TRIO_ML_UDP_PORT,
    TrioMLHeader,
    decode_trio_ml,
    encode_trio_ml,
)

__all__ = ["BlockResult", "TrioMLWorker"]


@dataclass
class BlockResult:
    """One aggregated block as received by a worker."""

    block_id: int
    values: List[int]
    src_cnt: int
    degraded: bool
    gen_id: int

    def mean(self) -> List[float]:
        """Per-gradient mean over the sources that contributed."""
        if self.src_cnt == 0:
            return [0.0] * len(self.values)
        return [value / self.src_cnt for value in self.values]


@dataclass
class _AllreduceState:
    """Bookkeeping of one in-progress allreduce call."""

    num_blocks: int
    gen: int
    results: Dict[int, BlockResult] = None
    sent: set = None
    outstanding: int = 0
    next_idx: int = 0
    done: bool = False

    def __post_init__(self):
        self.results = {}
        self.sent = set()


class TrioMLWorker(Host):
    """One training worker speaking the Trio-ML protocol."""

    def __init__(
        self,
        env: Environment,
        name: str,
        src_id: int,
        job_id: int,
        mac: MACAddress,
        ip: IPv4Address,
        router_mac: MACAddress,
        service_ip: IPv4Address,
        grads_per_packet: int = MAX_GRADIENTS_PER_PACKET,
        window: int = 4096,
        straggle_hook: Optional[Callable[[int], float]] = None,
        retransmit_timeout_s: Optional[float] = None,
    ):
        """``service_ip`` is the router address aggregation packets are
        sent to; ``straggle_hook(block_id)`` may return seconds of delay
        injected before sending that block (straggler generation).

        ``retransmit_timeout_s`` enables loss recovery (§7): blocks whose
        result has not arrived within the timeout are re-sent.  The
        paper's experiments run with retransmission *disabled* (it causes
        spurious retransmissions during straggling periods, §6.1), so the
        default is None.
        """
        super().__init__(env, name=name, mac=mac, ip=ip)
        if not 1 <= grads_per_packet <= MAX_GRADIENTS_PER_PACKET:
            raise ValueError(
                f"gradients per packet must be 1..{MAX_GRADIENTS_PER_PACKET}"
            )
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.src_id = src_id
        self.job_id = job_id
        self.router_mac = MACAddress(router_mac)
        self.service_ip = IPv4Address(service_ip)
        self.grads_per_packet = grads_per_packet
        self.window = window
        self.straggle_hook = straggle_hook
        self.retransmit_timeout_s = retransmit_timeout_s
        self.retransmissions = 0
        self.gen_id = 0
        self.blocks_sent = 0
        self.blocks_skipped = 0
        self.results_received = 0
        self.degraded_results = 0
        #: (gen, block_id) -> simulation time, for latency instrumentation.
        self.send_times: Dict[tuple, float] = {}
        self.result_times: Dict[tuple, float] = {}

    # ------------------------------------------------------------------

    def split_blocks(self, gradients: Sequence[int]) -> List[List[int]]:
        """Chunk a gradient vector into per-packet blocks (last one padded)."""
        per = self.grads_per_packet
        blocks: List[List[int]] = []
        for start in range(0, len(gradients), per):
            block = list(gradients[start:start + per])
            if len(block) < per:
                block.extend([0] * (per - len(block)))
            blocks.append(block)
        return blocks

    def allreduce(self, gradients: Sequence[int]):
        """Aggregate ``gradients`` across the job's workers.

        Process generator: the process's value is the ordered list of
        :class:`BlockResult` (one per block; degraded entries flagged).
        """
        self.gen_id = (self.gen_id + 1) & 0xFFFF
        gen = self.gen_id
        blocks = self.split_blocks(gradients)
        state = _AllreduceState(num_blocks=len(blocks), gen=gen)
        retransmitter = None
        if self.retransmit_timeout_s:
            retransmitter = self.env.process(
                self._retransmit_loop(state, blocks, gen),
                name=f"{self.name}:retx",
            )

        while len(state.results) < state.num_blocks:
            # Fill the window with fresh sends.
            while (state.next_idx < state.num_blocks
                   and state.outstanding < self.window):
                block_id = state.next_idx
                state.next_idx += 1
                if self.straggle_hook is not None:
                    delay = self.straggle_hook(block_id)
                    if delay and delay > 0:
                        yield self.env.delay(delay)
                        self._drain_inbox(state)
                if block_id in state.results:
                    # The block aged out while we were straggling; its
                    # partial result already arrived — abandon the send.
                    self.blocks_skipped += 1
                    continue
                yield from self._send_block(block_id, gen, blocks[block_id])
                state.sent.add(block_id)
                state.outstanding += 1
            if len(state.results) >= state.num_blocks:
                break
            packet = yield self.recv()
            self._record(packet, state)
        state.done = True
        if retransmitter is not None and retransmitter.is_alive:
            retransmitter.interrupt("allreduce complete")
        return [state.results[i] for i in range(state.num_blocks)]

    def _retransmit_loop(self, state: "_AllreduceState", blocks, gen: int):
        """Loss recovery (§7): resend blocks whose result never arrived.

        The aggregator deduplicates retransmissions via the block's
        received-source bitmask and replays cached Results for blocks
        that already completed.
        """
        from repro.sim import Interrupt

        timeout = self.retransmit_timeout_s
        try:
            while not state.done:
                yield self.env.delay(timeout)
                now = self.env.now
                stale = [
                    block_id for block_id in state.sent
                    if block_id not in state.results
                    and now - self.send_times.get((gen, block_id), now)
                    >= timeout
                ]
                for block_id in stale:
                    self.retransmissions += 1
                    yield from self._send_block(block_id, gen,
                                                blocks[block_id])
        except Interrupt:
            return

    def _drain_inbox(self, state: "_AllreduceState") -> None:
        """Consume already-queued result packets without blocking."""
        while True:
            packet = self.inbox.try_get()
            if packet is None:
                return
            self._record(packet, state)

    def _record(self, packet, state: "_AllreduceState") -> None:
        result = self._parse_result(packet, state.gen, state.num_blocks)
        if result is None or result.block_id in state.results:
            return
        state.results[result.block_id] = result
        self.result_times[(state.gen, result.block_id)] = self.env.now
        self.results_received += 1
        if result.degraded:
            self.degraded_results += 1
        if result.block_id in state.sent:
            state.outstanding -= 1

    def _send_block(self, block_id: int, gen: int, values: List[int]):
        header = TrioMLHeader(
            job_id=self.job_id,
            block_id=block_id,
            src_id=self.src_id,
            grad_cnt=len(values),
            gen_id=gen,
        )
        payload = encode_trio_ml(header, values)
        self.blocks_sent += 1
        self.send_times[(gen, block_id)] = self.env.now
        yield self.send_udp(
            dst_mac=self.router_mac,
            dst_ip=self.service_ip,
            src_port=TRIO_ML_UDP_PORT,
            dst_port=TRIO_ML_UDP_PORT,
            payload=payload,
        )

    def _parse_result(self, packet, gen: int,
                      num_blocks: int) -> Optional[BlockResult]:
        try:
            __, __, udp, payload = packet.parse_udp()
        except HeaderError:
            return None
        if udp.dst_port != TRIO_ML_UDP_PORT:
            return None
        try:
            header, values = decode_trio_ml(payload)
        except ValueError:
            return None
        if header.job_id != self.job_id or not header.final:
            return None
        if header.gen_id != gen or header.block_id >= num_blocks:
            return None
        return BlockResult(
            block_id=header.block_id,
            values=values,
            src_cnt=header.src_cnt,
            degraded=header.degraded,
            gen_id=header.gen_id,
        )
