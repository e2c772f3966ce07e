"""In-network straggler detection and mitigation (§5).

Detection uses Trio's timer threads and the hash hardware's per-record
'Recently Referenced' (REF) flag: REF is set when a record is created and
on every lookup.  N timer threads run with an interarrival of
``timeout / N``; each visits 1/N of the aggregation table, checks each
record's REF flag and clears it.  A clear flag means the record has not
been touched for at least one full timer interval — the block has aged
out, so some source is straggling.

Mitigation follows the paper: give up on the straggler(s) and send a
partial aggregation Result to **all** workers (including the stragglers)
with ``age_op`` set, the ``degraded`` bit on, and ``src_cnt`` carrying the
number of sources that did contribute; receivers divide the aggregate by
that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs import bus as _obs
from repro.trio.pfe import PFE
from repro.trio.timers import TimerGroup
from repro.trioml.aggregator import TrioMLAggregator
from repro.trioml.records import BlockRecord

__all__ = ["StragglerDetector"]

#: age_op value signalling the block aged out due to a straggler.
AGE_OP_TIMED_OUT = 1

#: Instructions charged per scanned record (REF test-and-clear + branch).
SCAN_INSTRUCTIONS_PER_RECORD = 2


@dataclass
class MitigationEvent:
    """One aged-out block that was completed partially."""

    time: float
    job_id: int
    block_id: int
    gen_id: int
    rcvd_cnt: int
    waited_s: float


class StragglerDetector:
    """Periodic multi-thread scanning of the aggregation hash table."""

    def __init__(self, aggregator: TrioMLAggregator, num_threads: int = 100,
                 timeout_s: float = 0.010):
        """``num_threads`` parallel timer threads (§6.1 uses N = 100) with
        a shared ``timeout_s`` period (default 10 ms)."""
        if num_threads < 1:
            raise ValueError(f"need at least one scan thread: {num_threads}")
        if timeout_s <= 0:
            raise ValueError(f"timeout must be positive: {timeout_s}")
        self.aggregator = aggregator
        self.num_threads = num_threads
        self.timeout_s = timeout_s
        self.group: Optional[TimerGroup] = None
        self.records_scanned = 0
        self.mitigations: List[MitigationEvent] = []

    @property
    def pfe(self) -> PFE:
        return self.aggregator.pfe

    def start(self) -> TimerGroup:
        """Launch the timer-thread group on the aggregator's PFE."""
        if self.aggregator.pfe is None:
            raise RuntimeError("aggregator is not installed on a PFE")
        self.group = self.pfe.timers.launch_periodic(
            name="trio-ml-straggler",
            num_threads=self.num_threads,
            period_s=self.timeout_s,
            callback=self._scan,
        )
        return self.group

    def stop(self) -> None:
        if self.group is not None:
            self.pfe.timers.cancel(self.group)

    # ------------------------------------------------------------------

    def _scan(self, tctx, thread_index: int):
        """One timer firing: walk this thread's table segment."""
        table = self.pfe.hash_table
        records = yield from table.scan_segment(
            thread_index % self.num_threads, self.num_threads
        )
        for record in records:
            self.records_scanned += 1
            yield from tctx.execute(SCAN_INSTRUCTIONS_PER_RECORD)
            key = record.key
            if not isinstance(key, tuple) or len(key) != 2 or key[1] == -1:
                continue  # job records never age out
            block = record.value
            if not isinstance(block, BlockRecord):
                continue
            if record.ref_flag:
                # Recently referenced: clear and give it another interval.
                record.ref_flag = False
                continue
            if block.completing:
                continue
            # Aged out: the flag was never re-set since our last visit.
            if table.get_nowait(key) is not record:
                continue  # deleted concurrently
            block.completing = True
            block.block_age = min(255, block.block_age + 1)
            yield from self._mitigate(tctx, block)

    def _mitigate(self, tctx, block: BlockRecord):
        """Complete the aged block partially and notify every worker."""
        runtime = self.aggregator.jobs.get(block.job_id)
        if runtime is None:
            return
        now = tctx.now
        result = yield from self.aggregator.generate_result(
            tctx, runtime, block, degraded=True, age_op=AGE_OP_TIMED_OUT
        )
        self.aggregator._emit_result(runtime, result, pctx=None)
        waited_s = now - block.block_start_time / 1e9
        self.mitigations.append(
            MitigationEvent(
                time=now,
                job_id=block.job_id,
                block_id=block.block_id,
                gen_id=block.gen_id,
                rcvd_cnt=block.rcvd_cnt,
                waited_s=waited_s,
            )
        )
        obs = _obs.session()
        if obs is not None:
            obs.observe("trioml.mitigation_latency_s", waited_s)
            obs.probe("trioml.mitigations")
            obs.instant(
                f"mitigate {block.job_id}/{block.block_id}/g{block.gen_id}",
                now, track="trioml/blocks", rcvd_cnt=block.rcvd_cnt)
