"""Trio-ML job and block records (Appendix A.1, Figures 17 and 18).

Both records are 58 bytes and live in the Shared Memory System; the hash
table maps ``(job_id, -1)`` to the job record and ``(job_id, block_id)``
to block records (Figure 9).  The Python objects mirror the packed state
for convenient manipulation; :meth:`pack`/:meth:`unpack` give the exact
wire/memory layout, and the aggregator additionally keeps each record's
*hot fields* (received-source count and bitmasks) in an aligned
shared-memory scratch area so the RMW engines can update them with
ordinary 8-byte operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.microcode.layout import StructLayout

__all__ = ["BlockRecord", "JobRecord", "JOB_RECORD_LAYOUT",
           "BLOCK_RECORD_LAYOUT"]

#: Figure 17, verbatim field widths — 58 bytes.
JOB_RECORD_LAYOUT = StructLayout(
    "trio_ml_job_ctx_t",
    [
        ("block_curr_cnt", 16),   # current number of active blocks
        ("block_cnt_max", 12),    # maximum number of concurrent blocks
        ("block_grad_max", 12),   # maximum number of gradients per block
        ("block_exp", 8),         # block timeout interval in ms
        ("block_total_cnt", 32),  # job's cumulative blocks count
        ("out_src_addr", 32),     # Result packet source IP
        ("out_dst_addr", 32),     # Result packet destination IP
        ("out_nh_addr", 32),      # pointer to egress forward chain
        (None, 24),               # unused for byte alignment
        ("src_cnt", 8),           # number of ML sources in the job
        ("src_mask_0", 64),       # bitmask field for job's sources
        ("src_mask_1", 64),
        ("src_mask_2", 64),
        ("src_mask_3", 64),
    ],
)

#: Figure 18, verbatim field widths — 58 bytes.
BLOCK_RECORD_LAYOUT = StructLayout(
    "trio_ml_block_ctx_t",
    [
        ("block_exp", 8),          # block timeout interval in ms
        ("block_age", 8),          # age of the current block
        ("block_start_time", 64),  # start time of the current block
        ("job_ctx_paddr", 32),     # pointer to the job record
        ("aggr_paddr", 32),        # pointer to the aggregation buffer
        (None, 20),                # unused for byte alignment
        ("grad_cnt", 12),          # number of gradients in the block
        (None, 24),                # unused for byte alignment
        ("rcvd_cnt", 8),           # number of received ML sources
        ("rcvd_mask_0", 64),       # bitmask field for received sources
        ("rcvd_mask_1", 64),
        ("rcvd_mask_2", 64),
        ("rcvd_mask_3", 64),
    ],
)

assert JOB_RECORD_LAYOUT.size_bytes == 58, "Figure 17 says 58 bytes"
assert BLOCK_RECORD_LAYOUT.size_bytes == 58, "Figure 18 says 58 bytes"

#: (shift, mask) of the fields :meth:`BlockRecord.pack` writes, in its
#: order, so a pack is one pass with no keyword dict.
_BLOCK_PACK_FIELDS = tuple(BLOCK_RECORD_LAYOUT.shift_mask(name) for name in (
    "block_exp", "block_age", "block_start_time", "job_ctx_paddr",
    "aggr_paddr", "grad_cnt", "rcvd_cnt",
    "rcvd_mask_0", "rcvd_mask_1", "rcvd_mask_2", "rcvd_mask_3",
))


def _split_mask(mask: int) -> List[int]:
    """Split a wide bitmask into four 64-bit words (word 0 = sources 0-63)."""
    return [(mask >> (64 * i)) & (2**64 - 1) for i in range(4)]


def _join_mask(words: Sequence[int]) -> int:
    accum = 0
    for i, word in enumerate(words):
        accum |= (word & (2**64 - 1)) << (64 * i)
    return accum


@dataclass
class JobRecord:
    """Control-plane job record (Figure 17), created at job configuration
    time and persisting until the job is complete."""

    job_id: int
    src_cnt: int
    src_mask: int                 # combined 256-bit participation mask
    block_grad_max: int
    block_exp_ms: int
    out_src_addr: int = 0         # Result packet source IP (as int)
    out_dst_addr: int = 0         # Result packet destination IP (as int)
    out_nh_addr: int = 0          # pointer to egress forward chain
    block_cnt_max: int = 4095
    block_curr_cnt: int = 0
    block_total_cnt: int = 0
    #: Address of the packed record in the Shared Memory System.
    paddr: int = 0

    SIZE = JOB_RECORD_LAYOUT.size_bytes

    def pack(self) -> bytes:
        words = _split_mask(self.src_mask)
        return JOB_RECORD_LAYOUT.pack(
            block_curr_cnt=self.block_curr_cnt,
            block_cnt_max=self.block_cnt_max,
            block_grad_max=self.block_grad_max,
            block_exp=self.block_exp_ms,
            block_total_cnt=self.block_total_cnt & 0xFFFFFFFF,
            out_src_addr=self.out_src_addr,
            out_dst_addr=self.out_dst_addr,
            out_nh_addr=self.out_nh_addr,
            src_cnt=self.src_cnt,
            src_mask_0=words[0],
            src_mask_1=words[1],
            src_mask_2=words[2],
            src_mask_3=words[3],
        )

    @classmethod
    def unpack(cls, data: Sequence[int], job_id: int = 0) -> "JobRecord":
        fields = JOB_RECORD_LAYOUT.unpack(data)
        return cls(
            job_id=job_id,
            src_cnt=fields["src_cnt"],
            src_mask=_join_mask(
                [fields[f"src_mask_{i}"] for i in range(4)]
            ),
            block_grad_max=fields["block_grad_max"],
            block_exp_ms=fields["block_exp"],
            out_src_addr=fields["out_src_addr"],
            out_dst_addr=fields["out_dst_addr"],
            out_nh_addr=fields["out_nh_addr"],
            block_cnt_max=fields["block_cnt_max"],
            block_curr_cnt=fields["block_curr_cnt"],
            block_total_cnt=fields["block_total_cnt"],
        )


@dataclass
class BlockRecord:
    """Data-plane block record (Figure 18), created on the first packet of
    a block and removed when the block's result has been generated."""

    job_id: int
    block_id: int
    gen_id: int
    grad_cnt: int
    block_exp_ms: int
    block_start_time: int         # nanoseconds
    job_ctx_paddr: int
    aggr_paddr: int
    rcvd_cnt: int = 0
    rcvd_mask: int = 0
    block_age: int = 0
    #: Address of the packed record in the Shared Memory System.
    paddr: int = 0
    #: Address of the aligned hot area ([rcvd_cnt:8B][mask:4x8B]) used for
    #: RMW updates (model detail; see module docstring).
    hot_paddr: int = 0
    #: Runtime-only guard: set by whichever thread (packet or timer) wins
    #: the right to generate this block's result, so completion and
    #: age-out cannot both fire.
    completing: bool = False
    #: Runtime-only: total *workers* represented by the contributions so
    #: far (a leaf packet counts 1; a first-level partial counts its own
    #: src_cnt), so hierarchical Results report worker counts.
    contrib_cnt: int = 0
    #: Runtime-only: a lower level already degraded this block.
    any_degraded: bool = False
    #: Runtime-only: highest age_op seen from lower levels.
    max_age_op: int = 0

    SIZE = BLOCK_RECORD_LAYOUT.size_bytes
    #: The aligned scratch area for RMW-updated fields.
    HOT_SIZE = 40

    def pack(self) -> bytes:
        values = (self.block_exp_ms, self.block_age, self.block_start_time,
                  self.job_ctx_paddr, self.aggr_paddr, self.grad_cnt,
                  self.rcvd_cnt, *_split_mask(self.rcvd_mask))
        window = 0
        for (shift, mask), value in zip(_BLOCK_PACK_FIELDS, values):
            window |= (value & mask) << shift
        return window.to_bytes(self.SIZE, "big")

    @classmethod
    def unpack(cls, data: Sequence[int], job_id: int = 0,
               block_id: int = 0, gen_id: int = 0) -> "BlockRecord":
        fields = BLOCK_RECORD_LAYOUT.unpack(data)
        return cls(
            job_id=job_id,
            block_id=block_id,
            gen_id=gen_id,
            grad_cnt=fields["grad_cnt"],
            block_exp_ms=fields["block_exp"],
            block_start_time=fields["block_start_time"],
            job_ctx_paddr=fields["job_ctx_paddr"],
            aggr_paddr=fields["aggr_paddr"],
            rcvd_cnt=fields["rcvd_cnt"],
            rcvd_mask=_join_mask(
                [fields[f"rcvd_mask_{i}"] for i in range(4)]
            ),
            block_age=fields["block_age"],
        )
