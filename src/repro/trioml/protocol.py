"""The Trio-ML packet format (Figures 7 and 8).

A Trio-ML aggregation packet is
``Ethernet | IPv4 | UDP | Trio-ML header | gradients``: UDP addressed to
the router with destination port 12000, a 12-byte Trio-ML header
describing the block of gradients, then up to 1024 gradients as 32-bit
integers (converted from floating point with ATP's scaling approach).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.microcode.layout import StructLayout

__all__ = [
    "MAX_GRADIENTS_PER_PACKET",
    "TRIO_ML_HEADER_LAYOUT",
    "TRIO_ML_UDP_PORT",
    "TrioMLHeader",
    "decode_trio_ml",
    "encode_trio_ml",
]

#: "Packets are addressed to the router with a pre-defined destination
#: port (e.g., 12000)" (§4).
TRIO_ML_UDP_PORT = 12000

#: "Up to 4096 bytes (1024 Gradients)" (Figure 7).
MAX_GRADIENTS_PER_PACKET = 1024

#: Figure 8, verbatim field widths — 12 bytes total.
TRIO_ML_HEADER_LAYOUT = StructLayout(
    "trio_ml_hdr_t",
    [
        ("job_id", 8),      # aggregation job id
        ("block_id", 32),   # aggregation block id
        ("age_op", 4),      # if the block has aged out
        ("final", 1),       # if the block is final block
        ("degraded", 1),    # aggregation is partial
        (None, 2),          # unused for byte alignment
        ("src_id", 8),      # source id of the packet
        ("src_cnt", 8),     # number of sources contributing
        ("gen_id", 16),     # generation id
        (None, 4),          # room to expand grad_cnt
        ("grad_cnt", 12),   # number of gradients
    ],
)

assert TRIO_ML_HEADER_LAYOUT.size_bytes == 12, "Figure 8 says 12 bytes"


#: (shift, mask) of each field within the header read as one integer.
_JOB_ID = TRIO_ML_HEADER_LAYOUT.shift_mask("job_id")
_BLOCK_ID = TRIO_ML_HEADER_LAYOUT.shift_mask("block_id")
_SRC_ID = TRIO_ML_HEADER_LAYOUT.shift_mask("src_id")
_GRAD_CNT = TRIO_ML_HEADER_LAYOUT.shift_mask("grad_cnt")
_GEN_ID = TRIO_ML_HEADER_LAYOUT.shift_mask("gen_id")
_AGE_OP = TRIO_ML_HEADER_LAYOUT.shift_mask("age_op")
_FINAL = TRIO_ML_HEADER_LAYOUT.shift_mask("final")
_DEGRADED = TRIO_ML_HEADER_LAYOUT.shift_mask("degraded")
_SRC_CNT = TRIO_ML_HEADER_LAYOUT.shift_mask("src_cnt")


@dataclass
class TrioMLHeader:
    """Parsed Trio-ML header (Figure 8)."""

    job_id: int
    block_id: int
    src_id: int
    grad_cnt: int
    gen_id: int = 0
    age_op: int = 0
    final: bool = False
    degraded: bool = False
    src_cnt: int = 0

    SIZE = TRIO_ML_HEADER_LAYOUT.size_bytes

    def pack(self) -> bytes:
        return TRIO_ML_HEADER_LAYOUT.pack(
            job_id=self.job_id,
            block_id=self.block_id,
            age_op=self.age_op,
            final=int(self.final),
            degraded=int(self.degraded),
            src_id=self.src_id,
            src_cnt=self.src_cnt,
            gen_id=self.gen_id,
            grad_cnt=self.grad_cnt,
        )

    @classmethod
    def unpack(cls, data: Sequence[int]) -> "TrioMLHeader":
        chunk = data[:cls.SIZE]
        if len(chunk) != cls.SIZE:
            raise ValueError(
                f"struct {TRIO_ML_HEADER_LAYOUT.name}: need {cls.SIZE} bytes "
                f"at offset 0, buffer has {len(chunk)}"
            )
        word = int.from_bytes(chunk, "big")
        return cls(
            (word >> _JOB_ID[0]) & _JOB_ID[1],
            (word >> _BLOCK_ID[0]) & _BLOCK_ID[1],
            (word >> _SRC_ID[0]) & _SRC_ID[1],
            (word >> _GRAD_CNT[0]) & _GRAD_CNT[1],
            (word >> _GEN_ID[0]) & _GEN_ID[1],
            (word >> _AGE_OP[0]) & _AGE_OP[1],
            bool((word >> _FINAL[0]) & _FINAL[1]),
            bool((word >> _DEGRADED[0]) & _DEGRADED[1]),
            (word >> _SRC_CNT[0]) & _SRC_CNT[1],
        )


def encode_trio_ml(header: TrioMLHeader, gradients: Sequence[int]) -> bytes:
    """Build the UDP payload: 12-byte header + little-endian int32 grads.

    ``gradients`` is a list or an integer array; every value wraps modulo
    2^32 (the integer cast truncates, i.e. the ``& 0xFFFFFFFF``).
    """
    if len(gradients) != header.grad_cnt:
        raise ValueError(
            f"header says {header.grad_cnt} gradients, got {len(gradients)}"
        )
    if header.grad_cnt > MAX_GRADIENTS_PER_PACKET:
        raise ValueError(
            f"{header.grad_cnt} gradients exceeds the {MAX_GRADIENTS_PER_PACKET} "
            "per-packet maximum (Figure 7)"
        )
    return header.pack() + np.asarray(gradients).astype("<i4").tobytes()


def decode_trio_ml(payload: bytes) -> Tuple[TrioMLHeader, np.ndarray]:
    """Parse a Trio-ML UDP payload into (header, gradients).

    The gradients are a read-only little-endian int32 view of
    ``payload``: no copy, and no Python int per gradient.
    """
    if len(payload) < TrioMLHeader.SIZE:
        raise ValueError(f"payload too short for Trio-ML header: {len(payload)}")
    header = TrioMLHeader.unpack(payload)
    body_bytes = len(payload) - TrioMLHeader.SIZE
    if body_bytes < 4 * header.grad_cnt:
        raise ValueError(
            f"payload truncated: expected {4 * header.grad_cnt} gradient "
            f"bytes, got {body_bytes}"
        )
    gradients = np.frombuffer(payload, dtype="<i4", count=header.grad_cnt,
                              offset=TrioMLHeader.SIZE)
    return header, gradients
