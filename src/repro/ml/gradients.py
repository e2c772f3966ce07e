"""Float ↔ int32 gradient conversion (ATP's scaling approach, §4).

In-network aggregation hardware adds integers, so workers multiply each
float32 gradient by a scaling factor and round to int32; receivers divide
the aggregated sum back down.  The scaling factor must be large enough to
preserve precision and small enough that the sum over all workers cannot
overflow 32 bits.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = ["GradientQuantizer"]

_INT32_MAX = 2**31 - 1


class GradientQuantizer:
    """Symmetric fixed-scale quantizer for gradient vectors."""

    def __init__(self, scale: float = 1e6, num_workers: int = 6):
        """``scale`` converts floats to integer ticks; ``num_workers``
        bounds how many contributions may be summed without overflow."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.scale = float(scale)
        self.num_workers = num_workers
        #: Largest float magnitude a single worker may contribute.
        self.max_magnitude = _INT32_MAX / (scale * num_workers)

    def quantize(self, gradients: Sequence[float]) -> List[int]:
        """Convert float gradients to int32 ticks (clipping to the safe
        range so an all-worker sum cannot overflow)."""
        array = np.asarray(gradients, dtype=np.float64)
        clipped = np.clip(array, -self.max_magnitude, self.max_magnitude)
        ticks = np.rint(clipped * self.scale).astype(np.int64)
        return [int(t) for t in ticks]

    def dequantize(self, ticks: Sequence[int]) -> List[float]:
        """Convert aggregated int32 ticks back to a float sum."""
        return [t / self.scale for t in ticks]

    def dequantize_mean(self, ticks: Sequence[int],
                        contributors: int) -> List[float]:
        """Aggregated ticks -> per-worker mean gradient.

        ``contributors`` is the number of sources that actually
        contributed (``src_cnt`` from a possibly degraded Result, §5).
        """
        if contributors < 1:
            raise ValueError(f"contributors must be >= 1, got {contributors}")
        factor = self.scale * contributors
        return [t / factor for t in ticks]
