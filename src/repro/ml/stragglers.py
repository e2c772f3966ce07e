"""The "Slow Worker Pattern" straggler generator (§6.1).

Following FlexRR (Harlap et al., SoCC'16), each iteration has three
possible delay points.  At each point, with probability *p* one of the
workers decides to slow down; a straggling worker sleeps for a duration
chosen uniformly at random between 0.5× and 2× the *typical* iteration
time (the model's average iteration time with no stragglers).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["SlowWorkerPattern", "StraggleEvent"]

#: Delay points per iteration (§6.1).
DELAY_POINTS = 3
#: Slowdown duration bounds as multiples of the typical iteration time.
SLOWDOWN_MIN = 0.5
SLOWDOWN_MAX = 2.0


@dataclass
class StraggleEvent:
    """One worker slowdown at one delay point."""

    worker: int
    delay_point: int
    duration_s: float


class SlowWorkerPattern:
    """Samples per-iteration straggle delays for a worker group."""

    def __init__(self, probability: float, num_workers: int,
                 typical_iteration_s: float, seed: int = 0,
                 rng: Optional[random.Random] = None):
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1]: {probability}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1: {num_workers}")
        if typical_iteration_s <= 0:
            raise ValueError(
                f"typical iteration time must be positive: {typical_iteration_s}"
            )
        self.probability = probability
        self.num_workers = num_workers
        self.typical_iteration_s = typical_iteration_s
        # An explicit rng (e.g. Environment.rng_stream(...)) wins over
        # the seed, letting callers tie the pattern to a sim seed tree.
        self._rng = rng if rng is not None else random.Random(seed)
        self.events: List[StraggleEvent] = []

    def sample_iteration(self) -> Dict[int, float]:
        """Delays for one iteration: worker index -> total sleep seconds."""
        delays: Dict[int, float] = {}
        for point in range(DELAY_POINTS):
            if self._rng.random() >= self.probability:
                continue
            worker = self._rng.randrange(self.num_workers)
            duration = self._rng.uniform(
                SLOWDOWN_MIN, SLOWDOWN_MAX
            ) * self.typical_iteration_s
            delays[worker] = delays.get(worker, 0.0) + duration
            self.events.append(
                StraggleEvent(worker=worker, delay_point=point,
                              duration_s=duration)
            )
        return delays
