"""Data-parallel training loop over pluggable collective backends.

Each iteration every worker computes for ``model.compute_time_s`` plus any
straggle delays, then the gradients are aggregated.  *Which* aggregation
system runs — and what a straggler costs under it — is entirely the
:class:`repro.collectives.CollectiveBackend` resolved from
``TrainingConfig.system``; the loop itself has no per-system branches.
The paper's three systems (§6.1):

* **Ideal** — NCCL ring allreduce, stragglers never injected:
  ``iteration = compute + ring_time``.
* **SwitchML** — the slot completes only when every worker contributes,
  so the whole job waits for the slowest worker:
  ``iteration = max_w(compute + delay_w) + switchml_time``.
* **Trio-ML** — blocks whose straggler contribution is missing age out
  after the timeout and complete partially, so non-straggling workers
  wait at most the straggler-detection bound (≤ 2× the timeout, Figure
  14) instead of the full straggle:
  ``iteration = compute + trio_time + min(max_delay, mitigation_bound)``.

The mitigation bound defaults to 1.5× the detection timeout — the mean of
the [1×, 2×] detection window the timer-thread scheme guarantees — and
can be set from packet-level measurements.

New systems plug in through the registry (see
:func:`repro.collectives.register_backend`); anything registered is
immediately usable as a ``TrainingConfig.system`` value and shows up in
the harness sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.collectives import CollectiveBackend, get_backend
from repro.ml.models import DNNModel
from repro.ml.stragglers import SlowWorkerPattern
from repro.obs import bus as _obs

__all__ = ["DataParallelTrainer", "IterationRecord", "TrainingConfig"]


@dataclass
class TrainingConfig:
    """One training run's setup (§6.1 defaults).

    ``system`` is resolved case-insensitively against the collective-
    backend registry and normalised to the backend's canonical name;
    anything :func:`repro.collectives.available_backends` lists is valid.
    """

    model: DNNModel
    system: str
    num_workers: int = 6
    straggle_probability: float = 0.0
    #: Trio-ML straggler-detection timeout (§6.1: 10 ms).
    timeout_s: float = 0.010
    #: Expected extra wait when a block ages out: detection lands in
    #: [1x, 2x] the timeout, so 1.5x on average (validated by Figure 14).
    mitigation_factor: float = 1.5
    seed: int = 0
    #: Half-width of the uniform per-iteration GPU compute jitter band
    #: (0.05 = ±5%).  0 keeps the calibrated deterministic compute time.
    compute_jitter: float = 0.0

    def __post_init__(self):
        # Raises UnknownBackendError (a ValueError) with the live list
        # of registered backends on a bad name.
        self.system = get_backend(self.system).name
        if self.num_workers < 2:
            raise ValueError("need at least two workers for allreduce")
        if self.compute_jitter < 0.0:
            raise ValueError(
                f"compute_jitter must be non-negative: {self.compute_jitter}"
            )

    @property
    def backend(self) -> CollectiveBackend:
        """The collective backend this run aggregates through."""
        return get_backend(self.system)

    @property
    def typical_iteration_s(self) -> float:
        """Iteration time with no stragglers under this system."""
        return self.backend.typical_iteration_s(self.model, self.num_workers)

    @property
    def allreduce_time_s(self) -> float:
        return self.backend.allreduce_time_s(
            self.model.size_bytes, self.num_workers
        )


@dataclass
class IterationRecord:
    """Timing of one training iteration."""

    index: int
    duration_s: float
    straggle_delays: Dict[int, float] = field(default_factory=dict)
    mitigated: bool = False

    @property
    def max_delay_s(self) -> float:
        return max(self.straggle_delays.values(), default=0.0)


class DataParallelTrainer:
    """Runs iterations under one backend's aggregation semantics."""

    def __init__(self, config: TrainingConfig, env=None):
        """``env``: optionally derive all random streams from a
        :class:`repro.sim.Environment`'s seed tree (``env.rng_stream``)
        instead of ``config.seed`` directly, so one simulation-wide seed
        controls both packet-level and training-loop randomness."""
        self.config = config
        self.backend = config.backend
        # The straggle magnitude is relative to the model's *typical*
        # iteration time (§6.1), which we take from the Ideal backend so
        # every system faces identically distributed slowdowns.
        self._typical_s = get_backend("ideal").typical_iteration_s(
            config.model, config.num_workers
        )
        if env is not None:
            pattern_rng = env.rng_stream(f"straggle/{config.seed}")
            self._compute_rng = env.rng_stream(f"compute/{config.seed}")
        else:
            pattern_rng = None  # the pattern seeds itself from config.seed
            self._compute_rng = random.Random(f"compute/{config.seed}")
        self.pattern = SlowWorkerPattern(
            probability=config.straggle_probability,
            num_workers=config.num_workers,
            typical_iteration_s=self._typical_s,
            seed=config.seed,
            rng=pattern_rng,
        )
        self.records: List[IterationRecord] = []
        #: Synthetic trainer clock: iteration durations laid end to end,
        #: giving the per-iteration phase spans a timeline to live on.
        self._obs_clock = 0.0

    @property
    def mitigation_bound_s(self) -> float:
        return self.config.mitigation_factor * self.config.timeout_s

    def run(self, num_iterations: int) -> List[IterationRecord]:
        """Simulate ``num_iterations``; returns (and stores) the records."""
        config = self.config
        backend = self.backend
        jitter = config.compute_jitter
        comm = config.allreduce_time_s
        bound = self.mitigation_bound_s
        injects = backend.injects_stragglers
        iteration_duration = backend.iteration_duration
        sample_compute = config.model.sample_compute_time
        sample_delays = self.pattern.sample_iteration
        # Hoisted once: iterations stay observability-free when disabled.
        obs = _obs.session()
        track = f"train/{config.system}"
        records = []
        for index in range(num_iterations):
            compute = sample_compute(self._compute_rng, jitter)
            delays: Dict[int, float] = sample_delays() if injects else {}
            duration, mitigated = iteration_duration(
                compute, comm, delays, mitigation_bound_s=bound
            )
            records.append(IterationRecord(
                index=index,
                duration_s=duration,
                straggle_delays=delays,
                mitigated=mitigated,
            ))
            if obs is not None:
                start = self._obs_clock
                obs.complete(f"compute {index}", start, start + compute,
                             track=track)
                obs.complete(f"aggregate {index}", start + compute,
                             start + duration, track=track,
                             mitigated=mitigated)
                obs.observe("ml.iteration_s", duration,
                            system=config.system)
                obs.probe("ml.iterations", system=config.system,
                          mitigated=mitigated)
                self._obs_clock = start + duration
        self.records.extend(records)
        return records

    def average_iteration_s(self, num_iterations: int = 100) -> float:
        """Mean iteration time over a fresh run of ``num_iterations``
        (the paper reports the average of the first 100 iterations)."""
        records = self.run(num_iterations)
        return sum(r.duration_s for r in records) / len(records)
