"""Distributed ML training workload models (§6.1, §6.2).

* :mod:`repro.ml.models` — the DNN model zoo of Table 1 with calibrated
  per-iteration compute times and accuracy-curve parameters.
* :mod:`repro.ml.gradients` — ATP-style float ↔ int32 gradient scaling.
* :mod:`repro.ml.stragglers` — the "Slow Worker Pattern" straggler
  generator (three delay points per iteration, probability *p*, slowdown
  uniform in [0.5, 2] × the typical iteration time).
* :mod:`repro.ml.allreduce` — communication-time models: NCCL-style ring
  allreduce (the Ideal baseline), SwitchML, and Trio-ML in-network
  aggregation.
* :mod:`repro.ml.training` — the data-parallel training loop producing
  per-iteration timings under each system's semantics, resolved through
  the pluggable :mod:`repro.collectives` backend registry.
* :mod:`repro.ml.accuracy` — validation-accuracy curves and
  time-to-accuracy computation.
"""

from repro.ml.models import DNNModel, MODEL_ZOO
from repro.ml.gradients import GradientQuantizer
from repro.ml.stragglers import SlowWorkerPattern
from repro.ml.allreduce import ring_allreduce_time
from repro.ml.training import DataParallelTrainer, IterationRecord, TrainingConfig
from repro.ml.accuracy import AccuracyCurve

__all__ = [
    "AccuracyCurve",
    "DNNModel",
    "DataParallelTrainer",
    "GradientQuantizer",
    "IterationRecord",
    "MODEL_ZOO",
    "SlowWorkerPattern",
    "TrainingConfig",
    "ring_allreduce_time",
]
