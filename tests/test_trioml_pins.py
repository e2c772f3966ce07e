"""Full-precision pins of the packet path.

Each point runs the whole Trio-ML data path (worker encode, NIC and link,
PFE dispatch, PPE threads, hash table, RMW engines, multicast, worker
decode), and its result is compared by ``repr``: every float to the last
bit, where ``bench/expected.json`` allows a relative 1e-6.  A change to
how gradients or headers are carried must leave all four untouched.
"""

import pytest

from repro.harness import experiments as exp

PINS = [
    pytest.param(
        exp._fig15_point, (256, 5),
        "(Fig15Row(grads_per_packet=256, latency_us=11.886366666666667, "
        "rate_grads_per_us=21.53727940413527), 533)",
        id="fig15-256",
    ),
    pytest.param(
        exp._fig16_point, (1024, 16, 128),
        "Fig16Row(window=16, latency_us=47.210989583333316, "
        "throughput_gbps=38.03552384982771)",
        id="fig16-1024-w16",
    ),
    pytest.param(
        exp._fig14_point, (2.5, 4, 64, 20),
        "Fig14Row(timeout_ms=2.5, mean_mitigation_ms=4.032642466666667, "
        "max_mitigation_ms=4.876377466666668, blocks_mitigated=12)",
        id="fig14-2.5ms",
    ),
    pytest.param(
        exp._loss_point, (0.05, 6, 64),
        "LossRow(loss_rate=0.05, completion_ms=4.002489599999999, "
        "frames_lost=3, retransmissions=3, results_replayed=3)",
        id="loss-5pct",
    ),
]


@pytest.mark.parametrize("point,args,expected", PINS)
def test_packet_path_point_is_pinned(point, args, expected):
    assert repr(point(args)) == expected
