"""Full-precision pins of the packet-level references and the
calibration bridge.

The packet references are the ground truth the fluid level is pinned
to, so a refactor of the packet runner, the fabric or the bridge must
reproduce them bit for bit.  The pins cover the three calibration cases
(fluid and packet side), the fan-in reference at every escalation
degree bucket at the escalation's reference size, and the pair
reference with and without the default straggler overhead.
"""

import pytest

from repro.flowsim import packetref
from repro.flowsim.calibrate import calibrate
from repro.flowsim.escalate import reset_reference_caches

#: case -> (fluid value, packet value).
CALIBRATION = {
    "pair": (1.870090534979424e-05, 1.8583680000000015e-05),
    "shared": (95752226337.77287, 95825622919.78502),
    "incast": (3.7778334156378616e-05, 4.1351519999999804e-05),
}

#: Senders -> per-sender FCTs (s) of 20,000 B flows at 100 Gbps.
FAN_IN_FCTS = {
    2: (5.327039999999999e-06, 5.414079999999999e-06),
    4: (8.447039999999992e-06, 8.534079999999992e-06,
        8.62111999999999e-06, 8.708159999999991e-06),
    8: (1.468704000000002e-05, 1.477408000000002e-05,
        1.486112000000002e-05, 1.4948160000000021e-05,
        1.5035200000000022e-05, 1.5122240000000022e-05,
        1.5209280000000023e-05, 1.5296320000000023e-05),
    16: (2.7167039999999924e-05, 2.7254079999999925e-05,
         2.7341119999999925e-05, 2.7428159999999925e-05,
         2.7515199999999926e-05, 2.7602239999999926e-05,
         2.7689279999999927e-05, 2.7776319999999927e-05,
         2.7863359999999928e-05, 2.7950399999999928e-05,
         2.803743999999993e-05, 2.812447999999993e-05,
         2.821151999999993e-05, 2.829855999999993e-05,
         2.838559999999993e-05, 2.847263999999993e-05),
    32: (5.212703999999968e-05, 5.221407999999968e-05,
         5.2301119999999676e-05, 5.238815999999967e-05,
         5.247519999999967e-05, 5.256223999999967e-05,
         5.2649279999999664e-05, 5.273631999999966e-05,
         5.282335999999966e-05, 5.2910399999999655e-05,
         5.299743999999965e-05, 5.308447999999965e-05,
         5.3171519999999646e-05, 5.3258559999999643e-05,
         5.334559999999964e-05, 5.343263999999964e-05,
         5.3519679999999635e-05, 5.360671999999963e-05,
         5.369375999999963e-05, 5.3780799999999626e-05,
         5.386783999999962e-05, 5.395487999999962e-05,
         5.404191999999962e-05, 5.4128959999999614e-05,
         5.421599999999961e-05, 5.430303999999961e-05,
         5.4390079999999605e-05, 5.44771199999996e-05,
         5.45641599999996e-05, 5.4651199999999596e-05,
         5.473823999999959e-05, 5.482527999999959e-05),
}

#: Per-packet transmit overhead (s) -> FCT (s) of one 20,000 B flow at
#: 100 Gbps.
PAIR_FCTS = {
    0.0: 3.7670400000000008e-06,
    2e-6: 3.017408000000001e-05,
}


def _fcts(reference):
    """Per-flow FCTs of a packet reference, in flow order.

    Takes the reference's per-flow records, or a result object holding
    them as an ``fct_s`` tuple, so these pins also check trees whose
    references return that form.
    """
    if hasattr(reference, "fct_s"):
        return tuple(reference.fct_s)
    return tuple(record.fct_s for record in reference)


@pytest.fixture(autouse=True)
def _fresh_caches():
    reset_reference_caches()
    yield
    reset_reference_caches()


def test_calibration_cases_are_pinned():
    cases = calibrate()
    assert {name: (case.fluid_value, case.packet_value)
            for name, case in cases.items()} == CALIBRATION


@pytest.mark.parametrize("senders", sorted(FAN_IN_FCTS))
def test_fan_in_reference_is_pinned(senders):
    reference = packetref.packet_fan_in(senders, 20_000, bandwidth_bps=100e9)
    assert _fcts(reference) == FAN_IN_FCTS[senders]


@pytest.mark.parametrize("tx_overhead_s", sorted(PAIR_FCTS))
def test_pair_reference_is_pinned(tx_overhead_s):
    reference = packetref.packet_pair(20_000, bandwidth_bps=100e9,
                                      tx_overhead_s=tx_overhead_s)
    assert _fcts(reference) == (PAIR_FCTS[tx_overhead_s],)
