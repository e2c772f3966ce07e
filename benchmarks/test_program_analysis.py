"""§6.3 Microcode program analysis.

Paper result: the Trio-ML program is ~60 instructions; the aggregation
loop runs at ~1.2 run-time instructions per gradient; 12 RMW engines at
2 cycles per add and 1 GHz give 6 billion add operations per second per
PFE.  The reproduction measures the dynamic instruction rate on the
simulated PFE and reads the architectural rates from the chipset config.
"""

import pytest

from repro.harness import experiments as exp


def test_program_analysis(record):
    analysis = record(exp.microcode_program_analysis)
    assert analysis.static_instructions == 60
    assert analysis.loop_instructions_per_gradient == pytest.approx(1.2)
    # Measured rate includes per-packet fixed costs (parse, lookups,
    # completion check), so it sits slightly above the loop rate.
    assert 1.15 <= analysis.measured_instructions_per_gradient <= 1.5
    assert analysis.rmw_engines == 12
    assert analysis.rmw_add_cycles == 2
    assert analysis.rmw_add_rate_ops_per_s == pytest.approx(6e9)
