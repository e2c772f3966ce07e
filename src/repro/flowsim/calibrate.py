"""Calibration bridge: pin the fluid level to the packet level.

The hybrid simulation is only trustworthy if the fast level agrees with
the slow one where their domains overlap.  This module runs matched
pairs of simulations — one ``FlowSpec`` list on one fabric, once through
the fluid runner (:func:`~repro.flowsim.scenario.run_flows`) and once
frame by frame through the real :mod:`repro.net` stack
(:func:`~repro.flowsim.fabric.run_packet_flows`) — and asserts the
flow-level FCT and goodput land inside a declared band of the
packet-level truth.

Three cases, one per modelling regime:

* **pair** — a single uncontended flow.  Checks the closed-form FCT
  (framing-derated rate plus store-and-forward path latency) against a
  packet run of the same size and bandwidth.  This is the tightest
  band: the models differ only by one pipelined frame serialisation.
* **shared** — several long elastic flows into one host.  Checks that
  max-min fair share delivers the same *aggregate* goodput as FIFO
  packet interleaving over the same bottleneck.
* **incast** — a synchronised burst of short flows, crossing the
  escalation boundary.  Checks the end-to-end hybrid (part elastic,
  part pinned to packet-derived rates) against a pure packet run of the
  identical burst.  The widest band: escalated rates are derived from
  a *bucketed* reference, not this exact degree.

Run from the test suite and CI as
``python -m repro.flowsim.calibrate --werror``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.flowsim.escalate import EscalationConfig
from repro.flowsim.fabric import FabricShape, host_name, run_packet_flows
from repro.flowsim.flow import FlowRecord, FlowSpec, mean_fct_s
from repro.flowsim.packetref import fan_in_flows
from repro.flowsim.scenario import run_flows
from repro.tools.band import band_cell, verdict, within_band

__all__ = [
    "PAIR_BAND",
    "SHARED_BAND",
    "INCAST_BAND",
    "CalibrationCase",
    "calibrate",
    "main",
    "render_calibration",
]

#: Per-case hybrid/packet agreement bands (ratio).  The pair case is
#: near-exact by construction; the shared case differs only in how the
#: last frames drain; the incast case goes through the bucketed
#: escalation reference, so it inherits that quantisation.
PAIR_BAND = 1.10
SHARED_BAND = 1.15
INCAST_BAND = 1.8

#: Sizing of the matched runs: small enough to run inside the test
#: suite, large enough that both levels reach steady behaviour.  Both
#: sides are deterministic discrete-event simulations, so the derived
#: ratios are exactly reproducible.
BANDWIDTH_BPS = 100e9
PAIR_FLOW_BYTES = 200_000
SHARED_SENDERS = 6
SHARED_FLOW_BYTES = 300_000
INCAST_SENDERS = 12
INCAST_FLOW_BYTES = 40_000

#: The one-leaf fabric every case runs on, at both levels.
FABRIC = FabricShape(leaves=1, hosts_per_leaf=16,
                     host_bandwidth_bps=BANDWIDTH_BPS,
                     uplink_bandwidth_bps=4 * BANDWIDTH_BPS)


@dataclass(frozen=True)
class CalibrationCase:
    """One matched fluid/packet measurement."""

    case: str
    #: What is being compared ("mean FCT (s)" or "goodput (bps)").
    quantity: str
    fluid_value: float
    packet_value: float
    band: float

    @property
    def ratio(self) -> float:
        """fluid / packet — 1.0 means the levels agree exactly."""
        return self.fluid_value / self.packet_value

    @property
    def within_band(self) -> bool:
        return within_band(self.ratio, self.band)


def _run_both(flows: List[FlowSpec]
              ) -> Tuple[List[FlowRecord], List[FlowRecord]]:
    """(fluid, packet) records of one flow list on :data:`FABRIC`."""
    fluid = run_flows(FABRIC, EscalationConfig(), lambda env: flows)
    return fluid.records, run_packet_flows(FABRIC, flows)


def _goodput(records: List[FlowRecord]) -> float:
    """Aggregate goodput (bps) of flows that all start at t = 0."""
    bits = 8 * sum(record.spec.size_bytes for record in records)
    return bits / max(record.finish_s for record in records)


def calibrate() -> Dict[str, CalibrationCase]:
    """Run all matched pairs; returns one record per case."""
    cases: Dict[str, CalibrationCase] = {}

    # -- pair: one flow, no contention ----------------------------------
    fluid, packet = _run_both(
        [FlowSpec(flow_id=0, src=host_name(0, 0), dst=host_name(0, 1),
                  size_bytes=float(PAIR_FLOW_BYTES), start_s=0.0)])
    cases["pair"] = CalibrationCase(
        case="pair", quantity="mean FCT (s)",
        fluid_value=mean_fct_s(fluid), packet_value=mean_fct_s(packet),
        band=PAIR_BAND,
    )

    # -- shared: elastic fair share over one bottleneck ------------------
    fluid, packet = _run_both(fan_in_flows(SHARED_SENDERS, SHARED_FLOW_BYTES))
    assert all(record.escalated is None for record in fluid), \
        "shared case must stay elastic"
    cases["shared"] = CalibrationCase(
        case="shared", quantity="aggregate goodput (bps)",
        fluid_value=_goodput(fluid), packet_value=_goodput(packet),
        band=SHARED_BAND,
    )

    # -- incast: the escalation boundary end to end ----------------------
    fluid, packet = _run_both(fan_in_flows(INCAST_SENDERS, INCAST_FLOW_BYTES,
                                           service="incast"))
    assert any(record.escalated == "incast" for record in fluid), \
        "incast case must cross the escalation boundary"
    cases["incast"] = CalibrationCase(
        case="incast", quantity="mean FCT (s)",
        fluid_value=mean_fct_s(fluid), packet_value=mean_fct_s(packet),
        band=INCAST_BAND,
    )
    return cases


def render_calibration(cases: Dict[str, CalibrationCase]) -> str:
    """The calibration report table."""
    lines = [
        "Calibration bridge: fluid level vs packet level",
        "-" * 72,
        f"{'case':<8} {'quantity':<24} {'fluid':>12} {'packet':>12} "
        f"{'ratio':>7}  band",
    ]
    for record in cases.values():
        lines.append(
            f"{record.case:<8} {record.quantity:<24} "
            f"{record.fluid_value:>12.4g} {record.packet_value:>12.4g} "
            f"{record.ratio:>6.2f}x  {band_cell(record.ratio, record.band)}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.flowsim.calibrate",
        description="Run matched fluid/packet simulations and check the "
                    "flow level stays inside the calibration band.",
    )
    parser.add_argument(
        "--werror", action="store_true",
        help="exit non-zero when any case falls outside its band",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the report to PATH (CI artifact)",
    )
    args = parser.parse_args(argv)
    if args.out is not None:
        folder = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(folder):
            print(f"error: --out {args.out}: no directory {folder}",
                  file=sys.stderr)
            return 2
    cases = calibrate()
    return verdict(render_calibration(cases), cases, "cases", args.werror,
                   out=args.out)


if __name__ == "__main__":
    sys.exit(main())
