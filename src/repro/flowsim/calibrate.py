"""Calibration bridge: pin the fluid level to the packet level.

The hybrid simulation is only trustworthy if the fast level agrees with
the slow one where their domains overlap.  This module runs matched
pairs of simulations — the same flows once through the
:class:`~repro.flowsim.engine.FluidEngine` and once through the real
packet-level :mod:`repro.net` stack — and asserts the flow-level FCT
and goodput land inside a declared band of the packet-level truth.

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
from typing import Dict, List, Optional

from repro.flowsim import packetref
from repro.flowsim.escalate import EscalationConfig
from repro.flowsim.flow import FlowRecord, FlowSpec
from repro.flowsim.scenario import FabricShape, host_name, run_flows
from repro.tools.band import band_cell, verdict, within_band

__all__ = [
    "PAIR_BAND",
    "SHARED_BAND",
    "INCAST_BAND",
    "CalibrationCase",
    "FlowCalibrationSpec",
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


@dataclass(frozen=True)
class FlowCalibrationSpec:
    """Sizing of the matched fluid/packet calibration runs.

    Small enough to run inside the test suite, large enough that both
    levels reach steady behaviour.  Both sides are deterministic
    discrete-event simulations, so the derived ratios are exactly
    reproducible.
    """

    bandwidth_bps: float = 100e9
    pair_flow_bytes: int = 200_000
    shared_senders: int = 6
    shared_flow_bytes: int = 300_000
    incast_senders: int = 12
    incast_flow_bytes: int = 40_000


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


def _run_fluid(specs: List[FlowSpec],
               bandwidth_bps: float) -> List[FlowRecord]:
    """Run explicit flows through the fluid engine on a one-leaf fabric."""
    fabric = FabricShape(leaves=1, hosts_per_leaf=16,
                         host_bandwidth_bps=bandwidth_bps,
                         uplink_bandwidth_bps=4 * bandwidth_bps)
    return run_flows(fabric, EscalationConfig(), lambda env: specs).records


def _fan_in(senders: int, flow_bytes: int,
            service: str = "bulk") -> List[FlowSpec]:
    """``senders`` flows of ``flow_bytes`` into host 0, all at t = 0."""
    return [
        FlowSpec(flow_id=index, src=host_name(0, 1 + index),
                 dst=host_name(0, 0), size_bytes=float(flow_bytes),
                 start_s=0.0, service=service)
        for index in range(senders)
    ]


def _mean_fct(records: List[FlowRecord]) -> float:
    return sum(record.fct_s for record in records) / len(records)


def calibrate(spec: Optional[FlowCalibrationSpec] = None
              ) -> Dict[str, CalibrationCase]:
    """Run all matched pairs; returns one record per case."""
    spec = spec or FlowCalibrationSpec()
    bw = spec.bandwidth_bps
    cases: Dict[str, CalibrationCase] = {}

    # -- pair: one flow, no contention ----------------------------------
    fluid = _run_fluid(
        [FlowSpec(flow_id=0, src=host_name(0, 0), dst=host_name(0, 1),
                  size_bytes=float(spec.pair_flow_bytes), start_s=0.0)],
        bw,
    )
    packet = packetref.packet_pair(spec.pair_flow_bytes, bandwidth_bps=bw)
    cases["pair"] = CalibrationCase(
        case="pair", quantity="mean FCT (s)",
        fluid_value=_mean_fct(fluid), packet_value=packet.mean_fct_s,
        band=PAIR_BAND,
    )

    # -- shared: elastic fair share over one bottleneck ------------------
    fluid = _run_fluid(_fan_in(spec.shared_senders, spec.shared_flow_bytes),
                       bw)
    assert all(record.escalated is None for record in fluid), \
        "shared case must stay elastic"
    packet = packetref.packet_fan_in(
        spec.shared_senders, spec.shared_flow_bytes, bandwidth_bps=bw)
    total_bits = spec.shared_senders * spec.shared_flow_bytes * 8
    fluid_goodput = total_bits / max(r.finish_s for r in fluid)
    cases["shared"] = CalibrationCase(
        case="shared", quantity="aggregate goodput (bps)",
        fluid_value=fluid_goodput,
        packet_value=packet.aggregate_goodput_bps,
        band=SHARED_BAND,
    )

    # -- incast: the escalation boundary end to end ----------------------
    fluid = _run_fluid(_fan_in(spec.incast_senders, spec.incast_flow_bytes,
                               service="incast"), bw)
    assert any(record.escalated == "incast" for record in fluid), \
        "incast case must cross the escalation boundary"
    packet = packetref.packet_fan_in(
        spec.incast_senders, spec.incast_flow_bytes, bandwidth_bps=bw)
    cases["incast"] = CalibrationCase(
        case="incast", quantity="mean FCT (s)",
        fluid_value=_mean_fct(fluid), packet_value=packet.mean_fct_s,
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
