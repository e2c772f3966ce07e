"""Compile a traffic scenario into either simulation level.

:func:`run_fluid` drives a scenario end-to-end through the one fluid
runner, :func:`repro.flowsim.scenario.run_flows`, on the scenario's own
leaf/spine fabric with the escalation boundary active — including the
``"microburst"`` and ``"ddos"`` classes the traffic library adds — and
returns its :class:`~repro.flowsim.scenario.ScenarioResult`.

:func:`packet_stream` compiles the *same* scenario into wire-format
packets parsed into :class:`~repro.nf.base.PacketView`\\ s for the
NF-chain executor: flows become deterministic per-flow packet trains,
and ``"ddos"`` flows are mapped onto a small spoofed source-IP pool on
``dst_port`` 443 so the firewall NF's per-source policers see the
flood the flow level only models as fan-in.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.flowsim.flow import DEFAULT_MTU_PAYLOAD_BYTES
from repro.flowsim.scenario import ScenarioResult, run_flows
from repro.net import IPv4Address, MACAddress
from repro.net.packet import Packet
from repro.nf.base import PacketView
from repro.nf.exec import packet_view
from repro.sim import Environment
from repro.traffic.base import TrafficScenario
from repro.traffic.scenarios import DDoSScenario

__all__ = [
    "packet_stream",
    "run_fluid",
]


def run_fluid(scenario: TrafficScenario,
              num_flows: int) -> ScenarioResult:
    """Run ``num_flows`` of ``scenario`` through the fluid engine on the
    scenario's fabric, with the scenario's escalation thresholds."""
    return run_flows(scenario.fabric, scenario.escalation(),
                     lambda env: scenario.generate(env, num_flows))


_SRC_MAC = MACAddress(0x02_00_00_00_00_01)
_DST_MAC = MACAddress(0x02_00_00_00_00_02)


def packet_stream(
    scenario: TrafficScenario,
    num_packets: int,
    num_flows: int = 0,
    max_packets_per_flow: int = 8,
) -> Tuple[PacketView, ...]:
    """The first ``num_packets`` wire packets of a scenario run.

    Each generated flow becomes a train of up to
    ``max_packets_per_flow`` MTU-paced packets starting at the flow's
    start time; trains from concurrent flows interleave in global time
    order, which is what exercises per-epoch NF state (policer budgets,
    heavy-hitter tables) the way real traffic does.  ``num_flows``
    defaults to ``num_packets`` — every flow contributes at least one
    packet, so the stream is always long enough.

    Deterministic end to end: the flow list comes from the scenario's
    seed-tree stream and the flow-to-packet expansion draws no
    randomness at all.
    """
    if num_packets < 1:
        raise ValueError(f"stream needs >= 1 packets: {num_packets}")
    if num_flows < 1:
        num_flows = num_packets
    env = Environment()
    flows = scenario.generate(env, num_flows)
    fabric = scenario.fabric
    ip_of = {name: fabric.host_ip(*fabric.host_address(i))
             for i, name in enumerate(fabric.host_names())}
    spacing_s = (DEFAULT_MTU_PAYLOAD_BYTES * 8.0
                 / fabric.host_bandwidth_bps)
    spoofed = (scenario.spoofed_sources
               if isinstance(scenario, DDoSScenario) else 0)

    events: List[Tuple[float, int, int]] = []
    for seq, flow in enumerate(flows):
        train = min(
            max_packets_per_flow,
            max(1, math.ceil(flow.size_bytes / DEFAULT_MTU_PAYLOAD_BYTES)),
        )
        for k in range(train):
            events.append((flow.start_s + k * spacing_s, seq, k))
    events.sort()

    views: List[PacketView] = []
    attack_seq: Dict[int, int] = {}
    for index, (_, seq, _k) in enumerate(events[:num_packets]):
        flow = flows[seq]
        if flow.service == "ddos" and spoofed > 0:
            # One spoofed source IP per flood flow, cycling a small
            # pool: the per-source packet counts the firewall polices
            # concentrate on `spoofed` addresses however many flood
            # flows the scenario launched.
            spoof = attack_seq.setdefault(seq, len(attack_seq))
            src_ip = IPv4Address(f"10.99.{(spoof % spoofed) // 200}."
                                 f"{(spoof % spoofed) % 200 + 1}")
            src_port, dst_port = 3000 + spoof % 64, 443
        else:
            src_ip = ip_of[flow.src]
            src_port = 1024 + flow.flow_id % 60_000
            dst_port = 2000 + flow.flow_id % 16
        packet = Packet.udp(
            src_mac=_SRC_MAC,
            dst_mac=_DST_MAC,
            src_ip=src_ip,
            dst_ip=ip_of[flow.dst],
            src_port=src_port,
            dst_port=dst_port,
            payload=bytes(64),
        )
        views.append(packet_view(index, packet))
    return tuple(views)
