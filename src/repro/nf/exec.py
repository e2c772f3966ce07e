"""Packet-level execution of a placed NF chain.

:func:`generate_trace` synthesises a deterministic packet trace (real
wire-format packets, parsed through the shared
:func:`repro.net.headers.flow_key` codec into :class:`PacketView`\\ s)
and :func:`run_chain` pushes it through a chain under a given
placement.  NF semantics live in logical packet-count time, so the
*results* — per-flow verdicts, NF counters, exported records — depend
only on the trace and the chain, never on the placement; the placement
determines only the modeled cost.  :meth:`ChainRunResult.fingerprint`
hashes the results canonically, which is what the placement-identity
tests and ``--validate-all`` compare.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.net.addressing import IPv4Address, MACAddress
from repro.net.headers import FlowKey, flow_key
from repro.net.packet import Packet
from repro.nf.base import (
    NF,
    NFState,
    PacketView,
    VERDICT_CONSUME,
    VERDICT_DROP,
    VERDICT_FORWARD,
)
from repro.sim import Environment
from repro.trioml.protocol import TRIO_ML_UDP_PORT

__all__ = [
    "ChainRunResult",
    "generate_trace",
    "packet_view",
    "run_chain",
]


def packet_view(index: int, packet: Packet) -> PacketView:
    """Parse one wire-format packet into the typed NF view.

    Public so other trace producers — e.g. the
    :mod:`repro.traffic` packet adapter — share the exact parsing
    (same ``flow_key`` codec, same payload-word extraction) that
    :func:`generate_trace` uses.
    """
    flow = flow_key(packet)
    __, __, __, payload = packet.parse_udp()
    word = int.from_bytes(payload[:4], "big") if len(payload) >= 4 else 0
    return PacketView(
        index=index,
        flow=flow,
        length=len(packet),
        payload_len=len(payload),
        payload_word=word,
    )


def generate_trace(
    num_packets: int,
    seed: int = 0,
    benign_sources: int = 24,
    attack_sources: int = 3,
    agg_groups: int = 4,
    attack_fraction: float = 0.25,
    agg_fraction: float = 0.25,
) -> Tuple[PacketView, ...]:
    """A deterministic mixed trace: benign flows, attackers, aggregation.

    Attackers concentrate traffic on few sources (so the firewall's
    per-epoch budgets trip and blocklisting engages); aggregation
    packets target ``agg_groups`` destinations on the Trio-ML port with
    a 4-byte value payload; the rest is benign background spread over
    ``benign_sources`` flows.  Identical for a given argument tuple —
    the trace is derived from one named RNG stream.
    """
    if num_packets < 1:
        raise ValueError(f"trace needs >= 1 packets: {num_packets}")
    env = Environment(initial_time=0.0, seed=seed)
    rng = env.rng_stream("nf.trace")
    src_mac = MACAddress(0x02_00_00_00_00_01)
    dst_mac = MACAddress(0x02_00_00_00_00_02)
    views: List[PacketView] = []
    for index in range(num_packets):
        draw = rng.random()
        if draw < attack_fraction:
            src_n = rng.randrange(attack_sources)
            packet = Packet.udp(
                src_mac=src_mac,
                dst_mac=dst_mac,
                src_ip=IPv4Address(f"10.9.9.{src_n + 1}"),
                dst_ip=IPv4Address("192.168.0.1"),
                src_port=3000 + src_n,
                dst_port=443,
                payload=bytes(64),
            )
        elif draw < attack_fraction + agg_fraction:
            group = rng.randrange(agg_groups)
            value = rng.randrange(1 << 16)
            packet = Packet.udp(
                src_mac=src_mac,
                dst_mac=dst_mac,
                src_ip=IPv4Address(f"10.1.0.{rng.randrange(8) + 1}"),
                dst_ip=IPv4Address(f"10.200.0.{group + 1}"),
                src_port=4000 + group,
                dst_port=TRIO_ML_UDP_PORT,
                payload=value.to_bytes(4, "big"),
            )
        else:
            src_n = rng.randrange(benign_sources)
            packet = Packet.udp(
                src_mac=src_mac,
                dst_mac=dst_mac,
                src_ip=IPv4Address(f"10.0.0.{src_n + 1}"),
                dst_ip=IPv4Address(f"192.168.0.{src_n % 8 + 1}"),
                src_port=1000 + src_n,
                dst_port=2000 + src_n % 16,
                payload=bytes(16 + rng.randrange(4) * 32),
            )
        views.append(packet_view(index, packet))
    return tuple(views)


@dataclass
class ChainRunResult:
    """Everything one chain execution produced, plus its modeled cost."""

    spec: str
    placement: Tuple[str, ...]
    packets: int
    #: flow -> (forwarded, dropped, consumed) counts over the trace.
    flow_verdicts: Dict[FlowKey, Tuple[int, int, int]]
    #: nf name -> counter snapshot.
    nf_counters: Dict[str, Dict[str, int]]
    #: nf name -> exported records, in export order.
    nf_exports: Dict[str, Tuple[Tuple[object, ...], ...]]
    #: Modeled per-packet cost of the placement, seconds.
    per_packet_s: float

    def fingerprint(self) -> str:
        """Canonical digest of the semantic results (placement excluded).

        Two runs of the same chain over the same trace must produce the
        same fingerprint whatever the placement and whether they ran in
        this process or a worker — the bit-identical contract.
        """
        parts: List[str] = [self.spec, str(self.packets)]
        for flow in sorted(self.flow_verdicts):
            parts.append(f"{flow}:{self.flow_verdicts[flow]}")
        for name in sorted(self.nf_counters):
            counters = self.nf_counters[name]
            for key in sorted(counters):
                parts.append(f"{name}.{key}={counters[key]}")
        for name in sorted(self.nf_exports):
            for record in self.nf_exports[name]:
                parts.append(f"{name}!{record}")
        digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
        return digest.hexdigest()


def run_chain(
    spec: str,
    nfs: Sequence[NF],
    placement: Sequence[str],
    trace: Sequence[PacketView],
    per_packet_s: float = 0.0,
) -> ChainRunResult:
    """Execute ``trace`` through ``nfs`` packet by packet.

    A packet traverses NFs left to right and stops at the first
    non-forward verdict (a dropped packet never reaches later NFs, a
    consumed one was absorbed — e.g. folded into an aggregation
    buffer).  Epochs tick on the global packet index, the shared
    logical clock of every NF regardless of backend.
    """
    if len(nfs) != len(placement):
        raise ValueError(
            f"placement has {len(placement)} backends for {len(nfs)} NFs"
        )
    states: List[NFState] = [NFState() for __ in nfs]
    flow_verdicts: Dict[FlowKey, List[int]] = {}
    epochs_done = [0] * len(nfs)
    for pkt in trace:
        verdict = VERDICT_FORWARD
        for nf, state in zip(nfs, states):
            verdict = nf.process(state, pkt)
            if verdict != VERDICT_FORWARD:
                break
        tally = flow_verdicts.setdefault(pkt.flow, [0, 0, 0])
        if verdict == VERDICT_FORWARD:
            tally[0] += 1
        elif verdict == VERDICT_DROP:
            tally[1] += 1
        elif verdict == VERDICT_CONSUME:
            tally[2] += 1
        else:
            raise ValueError(f"NF returned unknown verdict {verdict!r}")
        tick = pkt.index + 1
        for slot, (nf, state) in enumerate(zip(nfs, states)):
            if tick % nf.epoch_packets == 0:
                nf.on_epoch(state, epochs_done[slot])
                epochs_done[slot] += 1
    return ChainRunResult(
        spec=spec,
        placement=tuple(placement),
        packets=len(trace),
        flow_verdicts={
            flow: (t[0], t[1], t[2]) for flow, t in flow_verdicts.items()
        },
        nf_counters={
            nf.name: nf.counters(state) for nf, state in zip(nfs, states)
        },
        nf_exports={
            nf.name: nf.exports(state) for nf, state in zip(nfs, states)
        },
        per_packet_s=per_packet_s,
    )
