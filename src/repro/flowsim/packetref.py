"""Packet-level reference scenarios for the hybrid flow simulation.

These are the *ground truth* the fluid level is pinned to.  Each
scenario builds a small, fully packet-level simulation out of the real
:mod:`repro.net` stack — hosts with NICs, store-and-forward switching,
serialising links — runs it to completion, and reports per-flow
completion times and goodputs.

Three shapes cover the escalation triggers and the calibration bridge:

* :func:`packet_pair` — one sender through a switch to one receiver.
  The no-contention baseline; calibrates the fluid level's closed-form
  FCT (rate + fixed path latency).
* :func:`packet_fan_in` — N synchronised senders converging on one
  receiver through a single egress (the incast shape).  The measured
  per-flow FCT embeds the queue-drain behaviour an equal-share fluid
  model underestimates for small and medium flows.
* :func:`packet_pfe_goodput` — per-worker goodput of the
  hash-table-contended Trio PFE aggregation path, reusing the §6.3
  single-PFE testbed at small sizing.

Every function is a pure, deterministic function of its arguments (no
RNG, no wall clock), so results may be memoised freely; the engine
caches them per escalation bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from repro.flowsim.flow import DEFAULT_MTU_PAYLOAD_BYTES
from repro.net import IPv4Address, MACAddress, Topology
from repro.net.host import Host
from repro.net.link import Port
from repro.net.packet import Packet
from repro.sim import Environment

__all__ = [
    "PacketRefResult",
    "packet_fan_in",
    "packet_pair",
    "packet_pfe_goodput",
]

#: UDP ports used by the reference flows (arbitrary, fixed).
_SRC_PORT = 40000
_DST_PORT = 9000


@dataclass(frozen=True)
class PacketRefResult:
    """Measured outcome of one packet-level reference run."""

    #: Per-sender flow completion time (seconds), in sender order.
    fct_s: Tuple[float, ...]
    #: Payload bytes each sender delivered.
    flow_bytes: float
    #: Aggregate receiver goodput over the run (bps).
    aggregate_goodput_bps: float

    @property
    def mean_fct_s(self) -> float:
        return sum(self.fct_s) / len(self.fct_s)

    @property
    def max_fct_s(self) -> float:
        return max(self.fct_s)

    @property
    def per_flow_goodput_bps(self) -> float:
        """Mean per-flow goodput implied by the measured FCTs."""
        return self.flow_bytes * 8 / self.mean_fct_s


def _sender(host: Host, dst_mac, dst_ip, size_bytes: int,
            payload_bytes: int):
    """Send ``size_bytes`` of payload as back-to-back UDP frames."""
    remaining = int(size_bytes)
    while remaining > 0:
        chunk = min(payload_bytes, remaining)
        pending = host.try_send_udp(
            dst_mac, dst_ip, _SRC_PORT, _DST_PORT, bytes(chunk)
        )
        if pending is not None:
            yield pending
        remaining -= chunk


def _run_fan_in(num_senders: int, flow_bytes: int, bandwidth_bps: float,
                propagation_s: float, payload_bytes: int,
                tx_overhead_s: float) -> PacketRefResult:
    env = Environment()
    topology = Topology(env)
    receiver = Host(env, "ref-rx", MACAddress(0xFF00), IPv4Address("10.99.0.1"))
    topology.add_host(receiver)

    # Store-and-forward switch: every ingress port forwards to the one
    # egress port toward the receiver, whose link is the fan-in
    # bottleneck.
    egress = Port(env, "ref-sw:out")
    topology.register_port(egress, "ref-sw")
    topology.connect(egress, receiver.nic.port,
                     bandwidth_bps=bandwidth_bps,
                     propagation_delay_s=propagation_s)

    def forward(packet: Packet, port: Port) -> None:
        egress.send(packet)

    senders: List[Host] = []
    for index in range(num_senders):
        host = Host(
            env, f"ref-tx{index}", MACAddress(0x1000 + index),
            IPv4Address(f"10.99.{1 + index // 250}.{2 + index % 250}"),
            tx_overhead_s=tx_overhead_s,
        )
        topology.add_host(host)
        ingress = Port(env, f"ref-sw:in{index}", rx_handler=forward)
        topology.register_port(ingress, "ref-sw")
        topology.connect(host.nic.port, ingress,
                         bandwidth_bps=bandwidth_bps,
                         propagation_delay_s=propagation_s)
        senders.append(host)

    finish_s = [0.0] * num_senders
    received = [0] * num_senders
    ip_to_index = {str(host.ip): i for i, host in enumerate(senders)}
    done = env.event()
    outstanding = [num_senders]

    def sink():
        while True:
            frame = yield receiver.recv()
            __, ip, __, payload = frame.parse_udp()
            index = ip_to_index[str(ip.src)]
            received[index] += len(payload)
            if received[index] >= flow_bytes:
                finish_s[index] = env.now
                outstanding[0] -= 1
                if outstanding[0] == 0:
                    done.succeed()
                    return

    env.process(sink(), name="ref-sink")
    for host in senders:
        env.process(
            _sender(host, receiver.mac, receiver.ip, flow_bytes,
                    payload_bytes),
            name=f"ref-flow:{host.name}",
        )
    env.run(until=done)
    total_bits = flow_bytes * 8 * num_senders
    return PacketRefResult(
        fct_s=tuple(finish_s),
        flow_bytes=float(flow_bytes),
        aggregate_goodput_bps=total_bits / env.now,
    )


@lru_cache(maxsize=256)
def packet_fan_in(num_senders: int, flow_bytes: int,
                  bandwidth_bps: float = 100e9,
                  propagation_s: float = 1e-6,
                  payload_bytes: int = DEFAULT_MTU_PAYLOAD_BYTES,
                  ) -> PacketRefResult:
    """N synchronised senders, one receiver, one bottleneck egress."""
    if num_senders < 1:
        raise ValueError(f"need at least one sender, got {num_senders}")
    return _run_fan_in(num_senders, flow_bytes, bandwidth_bps,
                       propagation_s, payload_bytes, tx_overhead_s=0.0)


@lru_cache(maxsize=64)
def packet_pair(flow_bytes: int, bandwidth_bps: float = 100e9,
                propagation_s: float = 1e-6,
                payload_bytes: int = DEFAULT_MTU_PAYLOAD_BYTES,
                tx_overhead_s: float = 0.0) -> PacketRefResult:
    """One sender through the switch to one receiver.

    ``tx_overhead_s`` models a straggling host's per-packet DPDK-side
    cost; the measured goodput is then the straggler's sustainable rate.
    """
    return _run_fan_in(1, flow_bytes, bandwidth_bps, propagation_s,
                       payload_bytes, tx_overhead_s=tx_overhead_s)


@lru_cache(maxsize=16)
def packet_pfe_goodput(num_workers: int = 4, grads_per_packet: int = 256,
                       blocks: int = 24, window: int = 8) -> float:
    """Per-worker goodput (bps) of the hash-table-contended PFE path.

    Runs the §6.3 single-PFE aggregation testbed — PPE dispatch, hash
    lookup under contention, RMW aggregation, result multicast — at
    small sizing and reports model bits per worker divided by
    completion time.  This is the packet-derived rate an escalated
    ``"aggregation"`` flow is pinned to.
    """
    from repro.harness.testbed import run_single_pfe_allreduce
    from repro.trioml.config import TrioMLJobConfig

    config = TrioMLJobConfig(grads_per_packet=grads_per_packet,
                             window=window)
    testbed, __ = run_single_pfe_allreduce(config, blocks,
                                           num_workers=num_workers)
    return grads_per_packet * blocks * 32 / testbed.env.now
