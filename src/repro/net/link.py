"""Point-to-point links and device ports.

A :class:`Port` is a named attachment point on a device; a :class:`Link`
joins two ports and models serialisation delay (frame bits divided by link
bandwidth) plus fixed propagation delay.  Each direction of the link
serialises frames one at a time, so offered load beyond the link rate
queues up -- exactly the behaviour the window-sweep experiment (Fig. 16)
depends on.  A direction is a FIFO server with a known service time, so
a frame's delivery is fixed when it is sent: one scheduled event per
frame, no serialiser process (the way ns-3's point-to-point channel
schedules a reception when a transmission starts).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.sim import Environment

__all__ = ["Link", "Port"]

#: Callback type invoked when a frame arrives at a port.
RxHandler = Callable[[Packet, "Port"], None]


class Port:
    """One attachment point: transmit via :meth:`send`, receive via handler.

    A port belongs to a device; the device registers an ``rx_handler`` that
    the link calls on frame delivery.
    """

    def __init__(self, env: Environment, name: str,
                 rx_handler: Optional[RxHandler] = None):
        self.env = env
        self.name = name
        self.rx_handler = rx_handler
        self.link: Optional["Link"] = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0

    @property
    def connected(self) -> bool:
        return self.link is not None

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission on the attached link."""
        if self.link is None:
            raise RuntimeError(f"port {self.name!r} is not connected to a link")
        self.tx_packets += 1
        self.tx_bytes += len(packet)
        self.link.transmit(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Called by the link when a frame arrives at this port."""
        self.rx_packets += 1
        self.rx_bytes += len(packet)
        if self.rx_handler is not None:
            self.rx_handler(packet, self)

    def __repr__(self) -> str:
        state = "up" if self.connected else "down"
        return f"<Port {self.name} {state}>"


class Link:
    """Full-duplex point-to-point link between two ports.

    Each direction is its own FIFO server, so the two directions never
    contend with each other (as on a real fibre pair).  A frame sent at
    ``now`` starts serialising at ``max(now, free_at)``, the instant the
    frames ahead of it have left, and finishes ``bits / bandwidth`` later.
    """

    def __init__(
        self,
        env: Environment,
        a: Port,
        b: Port,
        bandwidth_bps: float = 100e9,
        propagation_delay_s: float = 1e-6,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ):
        """``loss_rate`` is the per-frame drop probability (transient
        congestion / corruption), applied independently per direction
        with a deterministic seeded RNG."""
        # Chained bounds: NaN fails them, where it passes `<= 0`.
        if not 0 < bandwidth_bps < math.inf:
            raise ValueError(
                f"bandwidth_bps must be positive and finite, got {bandwidth_bps}")
        if not 0 <= propagation_delay_s < math.inf:
            raise ValueError(f"propagation_delay_s must be non-negative and "
                             f"finite, got {propagation_delay_s}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1): {loss_rate}")
        if a.connected or b.connected:
            raise RuntimeError("port already attached to a link")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay_s = float(propagation_delay_s)
        self.loss_rate = float(loss_rate)
        # Stream keyed by loss_seed alone, so two links with the same
        # seed drop the same frame indices regardless of creation order.
        self._loss_rng = env.rng_stream(loss_seed)
        self.frames_lost = 0
        self.ports = (a, b)
        a.link = self
        b.link = self
        #: Per direction (keyed by the sending port): when the frames
        #: already queued there finish serialising.
        self._free_at = {a: env.now, b: env.now}
        self._peer = {a: b, b: a}

    def transmit(self, src: Port, packet: Packet) -> None:
        """Serialise ``packet`` out of ``src`` behind the frames queued
        there, and schedule its delivery at the far end."""
        env = self.env
        now = env.now
        free_at = self._free_at[src]
        service = packet.bits / self.bandwidth_bps
        finish = free_at + service if free_at > now else now + service
        self._free_at[src] = finish
        if self.loss_rate:
            # The loss sample is drawn when serialisation finishes, so the
            # draws of both directions come in finish order.
            env.call_at(finish, self._finish_lossy, self._peer[src], packet)
            return
        env.call_at(finish + self.propagation_delay_s,
                    self._peer[src].deliver, packet)

    def _finish_lossy(self, dst: Port, packet: Packet) -> None:
        if self._loss_rng.random() < self.loss_rate:
            self.frames_lost += 1
            return
        self.env.call_later(self.propagation_delay_s, dst.deliver, packet)
