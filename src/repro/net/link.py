"""Point-to-point links and device ports.

A :class:`Port` is a named attachment point on a device; a :class:`Link`
joins two ports and models serialisation delay (frame bits divided by link
bandwidth) plus fixed propagation delay.  Each direction of the link
serialises frames one at a time, so offered load beyond the link rate
queues up -- exactly the behaviour the window-sweep experiment (Fig. 16)
depends on.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.net.packet import Packet
from repro.sim import Environment, Store

__all__ = ["Link", "Port"]

#: Callback type invoked when a frame arrives at a port.
RxHandler = Callable[[Packet, "Port"], Any]


class Port:
    """One attachment point: transmit via :meth:`send`, receive via handler.

    A port belongs to a device; the device registers an ``rx_handler`` that
    the link calls on frame delivery.  The handler may be a plain function
    or return a generator, in which case it is run as a simulation process.
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
        if self.rx_handler is None:
            return
        result = self.rx_handler(packet, self)
        if result is not None and hasattr(result, "send"):
            self.env.process(result, name=f"rx@{self.name}")

    def __repr__(self) -> str:
        state = "up" if self.connected else "down"
        return f"<Port {self.name} {state}>"


class Link:
    """Full-duplex point-to-point link between two ports.

    Each direction has its own serialiser process and FIFO, so the two
    directions never contend with each other (as on a real fibre pair).
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
        self._queues = {a: Store(env), b: Store(env)}
        env.process(self._serialise(a, b), name=f"link:{a.name}->{b.name}")
        env.process(self._serialise(b, a), name=f"link:{b.name}->{a.name}")

    def other_end(self, port: Port) -> Port:
        """The port on the far side of ``port``."""
        a, b = self.ports
        if port is a:
            return b
        if port is b:
            return a
        raise ValueError(f"{port!r} is not attached to this link")

    def transmit(self, src: Port, packet: Packet) -> None:
        """Queue ``packet`` for serialisation out of ``src``."""
        self._queues[src].put_nowait(packet)

    def _serialise(self, src: Port, dst: Port):
        queue = self._queues[src]
        while True:
            packet = yield queue.get()
            yield self.env.delay(packet.bits / self.bandwidth_bps)
            if self.loss_rate and self._loss_rng.random() < self.loss_rate:
                self.frames_lost += 1
                continue
            # Propagation happens in parallel with the next serialisation:
            # one scheduled delivery event, no per-frame process.
            self.env.call_later(self.propagation_delay_s, dst.deliver, packet)
