"""Point-to-point links and device ports.

A :class:`Port` is a named attachment point on a device; a :class:`Link`
joins two ports and models serialisation delay (frame bits divided by link
bandwidth) plus fixed propagation delay.  Each direction of the link
serialises frames one at a time, so offered load beyond the link rate
queues up -- exactly the behaviour the window-sweep experiment (Fig. 16)
depends on.
"""

from __future__ import annotations

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
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if propagation_delay_s < 0:
            raise ValueError(f"negative propagation delay: {propagation_delay_s}")
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
        # Flow-level (fluid) occupancy, per transmit direction: flow_id ->
        # allocated rate in bps, written back by the flow engine after
        # every max-min re-solve.  Purely observational bookkeeping for
        # the packet level — serialisation below never reads it — but it
        # lets rate hooks, figures, and the escalation policy ask "what
        # is this link carrying at flow level right now?".
        self.fluid_flows = {a: {}, b: {}}
        env.process(self._serialise(a, b), name=f"link:{a.name}->{b.name}")
        env.process(self._serialise(b, a), name=f"link:{b.name}->{a.name}")

    # -- flow-level rate hooks ------------------------------------------

    def fluid_attach(self, src_port: Port, flow_id: int,
                     rate_bps: float = 0.0) -> None:
        """Register fluid flow ``flow_id`` transmitting out of ``src_port``."""
        self.fluid_flows[src_port][flow_id] = rate_bps

    def fluid_detach(self, src_port: Port, flow_id: int) -> None:
        """Remove fluid flow ``flow_id`` from the ``src_port`` direction."""
        self.fluid_flows[src_port].pop(flow_id, None)

    def fluid_set_rate(self, src_port: Port, flow_id: int,
                       rate_bps: float) -> None:
        """Record ``flow_id``'s solved rate on the ``src_port`` direction."""
        self.fluid_flows[src_port][flow_id] = rate_bps

    def fluid_load_bps(self, src_port: Port) -> float:
        """Total solved fluid rate currently leaving ``src_port``."""
        return sum(self.fluid_flows[src_port].values())

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
