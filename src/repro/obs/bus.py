"""Instrumentation bus: the dispatch layer between probes and sinks.

Call sites throughout the simulator call the module-level functions
(:func:`probe`, :func:`observe`, :func:`gauge`, :func:`sample`,
:func:`instant`, :func:`complete`) unconditionally cheaply *guarded* by
:func:`enabled`; hot loops hoist a single :func:`enabled`/:func:`session`
check so a disabled run pays nothing per event.

The zero-overhead contract: ``_sink`` is a module global that is a
:class:`NullSink` (every method a no-op, ``enabled`` False) until
:func:`enable` swaps in an :class:`ObsSession`.  A disabled
``obs.probe(...)`` is therefore one global load + one no-op method call
— measured by ``perfjson`` as ``obs.null_probe_ns`` and guarded in CI.

Determinism contract (detlint-enforced): sinks never read the wall
clock, never draw randomness, and never schedule simulation events.
All timestamps are simulated seconds passed in by the call site.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "ObsSession",
    "enable",
    "push",
    "disable",
    "enabled",
    "session",
    "probe",
    "observe",
    "gauge",
    "sample",
    "instant",
    "complete",
    "register_collector",
    "span",
    "suppressed",
    "traced",
    "CapturedWorker",
]


class NullSink:
    """Disabled-mode sink: every probe is a no-op."""

    __slots__ = ()
    enabled = False

    def probe(self, name, value=1.0, **fields):
        pass

    def observe(self, name, value, **labels):
        pass

    def gauge(self, name, value, **labels):
        pass

    def sample(self, track, ts_s, value):
        pass

    def instant(self, name, ts_s, track="events", **args):
        pass

    def complete(self, name, start_s, end_s, track="spans", **args):
        pass

    def register_collector(self, fn):
        pass


NULL_SINK = NullSink()


class ObsSession:
    """An active recording: one metrics registry + one tracer.

    Collectors are zero-data-path-cost exporters: model objects register
    a callable at construction time and :meth:`finalize` runs each one
    once against the registry, pulling counters the models already keep
    (PPE busy time, RMW stats, app counters) into the snapshot.
    """

    enabled = True

    def __init__(self, scope: str = "main"):
        self.scope = scope
        self.registry = MetricsRegistry()
        self.tracer = Tracer(scope=scope)
        self._collectors: List[Callable[[MetricsRegistry], None]] = []
        self._finalized = False

    # -- probe surface (same shape as NullSink) ------------------------

    def probe(self, name: str, value: float = 1.0, **fields) -> None:
        """Increment counter ``name``; keyword args become labels."""
        counter = self.registry.counter(
            name, labels=tuple(sorted(fields)))
        counter.inc(value, **{k: str(v) for k, v in fields.items()})

    def observe(self, name: str, value: float, **labels) -> None:
        hist = self.registry.histogram(name, labels=tuple(sorted(labels)))
        hist.observe(value, **{k: str(v) for k, v in labels.items()})

    def gauge(self, name: str, value: float, **labels) -> None:
        metric = self.registry.gauge(name, labels=tuple(sorted(labels)))
        metric.set(value, **{k: str(v) for k, v in labels.items()})

    def sample(self, track: str, ts_s: float, value: float) -> None:
        self.tracer.sample(track, ts_s, value)

    def instant(self, name: str, ts_s: float,
                track: str = "events", **args) -> None:
        self.tracer.instant(name, ts_s, track=track, **args)

    def complete(self, name: str, start_s: float, end_s: float,
                 track: str = "spans", **args) -> None:
        self.tracer.complete(name, start_s, end_s, track=track, **args)

    def register_collector(
            self, fn: Callable[[MetricsRegistry], None]) -> None:
        self._collectors.append(fn)

    # -- shared-state probes ------------------------------------------
    # The Trio models report XTXN windows and RMW engine commits here; a
    # plain session keeps nothing (repro.tools.racecheck's session does).

    def record(self, actor, op: str, addr: int, size: int, start: float,
               end: float, *, atomic: bool = False,
               space: str = "mem") -> None:
        """One shared-memory access window ``[start, end)``."""

    def record_hash(self, actor, op: str, key, start: float,
                    end: float) -> None:
        """One hash-block op window ``[start, end)``."""

    def note_engine_commit(self, engine_index: int) -> None:
        """One per-op commit at RMW engine ``engine_index``."""

    # -- lifecycle -----------------------------------------------------

    def finalize(self) -> None:
        """Run registered collectors once (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        for fn in self._collectors:
            fn(self.registry)

    def export(self) -> dict:
        """Picklable dump for cross-process merging."""
        self.finalize()
        return {
            "scope": self.scope,
            "metrics": self.registry.snapshot(),
            "trace": self.tracer.export(),
        }

    def merge(self, exported: dict) -> None:
        """Fold a worker session's :meth:`export` into this one."""
        self.registry.merge(exported["metrics"])
        self.tracer.merge(exported["trace"])


# ----------------------------------------------------------------------
# Module-level state + dispatch
# ----------------------------------------------------------------------

_sink = NULL_SINK
_stack: List[ObsSession] = []


def enable(scope: str = "main") -> ObsSession:
    """Start recording; returns the new active session (stackable)."""
    return push(ObsSession(scope))


def push(new_session: ObsSession) -> ObsSession:
    """Make ``new_session`` the active sink until :func:`disable`."""
    global _sink
    _stack.append(new_session)
    _sink = new_session
    return new_session


def disable() -> Optional[ObsSession]:
    """Stop the active session and return it (finalized)."""
    global _sink
    if not _stack:
        return None
    finished = _stack.pop()
    finished.finalize()
    _sink = _stack[-1] if _stack else NULL_SINK
    return finished


def enabled() -> bool:
    return _sink.enabled


def session() -> Optional[ObsSession]:
    """The active session, or None when observability is disabled."""
    return _sink if _sink.enabled else None


def probe(name, value=1.0, **fields):
    _sink.probe(name, value, **fields)


def observe(name, value, **labels):
    _sink.observe(name, value, **labels)


def gauge(name, value, **labels):
    _sink.gauge(name, value, **labels)


def sample(track, ts_s, value):
    _sink.sample(track, ts_s, value)


def instant(name, ts_s, track="events", **args):
    _sink.instant(name, ts_s, track=track, **args)


def complete(name, start_s, end_s, track="spans", **args):
    _sink.complete(name, start_s, end_s, track=track, **args)


def register_collector(fn):
    _sink.register_collector(fn)


class suppressed:
    """Context manager silencing probes without ending the session.

    Used around *reference* sub-simulations — the flow-level engine's
    packet-level escalation and calibration runs — whose internal
    environments start at time zero and have no relation to the outer
    simulated timeline.  Recording their spans would splice bogus
    timestamps into the active trace, so the bus is pointed at the null
    sink for the duration; the enclosing session resumes untouched. ::

        with obs.bus.suppressed():
            result = packet_fan_in(32, 20_000)
    """

    __slots__ = ("_saved",)

    def __enter__(self):
        global _sink
        self._saved = _sink
        _sink = NULL_SINK
        return self

    def __exit__(self, exc_type, exc, tb):
        global _sink
        _sink = self._saved
        return False


# ----------------------------------------------------------------------
# Span helpers
# ----------------------------------------------------------------------

class span:
    """Context manager recording a complete span off a simulated clock.

    ``clock`` is any object with a ``now`` attribute in simulated
    seconds (an ``Environment`` or a PPE ``ThreadContext``)::

        with obs.span("aggregate", env, track="trioml/blocks", job=3):
            ...
    """

    __slots__ = ("name", "clock", "track", "args", "_start", "_sink")

    def __init__(self, name: str, clock, track: str = "spans", **args):
        self.name = name
        self.clock = clock
        self.track = track
        self.args = args
        self._start = 0.0
        self._sink = None

    def __enter__(self):
        self._sink = _sink
        if self._sink.enabled:
            self._start = self.clock.now
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._sink.enabled:
            self._sink.complete(self.name, self._start, self.clock.now,
                                track=self.track, **self.args)
        return False


def traced(name: Optional[str] = None, track: str = "spans",
           clock: str = "env"):
    """Decorator tracing an instance method as a complete span.

    ``clock`` names the attribute on ``self`` holding the simulated
    clock (default ``env``).  Overhead when disabled is one global load
    + attribute check per call, so reserve it for non-hot methods.
    """

    def decorate(fn):
        span_name = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            active = _sink
            if not active.enabled:
                return fn(self, *args, **kwargs)
            clk = getattr(self, clock)
            start = clk.now
            try:
                return fn(self, *args, **kwargs)
            finally:
                active.complete(span_name, start, clk.now, track=track)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Parallel-sweep capture
# ----------------------------------------------------------------------

class CapturedWorker:
    """Picklable wrapper running a sweep worker under a fresh session.

    Used by the harness's ``_map_points``: each sweep point runs with
    its own scoped session and returns ``(result, session.export())``;
    the parent merges exports in point order, so serial and parallel
    runs produce bit-identical snapshots.
    """

    __slots__ = ("worker",)

    def __init__(self, worker):
        self.worker = worker

    def __call__(self, indexed_point):
        # Deferred import: keeps repro.obs a leaf package (repro.net
        # itself imports obs for the packet-tracer probes).
        from repro.net.packet import reset_packet_ids

        index, point = indexed_point
        # Packet ids are drawn from a process-global stream, so span
        # names like "pkt 181" would depend on what ran earlier in the
        # process.  Each sweep point is an independent simulation:
        # restarting the stream makes serial and parallel captures
        # byte-identical.
        reset_packet_ids()
        enable(scope=f"point{index:03d}")
        try:
            result = self.worker(point)
        finally:
            captured = disable()
        return result, captured.export()
