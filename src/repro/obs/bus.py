"""Instrumentation bus: the active recording session, if any.

Every recording site asks :func:`session` once and records only when a
session is active; hot loops hoist the check out of the loop::

    obs = _obs.session()
    if obs is not None:
        obs.probe("hash.scan_sweeps", table=name)

The zero-overhead contract: ``_session`` is a module global that stays
None until :func:`enable` (or :func:`push`) makes an
:class:`ObsSession` active.  A disabled site therefore costs one
function call returning that global and one ``is not None`` test —
measured by ``perfjson`` as ``obs.null_probe_ns`` and guarded in CI.

Determinism contract (detlint-enforced): sinks never read the wall
clock, never draw randomness, and never schedule simulation events.
All timestamps are simulated seconds passed in by the call site.
"""

from __future__ import annotations

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
    "suppressed",
    "CapturedWorker",
]


class ObsSession:
    """An active recording: one metrics registry + one tracer.

    Collectors are zero-data-path-cost exporters: model objects register
    a callable at construction time and :meth:`finalize` runs each one
    once against the registry, pulling counters the models already keep
    (PPE busy time, RMW stats, app counters) into the snapshot.
    """

    def __init__(self, scope: str = "main"):
        self.scope = scope
        self.registry = MetricsRegistry()
        self.tracer = Tracer(scope=scope)
        self._collectors: List[Callable[[MetricsRegistry], None]] = []
        self._finalized = False

    # -- probe surface --------------------------------------------------

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
# Module-level state
# ----------------------------------------------------------------------

#: The active session, or None while recording is off.
_session: Optional[ObsSession] = None
_stack: List[ObsSession] = []


def enable(scope: str = "main") -> ObsSession:
    """Start recording; returns the new active session (stackable)."""
    return push(ObsSession(scope))


def push(new_session: ObsSession) -> ObsSession:
    """Make ``new_session`` the active session until :func:`disable`."""
    global _session
    _stack.append(new_session)
    _session = new_session
    return new_session


def disable() -> Optional[ObsSession]:
    """Stop the active session and return it (finalized)."""
    global _session
    if not _stack:
        return None
    finished = _stack.pop()
    finished.finalize()
    _session = _stack[-1] if _stack else None
    return finished


def enabled() -> bool:
    return _session is not None


def session() -> Optional[ObsSession]:
    """The active session, or None when observability is disabled."""
    return _session


class suppressed:
    """Context manager silencing probes without ending the session.

    Used around *reference* sub-simulations — the flow-level engine's
    packet-level escalation and calibration runs — whose internal
    environments start at time zero and have no relation to the outer
    simulated timeline.  Recording their spans would splice bogus
    timestamps into the active trace, so :func:`session` returns None
    for the duration; the enclosing session resumes untouched. ::

        with obs.bus.suppressed():
            result = packet_fan_in(32, 20_000)
    """

    __slots__ = ("_saved",)

    def __enter__(self):
        global _session
        self._saved = _session
        _session = None
        return self

    def __exit__(self, exc_type, exc, tb):
        global _session
        _session = self._saved
        return False


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
        # imports repro.sim, which imports obs).
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
