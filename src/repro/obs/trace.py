"""Span/event tracer driven off the *simulated* clock.

The tracer is the timeline half of :mod:`repro.obs`.  Call sites record

* **complete spans** — ``complete(name, start_s, end_s, track=...)`` for
  anything with a duration (a PPE thread, a TrioML block lifetime, a
  training iteration phase);
* **instants** — ``instant(name, ts_s, track=...)`` for point events
  (a straggler mitigation, a heavy-hitter report);
* **counter samples** — ``sample(track, ts_s, value)`` for stepped
  series (threads in use, RMW engines busy, hash-table occupancy).

Timestamps are simulated seconds; export converts to the microseconds
Chrome's ``trace_event`` format expects, so a recorded trace loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.
Each *track* becomes its own thread row; counter tracks render as
Perfetto counter lanes.

Because only the simulated clock is read, traces are deterministic:
the same experiment produces the same trace file byte-for-byte, and
:meth:`Tracer.merge` recombines per-worker exports from a parallel
sweep into the same document a serial run would have written.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "Tracer",
    "validate_chrome_trace",
    "render_timeline",
]

#: Hard cap on buffered events; beyond this the tracer counts drops
#: instead of growing without bound on long runs.
DEFAULT_MAX_EVENTS = 500_000

_PRIMARY_PID = 1


class Tracer:
    """Buffers trace events and exports Chrome ``trace_event`` JSON."""

    def __init__(self, scope: str = "main",
                 max_events: int = DEFAULT_MAX_EVENTS):
        self.scope = scope
        self.max_events = max_events
        self.dropped = 0
        # Each event: (kind, track, name, ts_s, dur_s, args)
        self._events: List[Tuple[str, str, str, float, float,
                                 Optional[dict]]] = []
        # Track registration order fixes tid assignment deterministically.
        self._tracks: Dict[str, int] = {}
        # Merged (pid, scope, export) triples from worker tracers.
        self._merged: List[Tuple[int, str, dict]] = []

    def __len__(self) -> int:
        return len(self._events)

    def _tid(self, track: str) -> int:
        tid = self._tracks.get(track)
        if tid is None:
            tid = self._tracks[track] = len(self._tracks) + 1
        return tid

    def _push(self, kind: str, track: str, name: str, ts_s: float,
              dur_s: float, args: Optional[dict]) -> None:
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._tid(track)
        self._events.append((kind, track, name, ts_s, dur_s, args))

    def complete(self, name: str, start_s: float, end_s: float,
                 track: str = "spans", **args) -> None:
        """Record a span with explicit start and end (``ph: "X"``)."""
        self._push("X", track, name, start_s, max(0.0, end_s - start_s),
                   args or None)

    def instant(self, name: str, ts_s: float,
                track: str = "events", **args) -> None:
        """Record a point event (``ph: "i"``)."""
        self._push("i", track, name, ts_s, 0.0, args or None)

    def sample(self, track: str, ts_s: float, value: float) -> None:
        """Record one sample of a stepped counter series (``ph: "C"``)."""
        self._push("C", track, track, ts_s, 0.0, {"value": value})

    # ------------------------------------------------------------------
    # Export / merge
    # ------------------------------------------------------------------

    def export(self) -> dict:
        """Picklable raw dump for cross-process merging."""
        return {
            "scope": self.scope,
            "events": list(self._events),
            "tracks": list(self._tracks),
            "dropped": self.dropped,
        }

    def merge(self, exported: dict, pid: Optional[int] = None) -> None:
        """Fold a worker's :meth:`export` in under its own process row.

        Each merged scope gets a fresh ``pid`` so Perfetto shows sweep
        points as separate process groups; merge order (sweep-point
        order) fixes pid assignment deterministically.
        """
        scope = exported["scope"]
        if pid is None:
            pid = _PRIMARY_PID + 1 + len(self._merged)
        self._merged.append((pid, scope, exported))
        self.dropped += exported["dropped"]

    def to_chrome(self) -> dict:
        """Chrome ``trace_event`` JSON document (object format)."""
        events: List[dict] = []
        self._emit_scope(events, _PRIMARY_PID, self.scope,
                         self._events, list(self._tracks))
        for pid, scope, exported in self._merged:
            self._emit_scope(events, pid, scope,
                             exported["events"], exported["tracks"])
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs",
                "clock": "simulated",
                "dropped_events": self.dropped,
            },
        }

    @staticmethod
    def _emit_scope(out: List[dict], pid: int, scope: str,
                    events, tracks: List[str]) -> None:
        out.append({
            "ph": "M", "pid": pid, "tid": 0,
            "name": "process_name", "args": {"name": scope},
        })
        tids = {track: i + 1 for i, track in enumerate(tracks)}
        for track, tid in tids.items():
            out.append({
                "ph": "M", "pid": pid, "tid": tid,
                "name": "thread_name", "args": {"name": track},
            })
        for kind, track, name, ts_s, dur_s, args in events:
            event = {
                "ph": kind, "pid": pid, "tid": tids[track],
                "name": name, "ts": ts_s * 1e6,
            }
            if kind == "X":
                event["dur"] = dur_s * 1e6
            elif kind == "i":
                event["s"] = "t"
            if args:
                event["args"] = args
            out.append(event)


# ----------------------------------------------------------------------
# Chrome trace-event schema validation
# ----------------------------------------------------------------------

_REQUIRED_BY_PHASE = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid"),
    "C": ("name", "ts", "pid", "tid", "args"),
    "M": ("name", "pid", "tid", "args"),
}


def validate_chrome_trace(doc: dict) -> List[str]:
    """Check a document against the Chrome trace-event schema.

    Returns a list of human-readable problems; empty means the trace is
    well-formed (object format, known phases, required keys present,
    numeric non-negative timestamps).
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        required = _REQUIRED_BY_PHASE.get(phase)
        if required is None:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        for key in required:
            if key not in event:
                errors.append(f"{where}: phase {phase!r} missing {key!r}")
        for key in ("ts", "dur"):
            if key in event:
                value = event[key]
                if not isinstance(value, (int, float)):
                    errors.append(f"{where}: {key} not numeric")
                elif value < 0:
                    errors.append(f"{where}: {key} negative ({value})")
        if phase == "i" and event.get("s") not in (None, "g", "p", "t"):
            errors.append(f"{where}: bad instant scope {event.get('s')!r}")
    return errors


# ----------------------------------------------------------------------
# ASCII timeline
# ----------------------------------------------------------------------

def render_timeline(doc: dict, width: int = 72,
                    max_rows_per_track: int = 8) -> str:
    """Render a Chrome trace document as an ASCII timeline.

    Span tracks draw one bar lane per span (up to
    ``max_rows_per_track``); counter tracks summarise to
    min/avg/max/samples.  Purely cosmetic — the JSON export is the
    canonical artifact.
    """
    spans: Dict[Tuple[int, str], List[Tuple[float, float, str]]] = {}
    instants: Dict[Tuple[int, str], List[Tuple[float, str]]] = {}
    counters: Dict[Tuple[int, str], List[float]] = {}
    names: Dict[Tuple[int, int], str] = {}
    scopes: Dict[int, str] = {}
    t_max = 0.0

    for event in doc.get("traceEvents", ()):
        phase = event.get("ph")
        pid, tid = event.get("pid", 0), event.get("tid", 0)
        if phase == "M":
            if event["name"] == "thread_name":
                names[(pid, tid)] = event["args"]["name"]
            elif event["name"] == "process_name":
                scopes[pid] = event["args"]["name"]
            continue
        track = (pid, names.get((pid, tid), f"tid{tid}"))
        ts = event.get("ts", 0.0)
        if phase == "X":
            dur = event.get("dur", 0.0)
            spans.setdefault(track, []).append((ts, dur, event["name"]))
            t_max = max(t_max, ts + dur)
        elif phase == "i":
            instants.setdefault(track, []).append((ts, event["name"]))
            t_max = max(t_max, ts)
        elif phase == "C":
            counters.setdefault(track, []).append(
                event.get("args", {}).get("value", 0.0))
            t_max = max(t_max, ts)

    if t_max <= 0.0:
        t_max = 1.0

    def bar(ts: float, dur: float) -> str:
        start = int(ts / t_max * (width - 1))
        length = max(1, int(dur / t_max * width))
        end = min(width, start + length)
        return " " * start + "#" * (end - start)

    lines: List[str] = [f"timeline  0 .. {t_max:.1f} us  (simulated)"]
    label_w = 28
    for track in sorted(set(spans) | set(instants)):
        pid, name = track
        scope = scopes.get(pid, "")
        title = f"{scope}:{name}" if scope and scope != "main" else name
        lines.append(f"[{title}]")
        rows = sorted(spans.get(track, ()))
        shown = rows[:max_rows_per_track]
        for ts, dur, span_name in shown:
            label = span_name[:label_w].ljust(label_w)
            lines.append(f"  {label}|{bar(ts, dur)}")
        if len(rows) > len(shown):
            lines.append(f"  ... {len(rows) - len(shown)} more spans")
        marks = sorted(instants.get(track, ()))
        if marks:
            lane = [" "] * width
            for ts, __ in marks:
                lane[min(width - 1, int(ts / t_max * (width - 1)))] = "!"
            label = f"{len(marks)} events"[:label_w].ljust(label_w)
            lines.append(f"  {label}|{''.join(lane)}")
    for track in sorted(counters):
        pid, name = track
        values = counters[track]
        scope = scopes.get(pid, "")
        title = f"{scope}:{name}" if scope and scope != "main" else name
        lines.append(
            f"[{title}] samples={len(values)} "
            f"min={min(values):g} avg={sum(values) / len(values):.3g} "
            f"max={max(values):g}"
        )
    return "\n".join(lines) + "\n"
