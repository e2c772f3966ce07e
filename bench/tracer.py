"""Outside-in per-layer CPU tracer.

The tracer times calls into a program's public functions without
touching the program: :meth:`Tracer.install` replaces a function (or a
class's method) with a wrapper that opens a span on entry and closes it
on exit, and :meth:`Tracer.uninstall` puts the originals back.

Time is charged to whichever span is innermost when the clock advances,
so a layer's *self* time excludes the spans nested inside it and the
self times of all layers plus the time outside every span (the
*unattributed* time) add up to the traced total exactly.  A layer's
*inclusive* time counts only its outermost entry, so re-entry (a
reference simulation's event loop running inside the outer event loop)
is not counted twice.

Generator functions are traced per resumption: every ``send``/``throw``
into the generator is one span, and the time the generator spends
suspended is charged to whoever runs meanwhile.  A call is counted once
per function call, not per resumption.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Observer", "Tracer", "UNATTRIBUTED"]

#: Name of the pseudo-layer that owns time spent outside every span.
UNATTRIBUTED = "unattributed"

#: ``observe(args, result, duration_ns)`` — called after a traced call
#: returns (for a generator: after it finishes), inside the span's
#: parent, to count layer-specific outcomes such as hash hits.
Observer = Callable[[tuple, Any, int], None]

#: Attributes of ``functools.lru_cache`` wrappers that callers use on
#: the function object itself (``reset_reference_caches`` clears them).
_FORWARDED = ("cache_info", "cache_clear", "cache_parameters")

#: Spans kept for the Chrome trace; counts and times cover every call.
MAX_SPANS = 100_000


class Tracer:
    """Per-layer call counts, self and inclusive times, and spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self._clock = clock
        self.layers: List[str] = [UNATTRIBUTED]
        self._index: Dict[str, int] = {UNATTRIBUTED: 0}
        self.calls: List[int] = [0]
        self.self_ns: List[int] = [0]
        self.incl_ns: List[int] = [0]
        self._depth: List[int] = [0]
        self._incl_start: List[int] = [0]
        #: (layer index, span name, start ns, span id, parent id)
        self._stack: List[Tuple[int, str, int, int, int]] = []
        self._last = 0
        self._t0 = 0
        self.total_ns = 0
        self._next_id = 0
        #: (layer index, name, start ns, end ns, span id, parent id)
        self.spans: List[Tuple[int, str, int, int, int, int]] = []
        #: Target specs that did not resolve, with the reason.
        self.missing: List[Tuple[str, str, str]] = []
        #: (namespace, attribute, original) for :meth:`uninstall`.
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- clock bookkeeping ----------------------------------------------

    def _layer(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.layers)
            self.layers.append(name)
            for column in (self.calls, self.self_ns, self.incl_ns,
                           self._depth, self._incl_start):
                column.append(0)
        return index

    def _enter(self, layer: int, name: str) -> None:
        now = self._clock()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.self_ns[top[0]] += now - self._last
            parent = top[3]
        else:
            self.self_ns[0] += now - self._last
            parent = -1
        self._last = now
        if self._depth[layer] == 0:
            self._incl_start[layer] = now
        self._depth[layer] += 1
        self._next_id = span_id = self._next_id + 1
        stack.append((layer, name, now, span_id, parent))

    def _leave(self) -> int:
        now = self._clock()
        layer, name, start, span_id, parent = self._stack.pop()
        self.self_ns[layer] += now - self._last
        self._last = now
        depth = self._depth[layer] - 1
        self._depth[layer] = depth
        if depth == 0:
            self.incl_ns[layer] += now - self._incl_start[layer]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((layer, name, start, now, span_id, parent))
        return now - start

    def start(self) -> None:
        """Begin the traced interval, dropping anything counted before."""
        for column in (self.calls, self.self_ns, self.incl_ns):
            column[:] = [0] * len(column)
        self.spans.clear()
        self._t0 = self._last = self._clock()

    def stop(self) -> None:
        """End the traced interval; time outside spans is unattributed."""
        now = self._clock()
        if self._stack:
            raise RuntimeError("tracer stopped inside an open span")
        self.self_ns[0] += now - self._last
        self._last = now
        self.total_ns = now - self._t0

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn: Callable, layer: str,
             observe: Optional[Observer] = None) -> Callable:
        """A traced stand-in for ``fn``, charging ``layer``."""
        index = self._layer(layer)
        name = getattr(fn, "__qualname__", repr(fn))
        enter, leave, calls = self._enter, self._leave, self.calls
        if inspect.isgeneratorfunction(fn):
            traced = self._traced_generator

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[index] += 1
                inner = fn(*args, **kwargs)
                outer = traced(inner, index, name, observe, args)
                outer.__name__ = inner.__name__
                outer.__qualname__ = inner.__qualname__
                return outer
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[index] += 1
                enter(index, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = leave()
                if observe is not None:
                    observe(args, result, duration)
                return result

        for attr in _FORWARDED:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _traced_generator(self, inner, index: int, name: str,
                          observe: Optional[Observer], args: tuple):
        """Drive ``inner`` one resumption per span, relaying every value,
        exception and close to and from the caller."""
        enter, leave = self._enter, self._leave
        value: Any = None
        error: Optional[BaseException] = None
        duration = 0
        while True:
            enter(index, name)
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    pending, error = error, None
                    yielded = inner.throw(pending)
            except StopIteration as stop:
                duration += leave()
                if observe is not None:
                    observe(args, stop.value, duration)
                return stop.value
            except BaseException:
                leave()
                raise
            duration += leave()
            try:
                value = yield yielded
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # relayed into the inner generator
                value, error = None, exc

    def install(self, layer: str, spec: str,
                observe: Optional[Observer] = None) -> int:
        """Trace the function(s) named by ``spec`` as part of ``layer``.

        ``spec`` is ``"module:function"``, ``"module:Class.method"``, or
        ``"module:Class.*"`` for every public function defined on the
        class.  A module function is replaced in every loaded module
        that imported it by name.  Returns how many functions were
        wrapped; a spec that does not resolve is recorded in
        :attr:`missing` instead of raising.
        """
        module_name, _, path = spec.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            self.missing.append((layer, spec, f"import failed: {exc}"))
            return 0
        owner: Any = module
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append((layer, spec, f"no attribute {part!r}"))
                return 0
        leaf = parts[-1]
        if inspect.isclass(owner):
            if leaf == "*":
                names = [attr for attr, value in vars(owner).items()
                         if not attr.startswith("_")
                         and inspect.isfunction(value)]
            else:
                names = [leaf]
            wrapped = 0
            for attr in names:
                value = vars(owner).get(attr)
                if not inspect.isfunction(value):
                    self.missing.append(
                        (layer, spec, f"{owner.__name__}.{attr} is not a "
                         "function defined on the class"))
                    continue
                self._patches.append((owner, attr, value))
                setattr(owner, attr, self.wrap(value, layer, observe))
                wrapped += 1
            return wrapped
        fn = getattr(owner, leaf, None)
        if fn is None or not callable(fn):
            self.missing.append((layer, spec, f"no function {leaf!r}"))
            return 0
        wrapper = self.wrap(fn, layer, observe)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((namespace, attr, fn))
                    namespace[attr] = wrapper
        return 1

    def uninstall(self) -> None:
        """Restore every original function, newest patch first."""
        while self._patches:
            namespace, attr, original = self._patches.pop()
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)

    # -- results ---------------------------------------------------------

    def report(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, self_s, incl_s, and share of the total."""
        total = self.total_ns or 1
        out: Dict[str, Dict[str, float]] = {}
        for index, layer in enumerate(self.layers):
            out[layer] = {
                "calls": self.calls[index],
                "self_s": self.self_ns[index] / 1e9,
                "incl_s": self.incl_ns[index] / 1e9,
                "share": self.self_ns[index] / total,
            }
        return out

    def chrome_trace(self) -> Dict[str, Any]:
        """The recorded spans as Chrome ``trace_event`` JSON."""
        t0 = self._t0
        events = [
            {
                "name": name,
                "cat": self.layers[layer],
                "ph": "X",
                "ts": (start - t0) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent},
            }
            for layer, name, start, end, span_id, parent in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}
