"""Core of the discrete-event simulation kernel.

The design is deliberately small and explicit:

* :class:`Environment` owns simulated time and a binary-heap event queue.
* :class:`Event` is a one-shot occurrence that callbacks can be attached to.
* :class:`Timeout` is an event that fires after a fixed delay.
* :class:`Process` wraps a generator; every value the generator yields must
  be an :class:`Event`, and the process resumes when that event fires.

Events carry a *value* (delivered as the result of the ``yield``) and may
also *fail* with an exception, which is re-raised inside the waiting
process.  Processes are themselves events that fire when the generator
returns, so processes can wait on each other directly.

Fast path
---------

Every simulated packet burns through thousands of pure-delay waits
(``yield env.timeout(d)``), so the kernel provides an allocation-free hot
loop for that dominant case:

* All event classes use ``__slots__``.
* :meth:`Environment.delay` hands out pooled :class:`_Delay` timeouts from
  a free list; the event loop recycles them (object *and* callback list)
  as soon as their callbacks have run.  A ``delay()`` event is therefore
  only valid for the single ``yield`` that consumes it — model code must
  not retain it, compose it into ``AnyOf``/``AllOf``, or pass it to
  ``run(until=...)``.  :meth:`Environment.timeout` keeps the fully general
  (allocating) semantics.
* :class:`Process` reuses one internal *bounce* event for start-up and for
  resuming after a yield on an already-processed event, instead of
  allocating a fresh event each time.
* :meth:`Environment.run` is the one event loop: it checks ``until``
  before every pop, except for a check-free copy serving unobserved
  unbounded runs.  Its ``pop`` is ``heappop`` itself unless
  :mod:`repro.obs` records, when :meth:`Environment._observed_pop` wraps it.

The fast path is timing-equivalent to the general path: same timestamps,
same tie-breaking (schedule order), same failure semantics.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from repro.obs import bus as _obs

__all__ = [
    "Environment",
    "Event",
    "FLOW_LEVEL_PRIORITY",
    "Interrupt",
    "PACKET_LEVEL_PRIORITY",
    "Process",
    "SimulationError",
    "Timeout",
    "default_seed",
    "set_default_seed",
]

#: Sentinel stored in :attr:`Event._value` while the event is pending.
_PENDING = object()

# Level-aware scheduling priorities.  The queue orders same-timestamp
# events by (priority, insertion order): interrupts run first (0), the
# packet level and all ordinary events next (1), and the flow/fluid
# level last (2).  A flow-level re-solve scheduled for time T therefore
# observes every packet-level state change that lands at T — arrivals,
# escalated-segment completions — before it allocates rates, without the
# two levels needing to know about each other's event order.
PACKET_LEVEL_PRIORITY = 1
FLOW_LEVEL_PRIORITY = 2

#: Process-wide base seed adopted by environments constructed without an
#: explicit ``seed`` — how ``python -m repro.harness --seed N`` reaches
#: the many ``Environment()`` call sites inside the experiment drivers.
_DEFAULT_SEED: Optional[Any] = None


def set_default_seed(seed: Optional[Any]) -> None:
    """Set the base seed future ``Environment()`` instances adopt.

    ``None`` restores the default behaviour (streams keyed by their own
    per-component keys only).  Affects only environments created after
    the call.
    """
    global _DEFAULT_SEED
    _DEFAULT_SEED = seed


def default_seed() -> Optional[Any]:
    """The process-wide base seed (see :func:`set_default_seed`)."""
    return _DEFAULT_SEED


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (e.g. yielding a non-event)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies ``cause``, available as
    ``exc.cause`` in the interrupted process.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current simulation
    time.  Processes wait on events by yielding them.
    """

    # ``item`` is used by the Store primitives to carry the pending payload
    # of a blocked put(); it lives here because __slots__ forbids ad-hoc
    # attributes on subclass instances.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "item")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or its exception, if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined env.schedule(self): succeed() is the hottest trigger path.
        env = self.env
        env._scheduled = seq = env._scheduled + 1
        heappush(env._queue, (env._now, 1, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised in every process waiting on the event.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self._value is not _PENDING:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay=delay)


class _Delay(Timeout):
    """Pooled pure-delay timeout handed out by :meth:`Environment.delay`.

    Expects exactly one short-lived waiter; the event loop recycles the
    instance (and its callback list) right after its callbacks run.
    """

    __slots__ = ()

    def __init__(self, env: "Environment"):
        # Bypass Timeout.__init__: fields are (re)initialised by
        # Environment.delay() on every checkout from the pool.
        Event.__init__(self, env)
        self.delay = 0.0
        self._ok = True


def _run_callback(event: "_Callback") -> None:
    event.fn(*event.args)


def _cancelled_callback(*_args: Any) -> None:
    """Target of a cancelled :class:`_Callback`: do nothing."""


class _Callback(Event):
    """Pre-triggered event that invokes ``fn(*args)`` when processed.

    Backs :meth:`Environment.call_later` / :meth:`Environment.call_at` —
    a fire-and-forget deferred call without the Process/generator/bounce
    machinery.  :meth:`cancel` turns the pending call into a no-op
    without heap surgery: the queue entry stays and is processed as an
    empty event, which keeps scheduling O(log n) and the
    ``scheduled_events`` fingerprint stable.
    """

    __slots__ = ("fn", "args")

    def __init__(self, env: "Environment", fn: Callable[..., Any],
                 args: Tuple[Any, ...]):
        Event.__init__(self, env)
        self._ok = True
        self._value = None
        self.fn = fn
        self.args = args
        self.callbacks = [_run_callback]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self.fn is _cancelled_callback

    def cancel(self) -> None:
        """Suppress the pending call (idempotent).

        The event still pops off the queue at its scheduled time but
        invokes nothing.  Callers that would otherwise let a stale
        deferred call fire (the fluid engine's completion wake-ups, for
        example) cancel instead of scheduling a replacement plus an
        epoch guard.
        """
        if self.fn is not _cancelled_callback:
            self.fn = _cancelled_callback
            self.args = ()
            self.env._cancelled += 1


class AnyOf(Event):
    """Fires when the first of several events fires.

    The value is a dict mapping each fired event to its value.
    """

    __slots__ = ("events", "_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._fired: dict = {}
        if not self.events:
            self.succeed(self._fired)
            return
        for event in self.events:
            if event.callbacks is None:
                self._on_fire(event)
            else:
                event.callbacks.append(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._fired[event] = event._value
        self.succeed(self._fired)


class AllOf(Event):
    """Fires when every one of several events has fired.

    The value is a dict mapping each event to its value.
    """

    __slots__ = ("events", "_fired", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self.events = list(events)
        self._fired: dict = {}
        self._remaining = len(self.events)
        if self._remaining == 0:
            self.succeed(self._fired)
            return
        for event in self.events:
            if event.callbacks is None:
                self._on_fire(event)
            else:
                event.callbacks.append(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._fired[event] = event._value
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._fired)


ProcessGenerator = Generator[Event, Any, Any]

#: One event-queue entry: ``(time, priority, schedule seq, event)``.
_QueueEntry = Tuple[float, int, int, Event]


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it fires (with the generator's return
    value) when the generator finishes, so ``yield some_process`` waits for
    completion.
    """

    __slots__ = ("name", "_generator", "_waiting_on", "_bounce")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._bounce: Optional[Event] = None
        # Kick off execution at the current simulation time.
        self._schedule_resume(True, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _schedule_resume(self, ok: bool, value: Any,
                         defused: bool = False) -> None:
        """Schedule a resume of the generator at the current time.

        Reuses the per-process bounce event when its previous trip through
        the queue has fully completed (callbacks is None); otherwise (first
        use, or the bounce is still in flight after an interrupt detached
        it) a fresh event is allocated.
        """
        bounce = self._bounce
        if bounce is None or bounce.callbacks is not None:
            bounce = Event(self.env)
            self._bounce = bounce
        bounce._ok = ok
        bounce._value = value
        bounce._defused = defused
        bounce.callbacks = [self._resume]
        # Track it as the waited-on event so interrupt() can detach the
        # pending resume instead of delivering a stale second wake-up.
        self._waiting_on = bounce
        env = self.env
        env._scheduled = seq = env._scheduled + 1
        heappush(env._queue, (env._now, 1, seq, bounce))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._waiting_on = None
        wakeup = Event(self.env)
        wakeup._ok = False
        wakeup._value = Interrupt(cause)
        wakeup._defused = True  # never counts as an unhandled failure
        wakeup.callbacks.append(self._resume)
        self.env.schedule(wakeup, priority=0)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            self.fail(exc)
            return
        env._active_process = None

        if isinstance(next_event, Event) and next_event.env is env:
            callbacks = next_event.callbacks
            if callbacks is not None:
                self._waiting_on = next_event
                callbacks.append(self._resume)
            else:
                # Already fired and processed: resume on the next tick so
                # same-time ordering matches a freshly scheduled event.
                self._schedule_resume(
                    next_event._ok, next_event._value,
                    defused=not next_event._ok,
                )
            return

        self._generator.close()
        if not isinstance(next_event, Event):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {next_event!r}, "
                    "which is not an Event"
                )
            )
        else:
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded an event from a "
                    "different Environment"
                )
            )

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"


class Environment:
    """Owns simulated time and executes events in timestamp order.

    Ties are broken by insertion order so the simulation is deterministic.

    Randomness is owned here too: every model component that needs a
    random stream derives it with :meth:`rng_stream` instead of touching
    the interpreter-global :mod:`random` state, so a simulation's outcome
    is a pure function of ``(models, seed)`` — the property the
    determinism tests and the ``--parallel`` figure harness rely on.
    """

    def __init__(self, initial_time: float = 0.0,
                 seed: Optional[Any] = None):
        self._now = float(initial_time)
        self._queue: List[_QueueEntry] = []
        self._scheduled = 0
        self._cancelled = 0
        self._active_process: Optional[Process] = None
        self._delay_pool: List[_Delay] = []
        self._seed = seed if seed is not None else _DEFAULT_SEED

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def seed(self) -> Optional[Any]:
        """The environment's base seed (``None`` = per-stream keys only)."""
        return self._seed

    def rng_stream(self, key: Any) -> random.Random:
        """A private, reproducible RNG stream named by ``key``.

        Two environments with the same seed hand out identical streams
        for the same key; distinct keys give independent streams.  With
        no environment seed the stream is seeded by ``key`` alone, so a
        component's stream does not change when unrelated components
        are added or reordered.
        """
        if not isinstance(key, (int, str, bytes, bytearray)):
            # Other hashables (e.g. tuples) would seed via hash(), which
            # varies across processes under string-hash randomisation.
            raise TypeError(
                f"rng_stream key must be int/str/bytes, got {type(key).__name__}"
            )
        if self._seed is None:
            return random.Random(key)
        return random.Random(f"{self._seed}/{key}")

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def scheduled_events(self) -> int:
        """Total events scheduled so far (a determinism fingerprint)."""
        return self._scheduled

    @property
    def cancelled_events(self) -> int:
        """Deferred calls cancelled before firing (stale-wake accounting)."""
        return self._cancelled

    def schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        """Enqueue ``event`` to fire ``delay`` time units from now."""
        self._scheduled = seq = self._scheduled + 1
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay``."""
        return Timeout(self, delay, value)

    def delay(self, delay: float, value: Any = None) -> Timeout:
        """Pooled pure-delay timeout for the one-waiter hot path.

        Timing-equivalent to :meth:`timeout` but recycled as soon as its
        callbacks have run, so the returned event must be consumed by a
        single immediate ``yield`` and never retained, combined, or passed
        to ``run(until=...)``.
        """
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        pool = self._delay_pool
        if pool:
            ev = pool.pop()
            ev.delay = delay
            ev._value = value
        else:
            ev = _Delay(self)
            ev.delay = delay
            ev._value = value
        self._scheduled = seq = self._scheduled + 1
        heappush(self._queue, (self._now + delay, 1, seq, ev))
        return ev

    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> _Callback:
        """Run ``fn(*args)`` after ``delay`` time units (fire-and-forget).

        A single scheduled event replaces the Process + start bounce +
        completion event a ``def ...(): yield env.delay(d); fn()`` helper
        would cost; use it for deferred plain calls that nobody waits on.
        Returns the scheduled event; ``.cancel()`` suppresses the call.
        """
        if not delay >= 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self._scheduled = seq = self._scheduled + 1
        event = _Callback(self, fn, args)
        heappush(self._queue, (self._now + delay, 1, seq, event))
        return event

    def call_at(self, when: float, fn: Callable[..., Any], *args: Any,
                priority: int = PACKET_LEVEL_PRIORITY) -> _Callback:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        The flow-level engine computes wake-up instants analytically
        (projected flow-completion times, arrival timestamps), so it
        schedules at absolute times rather than relative delays.
        ``priority`` selects the level lane: :data:`FLOW_LEVEL_PRIORITY`
        events run after every packet-level event bearing the same
        timestamp (see the module constants).

        Returns the scheduled event.  A caller holding the handle can
        ``.cancel()`` it when the deferred call becomes stale — cheaper
        than letting a dead wake-up fire through an epoch guard, and it
        keeps the event heap free of work that will be discarded.
        """
        if not when >= self._now:
            raise SimulationError(
                f"call_at({when}) is in the past (now={self._now})"
            )
        self._scheduled = seq = self._scheduled + 1
        event = _Callback(self, fn, args)
        heappush(self._queue, (when, priority, seq, event))
        return event

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or an event.

        ``until`` may be a number (run until that simulated time) or an
        :class:`Event` (run until it fires, returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if not stop_time >= self._now:
                raise SimulationError(
                    f"until={stop_time} is in the past (now={self._now})"
                )

        queue = self._queue
        pool = self._delay_pool
        pending = _PENDING
        pop = self._observed_pop() if _obs.enabled() else heappop
        if pop is heappop and stop_event is None and stop_time == float("inf"):
            # Unbounded, unobserved run: the common benchmark/drain shape
            # — no per-event stop checks.
            while queue:
                self._now, _, _, event = pop(queue)
                callbacks = event.callbacks
                event.callbacks = None
                if event.__class__ is _Delay:
                    for callback in callbacks:
                        callback(event)
                    event.callbacks = callbacks
                    callbacks.clear()
                    event._value = pending
                    pool.append(event)
                    continue
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused and not callbacks:
                    raise event._value
            return None
        while queue:
            if stop_event is not None and stop_event.callbacks is None:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            if queue[0][0] > stop_time:
                self._now = stop_time
                return None
            self._now, _, _, event = pop(queue)
            callbacks = event.callbacks
            event.callbacks = None
            if event.__class__ is _Delay:
                for callback in callbacks:
                    callback(event)
                event.callbacks = callbacks
                callbacks.clear()
                event._value = pending
                pool.append(event)
                continue
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused and not callbacks:
                # A failed event that nobody was waiting on: surface the
                # error rather than letting it pass silently.
                raise event._value

        if stop_event is not None:
            if stop_event.callbacks is None:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            raise SimulationError(
                "run(until=event) exhausted the queue before the event fired"
            )
        if stop_time != float("inf"):
            self._now = stop_time
        return None

    def _observed_pop(self) -> Callable[[List[_QueueEntry]], _QueueEntry]:
        """``heappop`` that also records, per popped event, the queue
        depth, the event's class, and the simulated time elapsed since
        the previous pop, charged to :func:`_event_owner`."""
        registry = _obs.session().registry
        events_by_kind = registry.counter(
            "sim.events", "events processed, by event class", ("kind",))
        queue_depth = registry.histogram(
            "sim.queue_depth", "event-queue depth at each pop",
            buckets=tuple(float(2 ** e) for e in range(17)))
        process_share = registry.counter(
            "sim.process_share_s",
            "elapsed simulated time attributed to the resumed process",
            ("process",))
        prev_now = self._now

        def pop(queue: List[_QueueEntry]) -> _QueueEntry:
            nonlocal prev_now
            queue_depth.observe(len(queue))
            entry = heappop(queue)
            now, _, _, event = entry
            events_by_kind.inc(1.0, kind=event.__class__.__name__)
            dt = now - prev_now
            if dt > 0.0:
                process_share.inc(
                    dt, process=_event_owner(event, event.callbacks or ()))
            prev_now = now
            return entry

        return pop


def _event_owner(event: Event,
                 callbacks: Iterable[Callable[..., Any]]) -> str:
    """Attribute an event to a process for sim-time-share accounting.

    A firing :class:`Process` owns itself; otherwise the event belongs to
    the first waiting process (bounce and timeout callbacks are bound
    ``Process._resume`` methods).  Events nobody waits on fall back to
    their class name.
    """
    if isinstance(event, Process):
        return event.name
    for callback in callbacks:
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            return owner.name
    return event.__class__.__name__
