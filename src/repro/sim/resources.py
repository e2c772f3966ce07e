"""Synchronisation primitives built on the event kernel.

* :class:`Resource` — a counted resource with FIFO waiters, used to model
  a pool of slots (a PFE's PPE threads, a lock).
* :class:`Store` — an unbounded FIFO of items, used to model a queue a
  process drains (a host's inbox).

Links, NIC TX rings, RMW engines and PISA admission are FIFO servers
settled in closed form (``free_at`` arithmetic), so they need neither
primitive.

All primitives hand out plain :class:`~repro.sim.core.Event` objects so
model code uses one uniform ``yield`` style.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["Resource", "Store"]


class Resource:
    """A resource with ``capacity`` slots and FIFO granting.

    Usage::

        pending = resource.acquire()
        if pending is not None:
            yield pending
        ...          # critical section
        resource.release()
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    def acquire(self) -> Optional[Event]:
        """Take a slot, without an event when one is free.

        Returns ``None`` on a synchronous grant (the caller holds a slot
        and proceeds without yielding), otherwise a pending event that
        fires when :meth:`release` hands the caller a slot, in FIFO order.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return None
        event = Event(self.env)
        self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one held slot, granting it to the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO item store: ``put`` never waits, and ``get`` is an
    event that fires with the next item."""

    def __init__(self, env: Environment):
        self.env = env
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Hand ``item`` to the oldest waiting getter, or queue it."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Request the next item; fires with the item when available."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Pop an item without waiting; returns None if empty."""
        if not self._items:
            return None
        return self._items.popleft()
