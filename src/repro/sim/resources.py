"""Synchronisation primitives built on the event kernel.

* :class:`Resource` — a counted resource with FIFO waiters, used to model
  a pool of slots (a PFE's PPE threads, a lock).
* :class:`Store` — an unbounded-or-bounded FIFO of items, used to model
  queues a process drains (a NIC's TX ring, a host's inbox).

Links, RMW engines and PISA admission are FIFO servers settled in closed
form (``free_at`` arithmetic), so they need neither primitive.

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

        req = resource.request()
        yield req
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

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def acquire(self) -> Optional[Event]:
        """Fast-path request: grant without an event when a slot is free.

        Returns ``None`` on a synchronous grant (the caller holds a slot
        and proceeds without yielding), otherwise a pending request event
        to yield on.  Grant bookkeeping is identical to :meth:`request`,
        so the two may be mixed freely on one resource; the fast path
        skips one queue round-trip per uncontended acquisition.
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
            raise SimulationError("release() without a matching request()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1


class Store:
    """FIFO item store with optional capacity.

    ``put`` is an event that fires when the item has been accepted;
    ``get`` is an event that fires with the next item.
    """

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()  # events carrying pending items

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Offer ``item``; fires once the store has accepted it."""
        event = Event(self.env)
        event.item = item
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event.succeed()
        else:
            self._putters.append(event)
        return event

    def put_nowait(self, item: Any) -> None:
        """Fire-and-forget :meth:`put` that never allocates an ack event.

        Semantically identical to ``put`` with the returned event discarded
        (the item is accepted now, or queued for acceptance when the store
        is at capacity); use it on hot paths where nobody waits for the
        acceptance.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            event = Event(self.env)
            event.item = item
            self._putters.append(event)

    def get(self) -> Event:
        """Request the next item; fires with the item when available."""
        event = Event(self.env)
        if self._items:
            item = self._items.popleft()
            self._drain_putters()
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Pop an item without waiting; returns None if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._drain_putters()
        return item

    def _drain_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter = self._putters.popleft()
            self._items.append(putter.item)
            putter.succeed()
