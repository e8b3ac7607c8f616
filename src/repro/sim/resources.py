"""Shared resources for simulation processes.

Two primitives cover every queueing structure in the simulator:

* :class:`Resource` — a counted semaphore with FIFO grant order. Models
  things with *capacity*: a memory-controller's request slots, the
  RMC's single outstanding-request buffer, a DRAM bank.
* :class:`Store` — an unbounded-or-bounded FIFO of items. Models
  message queues: link ingress buffers, switch input queues, the
  reservation-protocol mailbox of the OS-lite daemon.

Usage pattern inside a process::

    grant = resource.request()
    yield grant
    try:
        ...  # hold the resource
    finally:
        resource.release(grant)

    yield store.put(item)        # blocks when the store is full
    item = yield store.get()     # blocks when the store is empty
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import _PENDING, Event, Simulator

__all__ = ["Resource", "Request", "Store"]


class Request(Event):
    """Grant event handed out by :meth:`Resource.request`.

    The request carries its own holder bookkeeping: ``_held`` is True
    while it holds the resource and ``_issued`` is the simulated time it
    was made, so granting and releasing touch no set or dict.
    """

    __slots__ = ("resource", "_held", "_issued")

    def __init__(self, sim: Simulator, resource: "Resource") -> None:
        # Event.__init__ inlined: one request per resource acquisition
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self.resource = resource
        self._held = False
        self._issued = sim.now


class Resource:
    """A counted, FIFO-fair resource.

    ``capacity`` users may hold the resource simultaneously; further
    requesters queue in arrival order.
    """

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "_count",
        "_queue",
        "total_requests",
        "total_wait_time",
    )

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._count = 0
        self._queue: Deque[Request] = deque()
        # instrumentation
        self.total_requests = 0
        self.total_wait_time = 0.0

    # -- public API ------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of current holders."""
        return self._count

    @property
    def queued(self) -> int:
        """Number of requesters still waiting."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for the resource; yield the returned event to wait for it."""
        req = Request(self.sim, self)
        self.total_requests += 1
        if self._count < self.capacity:
            # granted on the spot: no wait to charge
            req._held = True
            self._count += 1
            req.succeed(req)
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Give the resource back; grants the head of the queue, if any.

        Releasing a request that is still queued cancels it: it is
        never granted and its wait is never charged. Releasing one that
        does not hold this resource (never granted, or already
        released) is an error.
        """
        if request._held and request.resource is self:
            request._held = False
            self._count -= 1
        elif request in self._queue:
            # Cancelled before it was granted.
            self._queue.remove(request)
            return
        else:
            raise SimulationError("release() of a request that never held the resource")
        if self._queue and self._count < self.capacity:
            self._grant(self._queue.popleft())

    # -- internals ----------------------------------------------------------
    def _grant(self, req: Request) -> None:
        req._held = True
        self._count += 1
        self.total_wait_time += self.sim.now - req._issued
        req.succeed(req)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Resource {self.name or id(self):#x} {self.count}/{self.capacity} "
            f"queued={self.queued}>"
        )


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, sim: Simulator, item: Any) -> None:
        # Event.__init__ inlined: one put per packet per hop
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self.item = item


class Store:
    """FIFO item store with optional bounded capacity.

    ``put`` returns an event that fires once the item is accepted
    (immediately unless the store is full). ``get`` returns an event
    whose value is the retrieved item.
    """

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "_items",
        "_getters",
        "_putters",
        "total_puts",
        "total_gets",
        "max_level",
    )

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"Store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[_StorePut] = deque()
        # instrumentation
        self.total_puts = 0
        self.total_gets = 0
        self.max_level = 0

    # -- public API ------------------------------------------------------------
    @property
    def level(self) -> int:
        """Number of items currently buffered."""
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Offer *item*; the returned event fires when it is accepted."""
        evt = _StorePut(self.sim, item)
        self.total_puts += 1
        if self.capacity is None or len(self._items) < self.capacity:
            self._accept(evt)
        else:
            self._putters.append(evt)
        return evt

    def get(self) -> Event:
        """Take the oldest item; the returned event's value is the item."""
        evt = Event(self.sim)
        self.total_gets += 1
        items = self._items
        if items:
            evt.succeed(items.popleft())
            if self._putters:
                self._admit_waiting_putter()
        else:
            self._getters.append(evt)
        return evt

    def try_get(self) -> Any:
        """Non-blocking get: return an item or ``None`` if empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._admit_waiting_putter()
        return item

    # -- internals ----------------------------------------------------------
    def _accept(self, put_evt: _StorePut) -> None:
        getters = self._getters
        if getters:
            # Hand the item straight to the oldest waiting getter.
            getters.popleft().succeed(put_evt.item)
        else:
            items = self._items
            items.append(put_evt.item)
            if len(items) > self.max_level:
                self.max_level = len(items)
        put_evt.succeed(None)

    def _admit_waiting_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            self._accept(self._putters.popleft())

    def __repr__(self) -> str:  # pragma: no cover
        cap = "inf" if self.capacity is None else self.capacity
        return f"<Store {self.name or id(self):#x} {self.level}/{cap}>"
