"""Generator-coroutine discrete-event simulation core.

The engine follows the classic event-list design: a time-ordered queue
of ``(time, sequence, event)`` entries drives a clock that jumps from
one event to the next. Model behaviour is written as generator
functions ("processes") that ``yield`` waitables:

* :class:`Timeout` — resume after a simulated delay,
* :class:`Event` — resume when some other process triggers it,
* :class:`Process` — resume when a child process terminates,
* :class:`AnyOf` / :class:`AllOf` — composite conditions.

Two shared primitives cover every queueing structure in the model:

* :class:`Resource` — a counted semaphore with FIFO grant order. Models
  things with *capacity*: a memory-controller's request slots, the
  RMC's single outstanding-request buffer, a crossbar's links.
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

Determinism: ties in time are broken by a monotonically increasing
sequence number, so two runs with the same seeds replay identically.
Time is measured in nanoseconds (see :mod:`repro.units`).

Queue disciplines (see :mod:`repro.sim.equeue`): the default
``queue="bucket"`` keeps events due at the current instant in a FIFO
ready lane and drains same-timestamp heap ties in one pass on every
clock advance; ``queue="heapq"`` is the plain binary-heap reference
spec the differential suite pins the bucketed discipline against. Both
fire events in identical ``(time, seq)`` order. The hot paths below
inline the queue operations: the pops of the non-debug ``run`` loop,
and the pushes of ``Simulator.timeout``, ``Event.succeed`` and every
zero-delay hand-off — a ``Store`` put or get, a ``Resource`` grant, a
process's kick-off and exit. Each push takes exactly one ``seq``, makes
the same checks as :meth:`Simulator._schedule` and places its entry the
same way; :mod:`repro.sim.equeue` documents the semantics they must
agree with, ``tests/sim/test_equeue.py`` and
``tests/sim/test_handoff_differential.py`` enforce it, and the pinned
schedule in ``tests/cluster/test_replay_determinism.py`` catches a
drift on the packet path.

The clock is the plain attribute :attr:`Simulator.now`. Only this
module writes it; simcheck SIM001 flags a store to ``.now`` anywhere
else.

Callbacks: an event holds ``None`` while nobody waits on it, its one
callable once something does, and a :class:`_Callbacks` list only from
the second registration on; firing swaps in the ``_PROCESSED`` marker.
Almost every event has exactly one waiter (the process that yielded
it), so that waiter is stored and called without building a list. The
representation is private to this module: register through
:meth:`Event.add_callback` (or by yielding the event), and simcheck
SIM001 flags a store to or ``del`` of ``.callbacks`` anywhere else.
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Generator
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Iterable, Optional, cast

from repro.errors import SimulationError
from repro.sim.equeue import make_queue
from repro.sim.sanitize import (
    PacketAudit,
    check_clock_monotonic,
    check_ready_entry,
    check_schedule_delay,
)

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Condition",
    "AnyOf",
    "AllOf",
    "Resource",
    "Request",
    "Store",
]

#: Sentinel for "event created but not yet triggered".
_PENDING = object()

_INF = float("inf")

#: allocates an event without running ``__init__`` (the in-place push
#: sites set every slot themselves)
_new_event = object.__new__


class _Callbacks(list):
    """Two or more callbacks of one event, called in registration order.

    Callable itself, so the run loop fires one waiter or many through
    the same call.
    """

    __slots__ = ()

    def __call__(self, event: "Event") -> None:
        for cb in self:
            cb(event)


#: ``Event.callbacks`` once the callbacks have run
_PROCESSED = object()

#: ``Request._value`` of a released grant that has fired, in place of
#: the request itself
_RELEASED = object()

#: the queue of a ``Resource`` or ``Store`` that nothing has waited in
#: yet: empty and read-only, so ``len``, ``in`` and truth tests work on
#: it and any write raises; the first wait swaps in a private deque.
#: Typed as the deque it stands in for; ``is`` tells the two apart.
_NO_QUEUE = cast("Deque[Any]", ())


class Event:
    """A one-shot waitable.

    An event starts *pending*; it is *triggered* exactly once via
    :meth:`succeed` or :meth:`fail`, at which point it is placed on the
    simulator's event list and, when the clock reaches it, its
    callbacks run and any process waiting on it resumes.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: None, one callable or a _Callbacks list; see the module doc
        self.callbacks: Optional[Callable[["Event"], None]] = None
        self._value: Any = _PENDING
        self._ok: bool = True
        self._scheduled = False

    # -- state predicates -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is _PROCESSED

    @property
    def ok(self) -> bool:
        """True unless the event was failed with an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with *value* after *delay*.

        Every grant, hand-off and completion on the packet path comes
        through here, so the queue push is inlined like
        :meth:`Simulator.timeout`'s: the same checks as :meth:`Simulator._schedule`
        (all made before ``_ok``/``_value`` are touched, so a rejected
        trigger leaves the event pending and re-triggerable), the same
        ``(time, seq)`` entry, the same bucket-vs-heap placement.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        sim = self.sim
        now = sim.now
        if sim.debug:
            check_schedule_delay(now, delay)
        if self._scheduled:
            raise SimulationError(f"{self!r} is already scheduled")
        self._ok = True
        self._value = value
        self._scheduled = True
        when = now + delay
        seq = sim._seq
        sim._seq = seq + 1
        if sim._bucket and when == now:
            sim._ready.append((when, seq, self))
        else:
            heappush(sim._heap, (when, seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        A process waiting on the event will have the exception thrown
        into it at its ``yield`` statement.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            # reject before touching _ok/_value: a failed trigger must
            # leave the event pending and re-triggerable
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay)
        return self

    # -- engine internals ---------------------------------------------------
    def _fire(self) -> None:
        """Run callbacks. Called by the simulator when popped off the queue."""
        callbacks = self.callbacks
        assert callbacks is not _PROCESSED
        self.callbacks = _PROCESSED
        if callbacks is not None:
            callbacks(self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register *cb* to run when the event fires.

        If the event has already been processed the callback runs
        immediately (same semantics as SimPy's defused joins).
        """
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = cb
        elif callbacks is _PROCESSED:
            cb(self)
        elif callbacks.__class__ is _Callbacks:
            callbacks.append(cb)
        else:
            self.callbacks = _Callbacks((callbacks, cb))

    def _detach(self, cb: Callable[["Event"], None]) -> None:
        """Unregister *cb* (no-op if it is not registered)."""
        callbacks = self.callbacks
        if callbacks.__class__ is _Callbacks:
            if cb in callbacks:
                callbacks.remove(cb)
                if not callbacks:
                    self.callbacks = None
        elif callbacks is not _PROCESSED and callbacks == cb:
            self.callbacks = None

    def _withdraw(self) -> None:
        """Called once an interrupt or a triggered condition has
        detached this unfired event's last waiter: a pending wait leaves
        the queue it waits in, and a get already handed its item (or a
        request already granted its slot) gives the item (or the slot)
        back. Plain events wait in no queue and hold nothing."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    This is the dominant event kind (every timed hop in the model is a
    timeout), so :meth:`Simulator.timeout` is the one place that builds
    it: a fresh timeout cannot be double-triggered, and the queue push
    happens there, in one frame, instead of through
    :meth:`Simulator._schedule`. The semantics match the out-of-line
    path exactly — same validation, same ``(time, seq)`` entry, same
    bucket-vs-heap placement.
    """

    __slots__ = ("delay",)


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running generator coroutine; also an event that fires on exit.

    The process event succeeds with the generator's ``return`` value,
    or fails with the exception that escaped the generator. Both the
    kick-off event and a normal exit are queued in place.
    """

    __slots__ = ("_generator", "_send", "_target", "_resume_cb", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        try:
            # bound once for the process's lifetime instead of a fresh
            # binding per yield
            self._send = generator.send
        except AttributeError:
            raise SimulationError(
                f"Process target must be a generator, got {generator!r}"
            ) from None
        # Event.__init__ inlined: one per spawned process
        self.sim = sim
        self.callbacks = None
        self._value = _PENDING
        self._ok = True
        self._scheduled = False
        self._generator = generator
        self._target: Optional[Event] = None
        self._resume_cb = resume = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current simulation time: a fresh
        # event, succeeded and queued in place
        now = sim.now
        if sim.debug:
            check_schedule_delay(now, 0.0)
        init = _new_event(Event)
        init.sim = sim
        init.callbacks = resume
        init._ok = True
        init._value = None
        init._scheduled = True
        seq = sim._seq
        sim._seq = seq + 1
        if sim._bucket:
            sim._ready.append((now, seq, init))
        else:
            heappush(sim._heap, (now, seq, init))

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a dead process is an error; interrupting a process
        blocked on an event detaches it from that event first. If the
        process was that event's last waiter and the event has not
        fired, the event is withdrawn: a pending ``Store.get()`` never
        takes an item, a ``Store.put()`` never delivers its item, a
        queued ``Resource.request()`` is never granted, and a get handed
        its item or a request granted its slot at this instant gives the
        item or the slot back.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        target = self._target
        if target is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from the event we were waiting on. A triggered event
        # still fires later, with no waiter.
        if target is not None and target.callbacks is not _PROCESSED:
            target._detach(self._resume_cb)
            if target.callbacks is None:
                target._withdraw()
        self._target = None
        interrupt_evt = Event(self.sim)
        interrupt_evt._ok = False
        interrupt_evt._value = Interrupt(cause)
        interrupt_evt.add_callback(self._resume_cb)
        self.sim._schedule(interrupt_evt, 0.0)

    # -- engine internals ---------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the result of *event*."""
        sim = self.sim
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            # exit: succeed the process event and queue it in place
            now = sim.now
            if sim.debug:
                check_schedule_delay(now, 0.0)
            if self._scheduled:
                raise SimulationError(f"{self!r} is already scheduled")
            # the bound method refers back to the process: dropping it
            # lets refcounting free a finished process
            self._resume_cb = None
            self._ok = True
            self._value = stop.value
            self._scheduled = True
            seq = sim._seq
            sim._seq = seq + 1
            if sim._bucket:
                sim._ready.append((now, seq, self))
            else:
                heappush(sim._heap, (now, seq, self))
            return
        except BaseException as exc:
            # the failure becomes the process outcome, then aborts run()
            self._resume_cb = None
            self._ok = False
            self._value = exc
            raise

        if target.__class__ not in _EVENT_CLASSES and not isinstance(target, Event):
            # Tell the generator it misbehaved so stack traces point at it.
            exc = SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"
            )
            try:
                self._generator.throw(exc)
            except StopIteration as stop:  # pragma: no cover
                self._ok = True
                self._value = stop.value
                sim._schedule(self, 0.0)
                return
            except BaseException as err:
                self._ok = False
                self._value = err
                raise
        if target.sim is not sim:
            raise SimulationError("cannot wait on an event from another simulator")
        self._target = target
        # inlined target.add_callback(self._resume_cb), sole waiter first
        callbacks = target.callbacks
        if callbacks is None:
            target.callbacks = self._resume_cb
        elif callbacks is _PROCESSED:
            if target._value is _RELEASED:
                # a released grant yielded again resumes with itself
                target._value = target
            self._resume(target)
        elif callbacks.__class__ is _Callbacks:
            callbacks.append(self._resume_cb)
        else:
            target.callbacks = _Callbacks((callbacks, self._resume_cb))


class Condition(Event):
    """Base for composite events over a set of child events."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for evt in self._events:
            if evt.sim is not sim:
                raise SimulationError("condition mixes events from different sims")
            evt.add_callback(self._check)

    def _results(self) -> dict[Event, Any]:
        # ``processed`` (callbacks ran), not ``triggered``: a Timeout is
        # triggered at construction but has not *happened* until fired.
        return {e: e.value for e in self._events if e.processed and e._ok}

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _withdraw_losers(self) -> None:
        """Once the condition is triggered, withdraw each unfired child
        whose only waiter is this condition, as an interrupt withdraws
        its process's wait: a losing ``Store.get()`` never takes an
        item (one already handed its item gives it back), a
        ``Store.put()`` never delivers its item, a queued
        ``Resource.request()`` is never granted (one already granted
        gives its slot back)."""
        check = self._check
        for evt in self._events:
            if evt.callbacks == check:
                evt.callbacks = None
                evt._withdraw()


class AnyOf(Condition):
    """Fires as soon as any child event fires.

    The value is a dict of the triggered children and their values.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            self.succeed(self._results())
        self._withdraw_losers()


class AllOf(Condition):
    """Fires once every child event has fired.

    The value is a dict mapping every child event to its value.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            self._withdraw_losers()
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._results())


class Simulator:
    """The event loop: a clock plus a time-ordered event queue.

    Typical use::

        sim = Simulator()

        def producer(sim, out):
            for i in range(3):
                yield sim.timeout(10.0)
                out.append((sim.now, i))

        items = []
        sim.process(producer(sim, items))
        sim.run()

    ``queue`` selects the event-list discipline: ``"bucket"`` (default,
    ready-lane + same-timestamp draining) or ``"heapq"`` (the plain
    binary-heap reference spec). Fire order is identical; see
    :mod:`repro.sim.equeue`.
    """

    __slots__ = (
        "now",
        "_equeue",
        "_heap",
        "_ready",
        "_bucket",
        "_seq",
        "_running",
        "queue_kind",
        "debug",
        "audit",
    )

    def __init__(
        self,
        *,
        debug: Optional[bool] = None,
        queue: str = "bucket",
    ) -> None:
        #: Current simulated time in nanoseconds. A plain attribute so
        #: every read is a slot load; only this module writes it.
        self.now: float = 0.0
        self._equeue = make_queue(queue)
        # Alias the queue's storage so hot paths touch the containers
        # directly; equeue.py documents the push/pop semantics.
        self._heap = self._equeue.heap
        self._ready = self._equeue.ready
        self._bucket: bool = self._equeue.bucketed
        self._seq: int = 0
        self._running = False
        #: Which queue discipline this simulator runs ("bucket"/"heapq").
        self.queue_kind: str = queue
        if debug is None:
            debug = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        #: Sanitizer mode: scheduling asserts in the engine plus the
        #: byte-conservation audit the packet tier reports into. Off by
        #: default so benchmark baselines are unaffected.
        self.debug: bool = debug
        self.audit: Optional[PacketAudit] = (  # simcheck: disable=SIM010 -- armed with the sanitizer, not by the fault layer; benchmarks run debug=False
            PacketAudit() if debug else None
        )

    # -- clock ----------------------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """Events scheduled so far — the host-work complexity measure
        the O(bursts) accounting tests assert on (a whole-column scan
        must schedule O(bursts) events, not O(elements))."""
        return self._seq

    # -- event construction -----------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        # Event.__init__ inlined: a done event per link send and per
        # crossbar transfer
        evt = _new_event(Event)
        evt.sim = self
        evt.callbacks = None
        evt._value = _PENDING
        evt._ok = True
        evt._scheduled = False
        return evt

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires *delay* ns from now."""
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        now = self.now
        if self.debug:
            check_schedule_delay(now, delay)
        t = _new_event(Timeout)
        t.sim = self
        t.callbacks = None
        t._ok = True
        t._value = value
        t._scheduled = True
        t.delay = delay
        when = now + delay
        seq = self._seq
        self._seq = seq + 1
        # ``when == now`` also catches positive delays that underflow to
        # the current instant (now + delay == now in float arithmetic)
        if self._bucket and when == now:
            self._ready.append((when, seq, t))
        else:
            heappush(self._heap, (when, seq, t))
        return t

    def process(
        self, generator: Generator[Any, Any, Any], name: str = ""
    ) -> Process:
        """Start *generator* as a process; returns its completion event."""
        return Process(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if self.debug:
            check_schedule_delay(self.now, delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        now = self.now
        when = now + delay
        seq = self._seq
        self._seq = seq + 1
        if self._bucket and when == now:
            self._ready.append((when, seq, event))
        else:
            heappush(self._heap, (when, seq, event))

    # -- execution ---------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        ready = self._ready
        if ready:
            return ready[0][0]
        heap = self._heap
        return heap[0][0] if heap else _INF

    def step(self) -> None:
        """Process exactly one event."""
        ready = self._ready
        if ready:
            when, _, event = ready.popleft()
            if self.debug:
                check_ready_entry(self.now, when)
            event._fire()
            return
        heap = self._heap
        if not heap:
            raise SimulationError(
                "no events scheduled: step() on an empty event heap"
            )
        when, _, event = heappop(heap)
        if self.debug:
            check_clock_monotonic(self.now, when)
        self.now = when
        if self._bucket:
            # same-timestamp draining: move every entry tied at `when`
            # into the ready lane in one pass (heap pops of equal times
            # come out in seq order, so the lane stays sorted)
            while heap and heap[0][0] == when:
                ready.append(heappop(heap))
        event._fire()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches *until*.

        Returns the final simulation time. If *until* is given the
        clock is advanced exactly to it even if no event lies there.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run)")
        if until is not None and until < self.now:
            raise SimulationError(
                f"until={until} lies in the past (now={self.now})"
            )
        self._running = True
        try:
            if self.debug:
                # checked path: one event at a time through step(), so
                # every sanitizer hook fires
                while self._ready or self._heap:
                    if until is not None and self.peek() > until:
                        break
                    self.step()
            else:
                # hot path: same semantics as repeated step(), with the
                # queue containers bound as locals and Event._fire()
                # inlined
                processed = _PROCESSED
                heap = self._heap
                ready = self._ready
                bucket = self._bucket
                popleft = ready.popleft
                drain = ready.append
                while True:
                    if ready:
                        event = popleft()[2]
                    elif heap:
                        # the until-horizon only needs checking when the
                        # clock advances: ready entries fire at now,
                        # which never exceeds `until`
                        if until is not None and heap[0][0] > until:
                            break
                        when, _, event = heappop(heap)
                        self.now = when
                        if bucket:
                            while heap and heap[0][0] == when:
                                drain(heappop(heap))
                    else:
                        break
                    callbacks = event.callbacks
                    event.callbacks = processed
                    if callbacks is not None:
                        callbacks(event)
            if until is not None:
                self.now = until
        finally:
            self._running = False
        return self.now

    def run_process(self, generator: Generator[Any, Any, Any]) -> Any:
        """Convenience: run *generator* as a process to completion.

        Drains the whole event queue, then returns the process's return
        value (re-raising any exception that escaped it).
        """
        proc = self.process(generator)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} deadlocked: event heap drained while "
                "it was still waiting"
            )
        if not proc._ok:
            raise proc._value
        return proc._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self.now:.1f}ns "
            f"queued={len(self._heap) + len(self._ready)}>"
        )


# ---------------------------------------------------------------------------
# Shared resources
# ---------------------------------------------------------------------------


class Request(Event):
    """Grant event handed out by :meth:`Resource.request`, the one place
    that builds it.

    The request carries its own holder bookkeeping: ``_held`` is True
    while it holds the resource and ``_issued`` is the simulated time it
    was made, so granting and releasing touch no set or dict.

    A grant's value is the request itself. Releasing a grant that has
    fired swaps that self-reference for ``_RELEASED``, so refcounting
    frees the request; :attr:`value`, and a process yielding it again,
    still read the request. A grant withdrawn before it fired holds
    nothing and its value is ``None``.
    """

    __slots__ = ("resource", "_held", "_issued")

    @property
    def value(self) -> Any:
        if self._value is _RELEASED:
            return self
        return super().value

    def _withdraw(self) -> None:
        if self._held:
            # granted at this instant but not fired: the slot goes to
            # the next queued request or is freed, and the event fires
            # later with no waiter and holding nothing
            self.resource.release(self)
            self._value = None
        elif self._value is _PENDING:
            self.resource.release(self)  # leaves the queue


class Resource:
    """A counted, FIFO-fair resource.

    ``capacity`` users may hold the resource simultaneously; further
    requesters queue in arrival order. A grant — on the spot in
    :meth:`request` or to the queue head in :meth:`release` — succeeds
    the request and queues it in place.
    """

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "count",
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
        #: Number of current holders (written only by this class).
        self.count = 0
        #: waiting requests, FIFO; ``_NO_QUEUE`` until the first wait
        self._queue: Deque[Request] = _NO_QUEUE
        # instrumentation
        self.total_requests = 0
        self.total_wait_time = 0.0

    # -- public API ------------------------------------------------------
    @property
    def queued(self) -> int:
        """Number of requesters still waiting."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for the resource; yield the returned event to wait for it."""
        sim = self.sim
        now = sim.now
        req = _new_event(Request)
        req.sim = sim
        req.callbacks = None
        req._ok = True
        req.resource = self
        req._issued = now
        self.total_requests += 1
        if self.count < self.capacity:
            # granted on the spot: no wait to charge
            if sim.debug:
                check_schedule_delay(now, 0.0)
            req._held = True
            self.count += 1
            req._value = req
            req._scheduled = True
            seq = sim._seq
            sim._seq = seq + 1
            if sim._bucket:
                sim._ready.append((now, seq, req))
            else:
                heappush(sim._heap, (now, seq, req))
        else:
            req._held = False
            req._value = _PENDING
            req._scheduled = False
            queue = self._queue
            if queue is _NO_QUEUE:
                self._queue = queue = deque()
            queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Give the resource back; grants the head of the queue, if any.

        Releasing a request that was never granted cancels it: it is
        never granted and its wait is never charged. That includes a
        request already cancelled, or withdrawn when its process was
        interrupted or when a condition fired without it (even one
        granted at that same instant), so a ``try``/``finally`` release
        stays safe.
        Releasing one that does not hold this resource (granted to
        another resource, or already released) is an error.
        """
        if request._held and request.resource is self:
            request._held = False
            self.count -= 1
            if request.callbacks is _PROCESSED:
                request._value = _RELEASED
        elif request in self._queue:
            # Cancelled before it was granted.
            self._queue.remove(request)
            return
        elif request.resource is self and (
            request._value is _PENDING or request._value is None
        ):
            return  # already cancelled or withdrawn
        else:
            raise SimulationError("release() of a request that never held the resource")
        if self._queue and self.count < self.capacity:
            self._grant(self._queue.popleft())

    # -- internals ----------------------------------------------------------
    def _grant(self, req: Request) -> None:
        sim = self.sim
        now = sim.now
        req._held = True
        self.count += 1
        self.total_wait_time += now - req._issued
        # req.succeed(req) inlined: a queued request may have been
        # triggered by hand, so both guards stay
        if req._value is not _PENDING:
            raise SimulationError(f"{req!r} already triggered")
        if sim.debug:
            check_schedule_delay(now, 0.0)
        if req._scheduled:
            raise SimulationError(f"{req!r} is already scheduled")
        req._ok = True
        req._value = req
        req._scheduled = True
        seq = sim._seq
        sim._seq = seq + 1
        if sim._bucket:
            sim._ready.append((now, seq, req))
        else:
            heappush(sim._heap, (now, seq, req))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Resource {self.name or id(self):#x} {self.count}/{self.capacity} "
            f"queued={self.queued}>"
        )


class _StorePut(Event):
    """Put event handed out by :meth:`Store.put`, the one place that
    builds it; ``item`` waits in it while the store is full."""

    __slots__ = ("store", "item")

    def _withdraw(self) -> None:
        putters = self.store._putters
        if self in putters:
            putters.remove(self)


class _StoreGet(Event):
    """Get event handed out by :meth:`Store.get`, the one place that
    builds it; ``store`` is None once it has given its item back."""

    __slots__ = ("store",)

    store: Optional["Store"]

    def _withdraw(self) -> None:
        store = self.store
        if store is None:
            return
        if self._value is _PENDING:
            getters = store._getters
            if self in getters:
                getters.remove(self)
            return
        # handed its item at this instant but not fired: the item goes
        # back, and the event fires later with no waiter and no item
        item = self._value
        self._value = None
        self.store = None
        store._give_back(item)


class Store:
    """FIFO item store with optional bounded capacity.

    ``put`` returns an event that fires once the item is accepted
    (immediately unless the store is full). ``get`` returns an event
    whose value is the retrieved item. Every hand-off succeeds its
    events and queues them in place.
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
        # buffered items and waiting getters and putters, each FIFO and
        # ``_NO_QUEUE`` until first used
        self._items: Deque[Any] = _NO_QUEUE
        self._getters: Deque[_StoreGet] = _NO_QUEUE
        self._putters: Deque[_StorePut] = _NO_QUEUE
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
        evt = _new_event(_StorePut)
        evt.sim = self.sim
        evt.callbacks = None
        evt._ok = True
        evt.store = self
        evt.item = item
        self.total_puts += 1
        items = self._items
        capacity = self.capacity
        if capacity is not None and len(items) >= capacity:
            evt._value = _PENDING
            evt._scheduled = False
            putters = self._putters
            if putters is _NO_QUEUE:
                self._putters = putters = deque()
            putters.append(evt)
            return evt
        # self._accept(evt) inlined for a fresh put: it cannot have been
        # triggered, so only the getter it hands to needs the guards
        sim = self.sim
        now = sim.now
        if sim.debug:
            check_schedule_delay(now, 0.0)
        getters = self._getters
        if getters:
            getter = getters.popleft()
            if getter._value is not _PENDING:
                raise SimulationError(f"{getter!r} already triggered")
            if getter._scheduled:
                raise SimulationError(f"{getter!r} is already scheduled")
            getter._ok = True
            getter._value = item
            getter._scheduled = True
            seq = sim._seq
            sim._seq = seq + 1
            if sim._bucket:
                sim._ready.append((now, seq, getter))
            else:
                heappush(sim._heap, (now, seq, getter))
        else:
            if items is _NO_QUEUE:
                self._items = items = deque()
            items.append(item)
            if len(items) > self.max_level:
                self.max_level = len(items)
        evt._value = None
        evt._scheduled = True
        seq = sim._seq
        sim._seq = seq + 1
        if sim._bucket:
            sim._ready.append((now, seq, evt))
        else:
            heappush(sim._heap, (now, seq, evt))
        return evt

    def get(self) -> Event:
        """Take the oldest item; the returned event's value is the item."""
        sim = self.sim
        evt = _new_event(_StoreGet)
        evt.sim = sim
        evt.callbacks = None
        evt._ok = True
        evt.store = self
        self.total_gets += 1
        items = self._items
        if items:
            now = sim.now
            if sim.debug:
                check_schedule_delay(now, 0.0)
            evt._value = items.popleft()
            evt._scheduled = True
            seq = sim._seq
            sim._seq = seq + 1
            if sim._bucket:
                sim._ready.append((now, seq, evt))
            else:
                heappush(sim._heap, (now, seq, evt))
            if self._putters:
                self._admit_waiting_putter()
        else:
            evt._value = _PENDING
            evt._scheduled = False
            getters = self._getters
            if getters is _NO_QUEUE:
                self._getters = getters = deque()
            getters.append(evt)
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
        """Take a waiting *put_evt*'s item: hand it to the oldest
        waiting getter or buffer it, then succeed the put. Both pushes
        are in place, getter first; either event may be a waiter
        triggered by hand, so each keeps both guards. :meth:`put`
        inlines this for a put the store accepts on the spot."""
        sim = self.sim
        now = sim.now
        if sim.debug:
            check_schedule_delay(now, 0.0)
        getters = self._getters
        if getters:
            getter = getters.popleft()
            if getter._value is not _PENDING:
                raise SimulationError(f"{getter!r} already triggered")
            if getter._scheduled:
                raise SimulationError(f"{getter!r} is already scheduled")
            getter._ok = True
            getter._value = put_evt.item
            getter._scheduled = True
            seq = sim._seq
            sim._seq = seq + 1
            if sim._bucket:
                sim._ready.append((now, seq, getter))
            else:
                heappush(sim._heap, (now, seq, getter))
        else:
            items = self._items
            if items is _NO_QUEUE:
                self._items = items = deque()
            items.append(put_evt.item)
            if len(items) > self.max_level:
                self.max_level = len(items)
        if put_evt._value is not _PENDING:
            raise SimulationError(f"{put_evt!r} already triggered")
        if put_evt._scheduled:
            raise SimulationError(f"{put_evt!r} is already scheduled")
        put_evt._ok = True
        put_evt._value = None
        put_evt._scheduled = True
        seq = sim._seq
        sim._seq = seq + 1
        if sim._bucket:
            sim._ready.append((now, seq, put_evt))
        else:
            heappush(sim._heap, (now, seq, put_evt))

    def _give_back(self, item: Any) -> None:
        """Take back *item* from a get withdrawn after it was handed the
        item but before it fired: the oldest waiting getter receives
        it, or it goes back to the head of the buffer. A bounded store
        can so end up over its capacity, by one item per such get (the
        buffer filled behind the hand-off); no waiting putter is
        admitted until gets bring the level back under capacity."""
        getters = self._getters
        if getters:
            getters.popleft().succeed(item)
            return
        items = self._items
        if items is _NO_QUEUE:
            self._items = items = deque()
        items.appendleft(item)
        if len(items) > self.max_level:
            self.max_level = len(items)

    def _admit_waiting_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            self._accept(self._putters.popleft())

    def __repr__(self) -> str:  # pragma: no cover
        cap = "inf" if self.capacity is None else self.capacity
        return f"<Store {self.name or id(self):#x} {self.level}/{cap}>"


#: the engine's own event classes: ``Process._resume`` accepts a yielded
#: one with a set lookup and falls back to ``isinstance`` for the rest
_EVENT_CLASSES = frozenset(
    {Event, Timeout, Process, AnyOf, AllOf, Request, _StorePut, _StoreGet}
)
