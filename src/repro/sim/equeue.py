"""Event-queue storage for the simulation engine.

Two interchangeable disciplines over the same ``(time, seq, event)``
entry tuples (engine-internal, like :mod:`repro.sim.engine` — simcheck
SIM001/SIM002 guard both modules):

* :class:`HeapEventQueue` — the executable **reference spec**: the
  classic binary-heap event list every exemplar engine uses (and this
  repo's seed engine used). One ``heappush`` per schedule, one
  ``heappop`` per fire, ties broken by the monotone sequence number.
  Selected with ``Simulator(queue="heapq")`` so the differential suite
  can pin the optimized discipline against it.

* :class:`BucketEventQueue` — the default production discipline. Two
  observations about the workload make it faster without changing the
  fire order:

  1. *Most events are due immediately.* ``succeed``/``fail`` with the
     default zero delay, process kick-off/termination events, store
     hand-offs, resource grants — all fire at the current instant. A
     zero-delay entry goes to a FIFO ``ready`` deque (the bucket for
     the current timestamp) instead of the heap: O(1) append/popleft
     with no sift, and the seq tie-break holds for free because the
     deque preserves arrival order.
  2. *Future timestamps arrive in bursts.* When the clock advances to
     a new time, every heap entry tied at that time is drained into
     the ready lane in one pass, so the remaining ties fire via deque
     pops instead of repeated heap sifts.

  Invariant: while the clock sits at time *t*, every queued entry due
  at *t* is in ``ready`` (in seq order) and the heap holds strictly
  later times. The engine's hot loop relies on it — the merge between
  lanes reduces to "ready first, then advance".

Both classes expose the same storage attributes (``heap``, ``ready``)
so the engine can bind them as locals in its run loop; the push/pop
methods are the canonical (and differential-tested) semantics the
inlined fast paths must agree with. Those are the pushes in
``Simulator.timeout``, ``Event.succeed`` and the zero-delay hand-offs
(``Store`` puts and gets, ``Resource`` grants, process kick-off and
exit) and the pops of the non-debug ``Simulator.run`` loop.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Deque, Tuple

__all__ = ["HeapEventQueue", "BucketEventQueue", "make_queue", "QUEUE_KINDS"]

#: one queued event: (fire time, schedule sequence, event object)
Entry = Tuple[float, int, Any]


class HeapEventQueue:
    """Reference spec: a plain binary heap of ``(time, seq, event)``.

    ``ready`` exists (always empty) so the engine's drain logic is
    shape-compatible with the bucketed queue; the reference never
    populates it.
    """

    __slots__ = ("heap", "ready")

    bucketed = False

    def __init__(self) -> None:
        self.heap: list[Entry] = []
        self.ready: Deque[Entry] = deque()

    def push(self, now: float, entry: Entry) -> None:
        """Queue *entry*; *now* is the current clock (unused here)."""
        heapq.heappush(self.heap, entry)

    def pop(self) -> Entry:
        """Remove and return the earliest entry in ``(time, seq)`` order."""
        if self.ready:  # pragma: no cover - reference lane stays empty
            return self.ready.popleft()
        return heapq.heappop(self.heap)

    def __len__(self) -> int:
        return len(self.heap) + len(self.ready)

    def __bool__(self) -> bool:
        return bool(self.heap) or bool(self.ready)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} heap={len(self.heap)} "
            f"ready={len(self.ready)}>"
        )


class BucketEventQueue(HeapEventQueue):
    """Bucketed/indexed discipline: current-instant FIFO lane + heap."""

    __slots__ = ()

    bucketed = True

    def push(self, now: float, entry: Entry) -> None:
        """Queue *entry*: the current-instant bucket if due now, else
        the heap of future times."""
        if entry[0] == now:
            self.ready.append(entry)
        else:
            heapq.heappush(self.heap, entry)

    def pop(self) -> Entry:
        """Remove and return the earliest entry in ``(time, seq)`` order.

        When the ready lane is dry, the clock is about to advance: pop
        the earliest future entry and drain every entry tied at its
        time into the ready lane in the same pass (heap pops of equal
        times come out in seq order, so the lane stays sorted).
        """
        ready = self.ready
        if ready:
            return ready.popleft()
        heap = self.heap
        entry = heapq.heappop(heap)
        when = entry[0]
        while heap and heap[0][0] == when:
            ready.append(heapq.heappop(heap))
        return entry


#: selectable queue disciplines, by ``Simulator(queue=...)`` name
QUEUE_KINDS = {"bucket": BucketEventQueue, "heapq": HeapEventQueue}


def make_queue(kind: str) -> HeapEventQueue:
    """Build the event queue for *kind* ("bucket" or "heapq")."""
    try:
        return QUEUE_KINDS[kind]()
    except KeyError:
        raise ValueError(
            f"unknown event queue kind {kind!r}; expected one of "
            f"{sorted(QUEUE_KINDS)}"
        ) from None
