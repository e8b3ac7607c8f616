"""A fixed reference snippet that tracks the host's current speed.

The benchmark runs on shared machines whose speed swings by up to 2x,
for anything from a millisecond to minutes, as other tenants come and
go, and that swing slows every piece of interpreted code by about the
same factor. So the recorder runs this snippet between operations
(every ``EVERY_NS`` of op time) and scales each op's host time by the
snippet's recent cost over ``REF_NS``: host times are reported at a
fixed nominal host speed. A long single call (a set-up, the traced
phase) is scaled by :func:`speed` probes taken just before and after
it. The snippet does the simulator's kind of interpreter work (small
slotted objects, dict and list traffic) on nothing a run shares, with
the garbage collector held off so a collection the workload owes never
lands in it.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

__all__ = ["EVERY_NS", "REF_NS", "reference_unit", "speed", "timed_unit"]

#: the snippet's host time at the nominal speed: its mean on a 2.1 GHz
#: Xeon core under CPython 3.11 when no neighbour is busy (busy
#: neighbours push it to 8-10 us)
REF_NS = 5_000
#: op host time between two snippet runs (about 2.5% overhead)
EVERY_NS = 200_000


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = key + 1

    def mix(self, other: int) -> int:
        self.value = (self.value + (other ^ self.key)) & 0xFFFF
        return self.value


def reference_unit() -> int:
    table: dict = {}
    out = []
    for i in range(12):
        item = _Item(i)
        table[i & 7] = item
        out.append(table.get(i & 3, item).mix(i) + item.key)
    return len(out)


def timed_unit() -> int:
    """Host ns of one run of the snippet."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter_ns()
    reference_unit()
    t = perf_counter_ns() - t0
    if enabled:
        gc.enable()
    return t


def speed(runs: int = 64) -> float:
    """Host speed relative to nominal now: REF_NS over the snippet's
    mean cost in *runs* back-to-back runs (about 0.5 ms)."""
    return REF_NS * runs / sum(timed_unit() for _ in range(runs))
