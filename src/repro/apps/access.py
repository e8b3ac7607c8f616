"""Accessor adapters and tracing.

* :class:`SessionAccessor` runs a workload written against the fast
  tier's :class:`~repro.model.fastsim.Accessor` interface on the
  **packet-level** tier instead (synchronously, one access at a time).
  Used to cross-validate the two tiers on small workloads.
* :class:`TraceRecorder` wraps any accessor and records the access
  stream for offline analysis (locality studies, ablations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.model.fastsim import search_btree_ref, search_u64_ref

__all__ = ["SessionAccessor", "TraceRecorder", "TraceEntry"]


class SessionAccessor:
    """Adapter: fast-tier workload -> packet-level Session.

    Addresses the workload uses are offsets into one big allocation
    made at construction; reads/writes run through a real simulated
    core, so ``time_ns`` is packet-level simulated time.
    """

    def __init__(
        self,
        session,
        capacity: int,
        placement=None,
        core: int = 0,
        cached: bool = True,
    ) -> None:
        from repro.cluster.malloc import Placement

        self.session = session
        self.core = core
        self.cached = cached
        self.capacity = capacity
        self.base = session.malloc(
            capacity, placement if placement is not None else Placement.AUTO
        )
        self._t0 = session.sim.now
        self.accesses = 0

    @property
    def time_ns(self) -> float:
        return self.session.sim.now - self._t0

    def reset_clock(self) -> None:
        self._t0 = self.session.sim.now
        self.accesses = 0

    def compute(self, ns: float) -> None:
        """Charge non-memory work as simulated time."""
        self.session.sim.run_process(_sleep(self.session.sim, ns))

    # -- data path ---------------------------------------------------------
    def read(self, addr: int, size: int) -> bytes:
        self.accesses += 1
        return self.session.read(self.base + addr, size, self.core, self.cached)

    def write(self, addr: int, data: bytes) -> None:
        self.accesses += 1
        self.session.write(self.base + addr, data, self.core, self.cached)

    def read_u64(self, addr: int) -> int:
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, int(value).to_bytes(8, "little", signed=False))

    def search_u64(self, addr: int, count: int, key: int) -> tuple[int, bool, int]:
        """One timed :meth:`read_u64` per probe (:func:`search_u64_ref`)."""
        return search_u64_ref(self.read_u64, addr, count, key)

    def search_btree(self, root: int, key: int, max_keys: int) -> tuple[bool, int, int]:
        """Per node one timed header :meth:`read`, :meth:`search_u64`
        and child :meth:`read_u64` (:func:`search_btree_ref`)."""
        return search_btree_ref(self, root, key, max_keys)

    # typed helpers: a zero-count access is free and counts no access,
    # on this tier and the fast tier alike
    def read_array(self, addr: int, count: int, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        if count == 0:
            return np.empty(0, dtype=dt)
        if not self.cached:
            raw = self.read(addr, count * dt.itemsize)
            return np.frombuffer(raw, dtype=dt).copy()
        self.accesses += 1
        return self.session.read_array(self.base + addr, count, dt, self.core)

    def view_array(self, addr: int, count: int, dtype) -> np.ndarray:
        """Columnar window via :meth:`Session.view_array` — zero-copy
        over the owner's backing chunk when view-legal, a fresh copy
        otherwise. Uncached accessors have no span path to charge
        through, so they fall back to the copying read."""
        if not self.cached or count == 0:
            return self.read_array(addr, count, dtype)
        self.accesses += 1
        return self.session.view_array(self.base + addr, count, dtype, self.core)

    def write_array(self, addr: int, values: np.ndarray) -> None:
        raw = np.ascontiguousarray(values).tobytes()
        if raw:
            self.write(addr, raw)

    def bulk_read(self, addr: int, size: int) -> bytes:
        """Untimed read for population phases (:meth:`Session.bulk_read`)."""
        return self.session.bulk_read(self.base + addr, size, self.core)

    def bulk_write(self, addr: int, data: bytes) -> None:
        """Untimed population (:meth:`Session.bulk_write`): straight into
        functional memory, healing any damaged page it covers."""
        self.session.bulk_write(self.base + addr, data, self.core)


def _sleep(sim, ns: float):
    yield sim.timeout(ns)


@dataclass(frozen=True)
class TraceEntry:
    addr: int
    size: int
    is_write: bool


class TraceRecorder:
    """Record every access flowing through an accessor."""

    def __init__(self, inner, max_entries: Optional[int] = None) -> None:
        self.inner = inner
        self.trace: list[TraceEntry] = []
        self.max_entries = max_entries

    @property
    def time_ns(self) -> float:
        return self.inner.time_ns

    @property
    def accesses(self) -> int:
        return self.inner.accesses

    @property
    def backing(self):
        """Passthrough so capacity probes (e.g. MiniDB's) see the inner
        accessor's store."""
        return getattr(self.inner, "backing", None)

    @property
    def capacity(self):
        return getattr(self.inner, "capacity", None)

    # an access is recorded only once the inner accessor has performed
    # it, and a zero-count typed access (free, counted by no tier) not
    # at all, so the trace holds exactly the accesses that happened
    def _record(self, addr: int, size: int, is_write: bool) -> None:
        if self.max_entries is None or len(self.trace) < self.max_entries:
            self.trace.append(TraceEntry(addr, size, is_write))

    def read(self, addr: int, size: int) -> bytes:
        data = self.inner.read(addr, size)
        self._record(addr, size, False)
        return data

    def write(self, addr: int, data: bytes) -> None:
        self.inner.write(addr, data)
        self._record(addr, len(data), True)

    def read_u64(self, addr: int) -> int:
        value = self.inner.read_u64(addr)
        self._record(addr, 8, False)
        return value

    def write_u64(self, addr: int, value: int) -> None:
        self.inner.write_u64(addr, value)
        self._record(addr, 8, True)

    def search_u64(self, addr: int, count: int, key: int) -> tuple[int, bool, int]:
        """One recorded :meth:`read_u64` per probe (:func:`search_u64_ref`)."""
        return search_u64_ref(self.read_u64, addr, count, key)

    def search_btree(self, root: int, key: int, max_keys: int) -> tuple[bool, int, int]:
        """Per node a recorded 16 B header, 8 B per probe and 8 B for
        the child pointer (:func:`search_btree_ref`)."""
        return search_btree_ref(self, root, key, max_keys)

    def read_array(self, addr: int, count: int, dtype) -> np.ndarray:
        values = self.inner.read_array(addr, count, dtype)
        if count:
            self._record(addr, values.nbytes, False)
        return values

    def view_array(self, addr: int, count: int, dtype) -> np.ndarray:
        values = self.inner.view_array(addr, count, dtype)
        if count:
            self._record(addr, values.nbytes, False)
        return values

    def write_array(self, addr: int, values: np.ndarray) -> None:
        self.inner.write_array(addr, values)
        if values.nbytes:
            self._record(addr, values.nbytes, True)

    def bulk_read(self, addr: int, size: int) -> bytes:
        return self.inner.bulk_read(addr, size)

    def bulk_write(self, addr: int, data: bytes) -> None:
        self.inner.bulk_write(addr, data)

    def compute(self, ns: float) -> None:
        self.inner.compute(ns)

    def unique_pages(self, page_bytes: int = 4096) -> int:
        """Distinct pages touched — the locality figure of Section V-B."""
        return len({e.addr // page_bytes for e in self.trace})
