"""Columnar scan / filter / aggregate operators — the OLAP workload.

The paper's database experiment stops at point queries over a b-tree;
its Section VI objective is "the execution time for different queries"
over an entire in-memory database. Whole-column analytical queries are
the class that stresses the data plane hardest: a scan touches every
byte of a column, so per-element accessor calls cost O(elements)
Python-level operations even though the packet tier charges the same
bytes in O(bursts) simulated events. This module closes that gap the
way the Arrow cluster-shared-memory work does — typed, zero-copy
column views over shared regions — so a whole-column scan is a handful
of `view_array` windows riding the `line_count` burst path.

Operators come in pairs under the repo's batch discipline:

* :class:`ColumnScan` windows are charged through the accessor's span
  path — one cache call per window, and on the packet tier coalesced
  into burst packets. The batched-or-scalar choice belongs to the accessor, made
  once at construction: a fast-tier accessor built with
  ``batch=False``, or a ``SessionAccessor`` on a
  ``Cluster(config, batch=False)``, charges the same windows through
  the scalar per-line reference path — identical simulated time,
  stats, and results, pinned by the twin equivalence suites.
* The ``*_ref`` functions are **per-element executable specs**: one
  accessor call per element (`read_u64` loops). They define what each
  operator must compute — the hypothesis differential suite compares
  against them — and serve as the per-element baseline the
  ``columnartier`` perf guard measures the speedup over. They are
  *not* time-equivalent to the windowed operators (per-element cached
  reads pay a hit per element, windows pay per line); only results
  are comparable.

A :class:`Column` may be **dense** (elements back to back) or
**strided** (one field of a row-major table, e.g. MiniDB's key
column). Strided windows read one contiguous span covering the rows
and slice the field out with a NumPy step — the row-store scan
pattern, where skipping the payload bytes is impossible anyway at
line granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "Column",
    "ColumnScan",
    "COLUMN_WINDOW_BYTES",
    "scan_sum_ref",
    "scan_min_max_ref",
    "count_where_ref",
    "select_ref",
]

#: Default streaming window: one backing-store chunk, so chunk-aligned
#: dense columns serve every full window as a zero-copy view.
COLUMN_WINDOW_BYTES: int = 64 * 1024

_U64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class Column:
    """A typed column in accessor address space.

    ``stride`` is the byte distance between consecutive elements:
    ``0`` (or the item size) means dense; a row size means "this field
    of every row". Strides must be multiples of the element size so a
    window can be sliced out of one typed span view.
    """

    addr: int
    count: int
    dtype: str = "uint64"
    stride: int = 0

    def __post_init__(self) -> None:
        dt = np.dtype(self.dtype)
        if dt.kind not in ("u", "f") or dt.itemsize != 8:
            raise ConfigError(
                f"columns are uint64/float64, got {dt}"
            )
        if self.count < 0:
            raise ConfigError(f"negative element count {self.count}")
        if self.stride and (
            self.stride < dt.itemsize or self.stride % dt.itemsize
        ):
            raise ConfigError(
                f"stride {self.stride} must be a multiple of the "
                f"{dt.itemsize}-byte element size"
            )

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @property
    def itemsize(self) -> int:
        return self.np_dtype.itemsize

    @property
    def stride_bytes(self) -> int:
        return self.stride if self.stride else self.itemsize

    @property
    def is_dense(self) -> bool:
        return self.stride_bytes == self.itemsize

    def slice(self, start: int, stop: int) -> "Column":
        """The sub-column covering elements ``[start, stop)``."""
        if not 0 <= start <= stop <= self.count:
            raise ConfigError(
                f"slice [{start}, {stop}) outside 0..{self.count}"
            )
        return Column(
            self.addr + start * self.stride_bytes,
            stop - start,
            self.dtype,
            self.stride,
        )


class ColumnScan:
    """Bulk operators over :class:`Column` s through any accessor.

    Works against both tiers: fast-tier accessors
    (:class:`~repro.model.fastsim.LocalMemAccessor` & friends) and the
    packet-level :class:`~repro.apps.access.SessionAccessor`. Windows
    come from the accessor's ``view_array`` when it has one (zero-copy
    where legal) and fall back to the copying ``read_array`` otherwise.
    """

    def __init__(self, accessor, window_bytes: int = COLUMN_WINDOW_BYTES) -> None:
        if window_bytes < 8 or window_bytes % 8:
            raise ConfigError(
                f"window_bytes {window_bytes} must be a multiple of 8"
            )
        self.accessor = accessor
        self.window_bytes = window_bytes
        view = getattr(accessor, "view_array", None)
        self._view = view if view is not None else accessor.read_array

    # -- windowing --------------------------------------------------------
    def windows(self, col: Column):
        """Stream *col* as ``(offset, values)`` windows.

        Dense columns split at ``window_bytes``-aligned address
        boundaries (chunk-aligned columns are all zero-copy); strided
        columns split at row boundaries near the window size and read
        one contiguous span from the first element to the last
        element's end — every line the fields live on, nothing past
        the final field.
        """
        dt = col.np_dtype
        item = dt.itemsize
        if col.is_dense:
            pos = 0
            while pos < col.count:
                addr = col.addr + pos * item
                boundary = (addr // self.window_bytes + 1) * self.window_bytes
                take = min(col.count - pos, max(1, (boundary - addr) // item))
                yield pos, self._view(addr, take, dt)
                pos += take
            return
        step = col.stride // item
        rows_per = max(1, self.window_bytes // col.stride)
        pos = 0
        while pos < col.count:
            take = min(col.count - pos, rows_per)
            addr = col.addr + pos * col.stride
            span = (take - 1) * step + 1
            window = self._view(addr, span, dt)
            yield pos, window[::step]
            pos += take

    # -- operators --------------------------------------------------------
    def sum(self, col: Column):
        """Aggregate sum — modulo 2**64 for ``uint64`` (hardware
        semantics), float otherwise."""
        if col.np_dtype.kind == "u":
            acc = 0
            for _, w in self.windows(col):
                acc = (acc + int(np.sum(w, dtype=np.uint64))) & _U64_MASK
            return acc
        total = 0.0
        for _, w in self.windows(col):
            total += float(np.sum(w, dtype=np.float64))
        return total

    def min_max(self, col: Column):
        """``(min, max)`` over the column; ``(None, None)`` if empty."""
        lo = hi = None
        for _, w in self.windows(col):
            if w.size == 0:
                continue
            wlo, whi = w.min(), w.max()
            if lo is None or wlo < lo:
                lo = wlo
            if hi is None or whi > hi:
                hi = whi
        if lo is None:
            return None, None
        cast = int if col.np_dtype.kind == "u" else float
        return cast(lo), cast(hi)

    def count_where(self, col: Column, lo, hi) -> int:
        """``count(*) WHERE lo <= x < hi`` — the filter aggregate."""
        n = 0
        for _, w in self.windows(col):
            n += int(np.count_nonzero((w >= lo) & (w < hi)))
        return n

    def select(self, col: Column, lo, hi) -> np.ndarray:
        """Element indices where ``lo <= x < hi`` (the filter's
        selection vector, int64, ascending)."""
        parts = []
        for off, w in self.windows(col):
            hits = np.nonzero((w >= lo) & (w < hi))[0]
            if hits.size:
                parts.append(hits.astype(np.int64) + off)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)


# -- per-element executable specs (reference twins for results) ----------
def _iter_elements(accessor, col: Column):
    dt = col.np_dtype
    stride = col.stride_bytes
    if dt.kind == "u":
        for i in range(col.count):
            yield accessor.read_u64(col.addr + i * stride)
        return
    for i in range(col.count):
        raw = accessor.read(col.addr + i * stride, 8)
        yield float(np.frombuffer(raw, dtype=dt)[0])


def scan_sum_ref(accessor, col: Column):
    """Per-element reference: one accessor call per element."""
    if col.np_dtype.kind == "u":
        acc = 0
        for v in _iter_elements(accessor, col):
            acc = (acc + v) & _U64_MASK
        return acc
    total = 0.0
    for v in _iter_elements(accessor, col):
        total += v
    return total


def scan_min_max_ref(accessor, col: Column):
    lo = hi = None
    for v in _iter_elements(accessor, col):
        if lo is None or v < lo:
            lo = v
        if hi is None or v > hi:
            hi = v
    return lo, hi


def count_where_ref(accessor, col: Column, lo, hi) -> int:
    return sum(1 for v in _iter_elements(accessor, col) if lo <= v < hi)


def select_ref(accessor, col: Column, lo, hi) -> np.ndarray:
    idx = [
        i
        for i, v in enumerate(_iter_elements(accessor, col))
        if lo <= v < hi
    ]
    return np.asarray(idx, dtype=np.int64)
