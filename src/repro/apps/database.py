"""A miniature in-memory database (the paper's Section VI objective).

"Our short-term objective is to continue testing the prototype with
real applications or even databases. In this paper, we have outlined a
first incursion in databases through the search operation in a b-tree,
but we aim to stress our prototype with a real full implementation,
store indexes or the entire database in memory, and then study the
execution time for different queries."

This module is that next step, scaled to the simulator: a table of
fixed-size rows stored in simulated memory, indexed both ways the
paper discusses —

* a **hash index** (footnote 3) for point lookups,
* a **B-tree** for ordered access (range scans),

plus a tiny query layer with the access patterns real queries have:

=================== ==========================================
query               memory behaviour
=================== ==========================================
point SELECT        1 hash probe + 1 row fetch
range SELECT        B-tree descent + columnar key-window count
UPDATE              point lookup + row write
full-table SCAN     whole-column aggregate (strided key scan)
=================== ==========================================

Every byte moves through the accessor, so one schema measures local
memory, the prototype, or a swap baseline — "the execution time for
different queries", exactly as asked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.btree import BTree
from repro.apps.columnar import Column, ColumnScan
from repro.apps.hashindex import HashIndex
from repro.errors import ConfigError
from repro.model.fastsim import BumpAllocator
from repro.sim.rng import stream
from repro.units import PAGE_SIZE

__all__ = ["MiniDB", "QueryStats"]


@dataclass
class QueryStats:
    """Aggregate per-query-class accounting."""

    point_selects: int = 0
    range_selects: int = 0
    updates: int = 0
    scans: int = 0
    rows_read: int = 0
    rows_written: int = 0


class MiniDB:
    """A single-table, dual-index in-memory database over an accessor."""

    def __init__(
        self,
        accessor,
        num_rows: int,
        row_bytes: int = 128,
        btree_children: int = 256,
        seed: int = 0,
    ) -> None:
        if num_rows < 1:
            raise ConfigError(f"need >= 1 row, got {num_rows}")
        if row_bytes < 16 or row_bytes % 8:
            raise ConfigError(
                f"row size must be a multiple of 8, >= 16; got {row_bytes}"
            )
        self.accessor = accessor
        self.num_rows = num_rows
        self.row_bytes = row_bytes
        self.stats = QueryStats()

        backing = getattr(accessor, "backing", None)
        total = (
            backing.capacity
            if backing is not None
            else getattr(accessor, "capacity", None)
        )
        if total is None:
            raise ConfigError("accessor exposes no capacity")
        arena = BumpAllocator(capacity=total)

        # table heap: rows laid out by primary key (1-based)
        self.table_base = arena.alloc(num_rows * row_bytes)
        # align index structures to fresh pages
        pad = (-arena._next) % PAGE_SIZE
        if pad:
            arena.alloc(pad)

        keys = np.arange(1, num_rows + 1, dtype=np.uint64)
        self.hash_index = HashIndex(accessor, capacity=num_rows, arena=arena)
        self.hash_index.bulk_insert(keys, self._row_addr_array(keys))
        self.btree = BTree(accessor, children=btree_children, arena=arena)
        self.btree.bulk_load(keys)

        # populate rows (untimed): key in the first 8 bytes, payload
        # after; the whole heap image is built host-side and written once
        rng = stream(seed, "minidb_rows")
        payload = rng.bytes(row_bytes - 8)
        image = np.empty((num_rows, row_bytes), dtype=np.uint8)
        image[:, 8:] = np.frombuffer(payload, dtype=np.uint8)
        image.view("<u8")[:, 0] = keys
        self.accessor.bulk_write(self.table_base, image.tobytes())

        # columnar scan plane: the primary-key field of every row is a
        # strided uint64 column; range/full scans run on it in windows
        # instead of per-row accessor calls (O(bursts) on the packet tier)
        self._scan = ColumnScan(accessor)
        self._key_col = Column(
            self.table_base, num_rows, "uint64", stride=row_bytes
        )

    # -- layout ---------------------------------------------------------------
    def _row_addr_array(self, keys: np.ndarray) -> np.ndarray:
        return (keys - 1) * np.uint64(self.row_bytes) + np.uint64(
            self.table_base
        )

    # -- queries ---------------------------------------------------------------
    def point_select(self, key: int) -> bytes | None:
        """SELECT * WHERE pk = key — hash probe then one row fetch."""
        self.stats.point_selects += 1
        row_addr = self.hash_index.lookup(key)
        if row_addr is None:
            return None
        row = self.accessor.read(row_addr, self.row_bytes)
        self.stats.rows_read += 1
        assert int.from_bytes(row[:8], "little") == key
        return row

    def range_select(self, lo: int, hi: int) -> int:
        """SELECT count(*) WHERE lo <= pk < hi — ordered access.

        Uses the B-tree to *verify* the lower bound exists (the ordered
        index the paper studies), then counts the clustered rows on the
        columnar scan path: one windowed span read over the key column
        slice instead of one accessor call per row.
        """
        if hi <= lo:
            raise ConfigError(f"empty range [{lo}, {hi})")
        self.stats.range_selects += 1
        self.btree.search(min(max(lo, 1), self.num_rows))
        first = max(lo, 1)
        last = min(hi, self.num_rows + 1)
        if last <= first:
            return 0
        count = self._scan.count_where(
            self._key_col.slice(first - 1, last - 1), lo, hi
        )
        assert count == last - first, "clustered keys must all match"
        self.stats.rows_read += count
        return count

    def update(self, key: int, payload: bytes) -> bool:
        """UPDATE ... WHERE pk = key — lookup plus a row write."""
        if len(payload) > self.row_bytes - 8:
            raise ConfigError("payload exceeds the row")
        self.stats.updates += 1
        row_addr = self.hash_index.lookup(key)
        if row_addr is None:
            return False
        self.accessor.write(row_addr + 8, payload)
        self.stats.rows_written += 1
        return True

    def full_scan(self) -> int:
        """SELECT agg(*) — one sequential sweep over the whole heap.

        Aggregates the key column on the columnar scan path: strided
        windows over the row heap, from the first key to the last
        key's end — every line the rows live on, without per-row (or
        per-page ``bytes``) accessor calls. The key checksum is
        asserted, so the sweep is a real aggregation, not a blind walk.
        """
        self.stats.scans += 1
        total = self._scan.sum(self._key_col)
        n = self.num_rows
        assert total == (n * (n + 1) // 2) & ((1 << 64) - 1)
        self.stats.rows_read += n
        return n

    # -- a canned mixed workload -------------------------------------------
    def run_mix(
        self,
        operations: int,
        point_frac: float = 0.70,
        range_frac: float = 0.15,
        update_frac: float = 0.10,
        range_span: int = 64,
        seed: int = 0,
    ) -> float:
        """Run a YCSB-style operation mix; returns elapsed time (ns).

        The remainder after point/range/update fractions is full scans.
        """
        if not 0 <= point_frac + range_frac + update_frac <= 1.0:
            raise ConfigError("operation fractions exceed 1.0")
        rng = stream(seed, "minidb_mix")
        kinds = rng.random(operations)
        keys = rng.integers(1, self.num_rows + 1, size=operations)
        t0 = self.accessor.time_ns
        payload = b"\xAB" * 16
        for kind, key in zip(kinds, keys):
            key = int(key)
            if kind < point_frac:
                self.point_select(key)
            elif kind < point_frac + range_frac:
                self.range_select(key, key + range_span)
            elif kind < point_frac + range_frac + update_frac:
                self.update(key, payload)
            else:
                self.full_scan()
        return self.accessor.time_ns - t0
