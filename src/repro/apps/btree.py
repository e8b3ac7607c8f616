"""A B-tree laid out in simulated memory (Section V-B).

The paper stresses its prototype with "a data retrieval operation that
mimics database searches": finding keys in a B-tree whose nodes live in
remote memory (or, for the baseline, in pages that swap in and out of
local memory). The B-tree here is *functional* — it stores real keys in
the accessor's backing memory and search returns real answers — while
every timed byte moves through the accessor, so the same tree measures
local memory, remote memory, and swap.

Node layout (all little-endian u64, defined once in
:mod:`repro.model.fastsim`, which descends it)::

    [count][is_leaf][key_0 .. key_{K-1}][child_0 .. child_K]

with K = children - 1 keys per node. A node occupies
``16 + 8*(2*children - 1)`` bytes and is page-aligned when it fits in
one page (what a database would do — the optimum of Fig. 9 appears
where one node fills one page).

Construction for the figures uses :meth:`BTree.bulk_load`, which packs
sorted keys into a left-complete tree: every node off the right spine
is full and the last level fills left to right — the paper's "best
case for the remote swap technique". A classic top-down
:meth:`BTree.insert` with node splits is provided for API completeness
and is exercised by the unit tests.

Bulk node accesses (the ``read_array``/``write_array`` key and child
moves, and the multi-line node reads on the search path) are charged
through the accessors' batched span path
(:meth:`repro.mem.cache.Cache.access_span`) — timing identical to the
per-line walk, computed in one call per node. A lookup is one
:meth:`~repro.model.fastsim.Accessor.search_btree` call, which charges
each node's 16-byte header read, key probes and child-pointer read
exactly as the per-node calls of
:func:`~repro.model.fastsim.search_btree_ref` do (on the fast tier, as
one run over the node's page and lines; a node whose header straddles
two lines takes those calls themselves). Inserts search a node with one
:meth:`~repro.model.fastsim.Accessor.search_u64` call, which charges
every probe exactly as a ``read_u64`` of its key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.model.fastsim import (
    BTREE_HEADER,
    BTREE_HEADER_BYTES,
    BumpAllocator,
    btree_child_addr,
    btree_key_addr,
    btree_node_bytes,
)
from repro.units import PAGE_SIZE

__all__ = ["BTree", "SearchStats"]


@dataclass
class SearchStats:
    """Aggregate over a batch of searches."""

    searches: int = 0
    found: int = 0
    nodes_visited: int = 0
    key_probes: int = 0

    @property
    def mean_depth(self) -> float:
        return self.nodes_visited / self.searches if self.searches else 0.0


class BTree:
    """A fixed-fanout B-tree of u64 keys over an accessor."""

    def __init__(
        self,
        accessor,
        children: int,
        arena: BumpAllocator | None = None,
        page_bytes: int = PAGE_SIZE,
    ) -> None:
        if children < 3:
            raise ConfigError(f"B-tree needs >= 3 children per node, got {children}")
        self.accessor = accessor
        self.children = children
        self.max_keys = children - 1
        self.page_bytes = page_bytes
        self.node_bytes = btree_node_bytes(self.max_keys)
        if arena is None:
            backing = getattr(accessor, "backing", None)
            capacity = (
                backing.capacity
                if backing is not None
                else getattr(accessor, "capacity", None)
            )
            if capacity is None:
                raise ConfigError(
                    "accessor exposes no capacity; pass an explicit arena"
                )
            arena = BumpAllocator(capacity=capacity)
        self.arena = arena
        self.root_addr: int = self._new_node(is_leaf=True)
        self.height = 0  # levels below the root
        self.num_keys = 0
        self.num_nodes = 1
        self.stats = SearchStats()

    # -- public API ------------------------------------------------------
    def search(self, key: int) -> bool:
        """Timed lookup: one :meth:`~repro.model.fastsim.Accessor.search_btree`
        call, which charges every node's header, key probes and child
        pointer."""
        found, visited, probes = self.accessor.search_btree(
            self.root_addr, key, self.max_keys
        )
        stats = self.stats
        stats.searches += 1
        stats.found += found
        stats.nodes_visited += visited
        stats.key_probes += probes
        return found

    def insert(self, key: int) -> None:
        """Classic top-down insert with preemptive splits."""
        root_count, _ = self._read_header(self.root_addr)
        if root_count == self.max_keys:
            new_root = self._new_node(is_leaf=False)
            self._write_child(new_root, 0, self.root_addr)
            self._split_child(new_root, 0)
            self.root_addr = new_root
            self.height += 1
        self._insert_nonfull(self.root_addr, key)
        self.num_keys += 1

    def bulk_load(self, keys: np.ndarray) -> None:
        """Populate an empty tree from sorted unique keys (untimed).

        Builds the left-complete shape of Section V-B: every level but
        the last is full, the last level fills left to right.
        """
        if self.num_keys:
            raise ConfigError("bulk_load requires an empty tree")
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return
        if np.any(keys[1:] <= keys[:-1]):
            raise ConfigError("bulk_load needs strictly increasing keys")
        height = self._min_height(keys.size)
        self.num_nodes = 0  # the construction counts every node it emits
        self.root_addr = self._build(keys, height)
        self.height = height
        self.num_keys = int(keys.size)

    def reset_stats(self) -> None:
        self.stats = SearchStats()

    # -- node I/O (timed, via accessor) ----------------------------------
    def _read_header(self, addr: int) -> tuple[int, bool]:
        count, is_leaf = BTREE_HEADER.unpack(
            self.accessor.read(addr, BTREE_HEADER_BYTES)
        )
        return count, bool(is_leaf)

    def _key_addr(self, node: int, i: int) -> int:
        return btree_key_addr(node, i)

    def _child_addr(self, node: int, i: int) -> int:
        return btree_child_addr(node, self.max_keys, i)

    def _read_key(self, node: int, i: int) -> int:
        self.stats.key_probes += 1
        return self.accessor.read_u64(self._key_addr(node, i))

    def _read_child(self, node: int, i: int) -> int:
        return self.accessor.read_u64(self._child_addr(node, i))

    def _write_child(self, node: int, i: int, child: int) -> None:
        self.accessor.write_u64(self._child_addr(node, i), child)

    def _search_in_node(self, node: int, count: int, key: int) -> tuple[int, bool]:
        """Binary search over the node's key array, one timed probe per
        comparison (the paper's O(log2 K) in-node cost), charged by the
        accessor's one-call :meth:`search_u64`."""
        idx, found, probes = self.accessor.search_u64(
            node + BTREE_HEADER_BYTES, count, key
        )
        self.stats.key_probes += probes
        return idx, found

    # -- allocation --------------------------------------------------------
    def _new_node(self, is_leaf: bool) -> int:
        # page-align nodes that fit in a page; otherwise start the node
        # on a page boundary anyway so spill is deterministic
        aligned = -(-self.arena._next // self._align()) * self._align()
        pad = aligned - self.arena._next
        if pad:
            self.arena.alloc(pad)
        addr = self.arena.alloc(self.node_bytes)
        self.accessor.bulk_write(
            addr, (0).to_bytes(8, "little") + int(is_leaf).to_bytes(8, "little")
        )
        return addr

    def _align(self) -> int:
        if self.node_bytes <= self.page_bytes:
            # pack as many whole nodes per page as fit, page-aligned
            per_page = self.page_bytes // self.node_bytes
            return self.page_bytes // per_page if per_page else self.page_bytes
        return self.page_bytes

    # -- bulk build ---------------------------------------------------------
    def _full_cap(self, height: int) -> int:
        """Keys a completely full subtree of *height* holds."""
        m, k = self.children, self.max_keys
        return k * (m ** (height + 1) - 1) // (m - 1)

    def _min_height(self, n: int) -> int:
        h = 0
        while self._full_cap(h) < n:
            h += 1
        return h

    def _build(self, keys: np.ndarray, height: int) -> int:
        n = keys.size
        if height == 0:
            if n > self.max_keys:
                raise ConfigError(
                    f"leaf overflow in bulk build: {n} > {self.max_keys}"
                )
            node = self._new_node(is_leaf=True)
            self._store_node(node, keys, children=None, is_leaf=True)
            self.num_nodes += 1
            return node

        child_cap = self._full_cap(height - 1)
        seps: list[int] = []
        child_addrs: list[int] = []
        pos = 0
        while True:
            remaining = n - pos
            if remaining > child_cap:
                child_keys = keys[pos : pos + child_cap]
                pos += child_cap
                child_addrs.append(self._build(child_keys, height - 1))
                seps.append(int(keys[pos]))
                pos += 1
                if len(seps) == self.max_keys:
                    child_addrs.append(self._build(keys[pos:], height - 1))
                    break
            else:
                child_addrs.append(self._build(keys[pos:], height - 1))
                break
        node = self._new_node(is_leaf=False)
        self._store_node(
            node,
            np.array(seps, dtype=np.uint64),
            children=child_addrs,
            is_leaf=False,
        )
        self.num_nodes += 1
        return node

    def _store_node(
        self,
        addr: int,
        keys: np.ndarray,
        children: list[int] | None,
        is_leaf: bool,
    ) -> None:
        header = len(keys).to_bytes(8, "little") + int(is_leaf).to_bytes(
            8, "little"
        )
        self.accessor.bulk_write(addr, header)
        if len(keys):
            self.accessor.bulk_write(
                self._key_addr(addr, 0),
                np.ascontiguousarray(keys, dtype=np.uint64).tobytes(),
            )
        if children:
            self.accessor.bulk_write(
                self._child_addr(addr, 0),
                np.array(children, dtype=np.uint64).tobytes(),
            )

    # -- classic insert internals (timed) ------------------------------------
    def _insert_nonfull(self, addr: int, key: int) -> None:
        count, is_leaf = self._read_header(addr)
        idx, found = self._search_in_node(addr, count, key)
        if found:
            raise ConfigError(f"duplicate key {key}")
        if is_leaf:
            # shift keys right of idx by one slot
            if count - idx:
                tail = self.accessor.read_array(
                    self._key_addr(addr, idx), count - idx, np.uint64
                )
                self.accessor.write_array(self._key_addr(addr, idx + 1), tail)
            self.accessor.write_u64(self._key_addr(addr, idx), key)
            self._set_count(addr, count + 1)
            return
        child = self._read_child(addr, idx)
        child_count, _ = self._read_header(child)
        if child_count == self.max_keys:
            self._split_child(addr, idx)
            sep = self._read_key(addr, idx)
            if key == sep:
                raise ConfigError(f"duplicate key {key}")
            if key > sep:
                idx += 1
            child = self._read_child(addr, idx)
        self._insert_nonfull(child, key)

    def _split_child(self, parent: int, idx: int) -> None:
        child = self._read_child(parent, idx)
        count, is_leaf = self._read_header(child)
        mid = count // 2
        sep = self._read_key(child, mid)

        right = self._new_node(is_leaf=is_leaf)
        self.num_nodes += 1
        if count - mid - 1:
            right_keys = self.accessor.read_array(
                self._key_addr(child, mid + 1), count - mid - 1, np.uint64
            )
            self.accessor.write_array(self._key_addr(right, 0), right_keys)
        if not is_leaf:
            right_children = self.accessor.read_array(
                self._child_addr(child, mid + 1), count - mid, np.uint64
            )
            self.accessor.write_array(
                self._child_addr(right, 0), right_children
            )
        self._set_count(right, count - mid - 1)
        self._set_count(child, mid)

        pcount, _ = self._read_header(parent)
        # shift parent's keys/children right of idx
        if pcount - idx:
            tail_keys = self.accessor.read_array(
                self._key_addr(parent, idx), pcount - idx, np.uint64
            )
            self.accessor.write_array(self._key_addr(parent, idx + 1), tail_keys)
            tail_children = self.accessor.read_array(
                self._child_addr(parent, idx + 1), pcount - idx, np.uint64
            )
            self.accessor.write_array(
                self._child_addr(parent, idx + 2), tail_children
            )
        self.accessor.write_u64(self._key_addr(parent, idx), sep)
        self._write_child(parent, idx + 1, right)
        self._set_count(parent, pcount + 1)

    def _set_count(self, addr: int, count: int) -> None:
        self.accessor.write_u64(addr, count)
