"""An open-addressing hash index in simulated memory (footnote 3).

Section V-B, footnote 3: "in-memory databases usually implement hash
indexes, as this structure presents even better performance when it is
stored in memory. Thus, by using b-trees in this study, we relinquish
the advantage over remote swap provided by hash indexes when used in
remote memory."

This module implements that forgone advantage so it can be measured: a
linear-probing hash table whose probe sequence touches **O(1)** cache
lines per lookup — ideal for constant-latency remote memory, hopeless
for a pager (every probe is a uniformly random page).

Layout: an array of 16-byte slots ``[key u64][value u64]``; key 0
marks an empty slot (keys must be non-zero). The table is sized to a
power of two; multiplicative hashing picks the first probe position.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.model.fastsim import BumpAllocator

__all__ = ["HashIndex"]

_SLOT_BYTES = 16
#: Fibonacci hashing multiplier (2^64 / phi, odd)
_HASH_MULT = 0x9E3779B97F4A7C15


class HashIndex:
    """Linear-probing open-addressing hash table over an accessor."""

    def __init__(
        self,
        accessor,
        capacity: int,
        load_factor: float = 0.5,
        arena: BumpAllocator | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        if not 0.0 < load_factor <= 0.9:
            raise ConfigError(
                f"load factor must be in (0, 0.9], got {load_factor}"
            )
        self.accessor = accessor
        # slots: next power of two holding capacity/load_factor entries
        want = int(capacity / load_factor)
        self.num_slots = 1 << max(4, (want - 1).bit_length())
        self.capacity = capacity
        if arena is None:
            backing = getattr(accessor, "backing", None)
            total = (
                backing.capacity
                if backing is not None
                else getattr(accessor, "capacity", None)
            )
            if total is None:
                raise ConfigError(
                    "accessor exposes no capacity; pass an explicit arena"
                )
            arena = BumpAllocator(capacity=total)
        self.base = arena.alloc(self.num_slots * _SLOT_BYTES)
        self.num_keys = 0
        self.probes = 0
        self.lookups = 0

    # -- geometry -------------------------------------------------------------
    @property
    def table_bytes(self) -> int:
        return self.num_slots * _SLOT_BYTES

    def _slot_of(self, key: int) -> int:
        h = (key * _HASH_MULT) & 0xFFFF_FFFF_FFFF_FFFF
        return h >> (64 - self.num_slots.bit_length() + 1)

    def _slot_addr(self, slot: int) -> int:
        return self.base + (slot % self.num_slots) * _SLOT_BYTES

    # -- timed operations ---------------------------------------------------
    def insert(self, key: int, value: int) -> None:
        """Insert a non-zero key (timed probes through the accessor)."""
        if key == 0:
            raise ConfigError("key 0 is the empty marker")
        if self.num_keys >= self.capacity:
            raise ConfigError("hash index is full")
        slot = self._slot_of(key)
        for _ in range(self.num_slots):
            addr = self._slot_addr(slot)
            existing = self.accessor.read_u64(addr)
            if existing == 0:
                self.accessor.write(
                    addr,
                    int(key).to_bytes(8, "little")
                    + int(value).to_bytes(8, "little"),
                )
                self.num_keys += 1
                return
            if existing == key:
                raise ConfigError(f"duplicate key {key}")
            slot += 1
        raise ConfigError("probe wrapped the whole table")  # pragma: no cover

    def lookup(self, key: int) -> int | None:
        """Timed lookup; returns the value or None."""
        if key == 0:
            raise ConfigError("key 0 is the empty marker")
        self.lookups += 1
        slot = self._slot_of(key)
        for _ in range(self.num_slots):
            self.probes += 1
            addr = self._slot_addr(slot)
            raw = self.accessor.read(addr, _SLOT_BYTES)
            found = int.from_bytes(raw[:8], "little")
            if found == key:
                return int.from_bytes(raw[8:], "little")
            if found == 0:
                return None
            slot += 1
        return None  # pragma: no cover - table never runs full

    # -- untimed population ----------------------------------------------
    def bulk_insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Populate without timing (setup phases are not measured).

        Reads the table image once with ``bulk_read``, runs the same
        linear probing as :meth:`insert` in host memory and writes the
        image back once with ``bulk_write`` — no per-key accessor calls.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        if keys.shape != values.shape:
            raise ConfigError("keys and values must align")
        raw = self.accessor.bulk_read(self.base, self.table_bytes)
        table = np.frombuffer(raw, dtype="<u8").reshape(self.num_slots, 2).copy()
        slot_keys = table[:, 0].tolist()
        n = self.num_slots
        placed = []
        for k in keys.tolist():
            if k == 0:
                raise ConfigError("key 0 is the empty marker")
            slot = self._slot_of(k)
            while slot_keys[slot] != 0:
                if slot_keys[slot] == k:
                    raise ConfigError(f"duplicate key {k}")
                slot = (slot + 1) % n
            slot_keys[slot] = k
            placed.append(slot)
        table[placed, 0] = keys
        table[placed, 1] = values
        self.accessor.bulk_write(self.base, table.tobytes())
        self.num_keys += int(keys.size)

    @property
    def mean_probes(self) -> float:
        return self.probes / self.lookups if self.lookups else 0.0
