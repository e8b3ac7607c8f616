"""Functional physical memory.

The simulator actually stores data: reads return what was written, so
the b-tree, the PARSEC-like workloads and every test operate on real
bytes. To avoid allocating gigabytes of host RAM for a 16 GiB window,
the store is **chunk-sparse**: 64 KiB NumPy chunks materialize on first
touch and untouched chunks read as zeros (matching zero-initialized
DRAM semantics in the model).

The data plane is zero-copy where the API allows (the Arrow-style
argument of arXiv:2404.03030 — move views over contiguous buffers, not
per-element Python objects):

* each chunk carries a cached byte :class:`memoryview`, so reads that
  stay inside one chunk (the overwhelmingly common case — accesses are
  line- or page-grained and chunks are 64 KiB) build their result
  straight off the chunk with no ``bytearray`` staging loop;
* each chunk also carries a word view, the same memoryview cast to
  ``"Q"``: indexing it yields a plain Python ``int`` (about 30 ns),
  where indexing a ``uint64`` ndarray boxes a NumPy scalar that
  ``int()`` must then unbox (about 125 ns). :meth:`read_u64` /
  :meth:`write_u64` go through it for aligned words; unaligned
  addresses and values outside ``0 .. 2**64-1`` take the byte path
  (a non-integral value raises ``TypeError`` on both paths);
* :meth:`read_array` / :meth:`write_array` slice the chunk ndarray
  directly instead of bouncing through ``bytes``. Returned arrays are
  fresh copies — callers must never observe later writes through a
  previously returned buffer (see the aliasing tests);
* :meth:`view_array` / :meth:`view` hand out **zero-copy read-only
  windows** straight over the chunk storage for ranges that stay
  inside one chunk — the columnar data plane's fast path (DESIGN.md
  §13). A range that crosses a chunk boundary has no contiguous host
  buffer, so these return ``None`` and the caller falls back to a
  copying read. :meth:`words` is the same window over the word view,
  for a search that compares words as ``int`` (the fast tier's
  in-node B-tree search);
* :meth:`read_into` assembles a multi-chunk range directly into a
  caller-provided buffer, so the copying fallback still makes exactly
  one copy (no intermediate ``bytes`` staging).
"""

from __future__ import annotations

import operator

import numpy as np

from repro.errors import AddressError

__all__ = ["BackingStore"]

_DEFAULT_CHUNK = 64 * 1024


class BackingStore:
    """Sparse byte-addressable memory of a fixed capacity."""

    def __init__(self, capacity: int, chunk_bytes: int = _DEFAULT_CHUNK) -> None:
        if capacity <= 0:
            raise AddressError(f"capacity must be positive, got {capacity}")
        if chunk_bytes <= 0 or chunk_bytes & (chunk_bytes - 1):
            raise AddressError(
                f"chunk size must be a power of two, got {chunk_bytes}"
            )
        self.capacity = capacity
        self.chunk_bytes = chunk_bytes
        self._shift = chunk_bytes.bit_length() - 1
        self._mask = chunk_bytes - 1
        self._u64_ok = chunk_bytes >= 8
        self._chunks: dict[int, np.ndarray] = {}
        #: cached memoryview per chunk (zero-copy byte reads)
        self._views: dict[int, memoryview] = {}
        #: cached ``"Q"`` cast of each chunk's memoryview (word fast path)
        self._u64: dict[int, memoryview] = {}
        #: lazily-built zero block for read_into over untouched chunks
        self._zeros: bytes | None = None

    def _materialize(self, cidx: int) -> np.ndarray:
        chunk = np.zeros(self.chunk_bytes, dtype=np.uint8)
        self._chunks[cidx] = chunk
        self._views[cidx] = memoryview(chunk)  # type: ignore[arg-type]
        if self._u64_ok:
            self._u64[cidx] = self._views[cidx].cast("Q")
        return chunk

    # -- byte interface -------------------------------------------------------
    def read(self, addr: int, size: int) -> bytes:
        """Read *size* bytes starting at *addr*."""
        if size < 0 or addr < 0 or addr + size > self.capacity:
            self._check_range(addr, size)
        off = addr & self._mask
        if off + size <= self.chunk_bytes:
            view = self._views.get(addr >> self._shift)
            if view is None:
                return bytes(size)
            return bytes(view[off : off + size])
        out = bytearray(size)
        pos = 0
        while pos < size:
            cidx = (addr + pos) >> self._shift
            off = (addr + pos) & self._mask
            take = min(size - pos, self.chunk_bytes - off)
            view = self._views.get(cidx)
            if view is not None:
                out[pos : pos + take] = view[off : off + take]
            pos += take
        return bytes(out)

    def read_into(self, addr: int, out: memoryview) -> None:
        """Read ``len(out)`` bytes at *addr* straight into *out*.

        The multi-chunk assembly path of the columnar plane: exactly one
        copy, from chunk storage into the caller's buffer (no ``bytes``
        staging). Untouched chunks contribute zeros.
        """
        size = len(out)
        if size < 0 or addr < 0 or addr + size > self.capacity:
            self._check_range(addr, size)
        pos = 0
        while pos < size:
            cidx = (addr + pos) >> self._shift
            off = (addr + pos) & self._mask
            take = min(size - pos, self.chunk_bytes - off)
            view = self._views.get(cidx)
            if view is not None:
                out[pos : pos + take] = view[off : off + take]
            else:
                if self._zeros is None:
                    self._zeros = bytes(self.chunk_bytes)
                out[pos : pos + take] = self._zeros[:take]
            pos += take

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* starting at *addr*."""
        size = len(data)
        if size < 0 or addr < 0 or addr + size > self.capacity:
            self._check_range(addr, size)
        if size == 0:
            return
        off = addr & self._mask
        if off + size <= self.chunk_bytes:
            cidx = addr >> self._shift
            chunk = self._chunks.get(cidx)
            if chunk is None:
                chunk = self._materialize(cidx)
            chunk[off : off + size] = np.frombuffer(data, dtype=np.uint8)
            return
        view = np.frombuffer(data, dtype=np.uint8)
        pos = 0
        while pos < size:
            cidx = (addr + pos) >> self._shift
            off = (addr + pos) & self._mask
            take = min(size - pos, self.chunk_bytes - off)
            chunk = self._chunks.get(cidx)
            if chunk is None:
                chunk = self._materialize(cidx)
            chunk[off : off + take] = view[pos : pos + take]
            pos += take

    # -- typed convenience (used by workloads) ----------------------------
    def read_u64(self, addr: int) -> int:
        if addr & 7 == 0 and self._u64_ok:
            if addr < 0 or addr + 8 > self.capacity:
                self._check_range(addr, 8)
            u64 = self._u64.get(addr >> self._shift)
            if u64 is None:
                return 0
            return u64[(addr & self._mask) >> 3]
        return int.from_bytes(self.read(addr, 8), "little")

    def write_u64(self, addr: int, value: int) -> None:
        if addr & 7 == 0 and self._u64_ok and 0 <= value < (1 << 64):
            if addr < 0 or addr + 8 > self.capacity:
                self._check_range(addr, 8)
            cidx = addr >> self._shift
            u64 = self._u64.get(cidx)
            if u64 is None:
                self._materialize(cidx)
                u64 = self._u64[cidx]
            u64[(addr & self._mask) >> 3] = value
            return
        # operator.index, not int(): a float must raise here as it does
        # on the word path, not be truncated
        self.write(addr, operator.index(value).to_bytes(8, "little", signed=False))

    def read_array(self, addr: int, count: int, dtype: np.dtype) -> np.ndarray:
        """Read *count* elements of *dtype* as a fresh array."""
        dt = np.dtype(dtype)
        size = count * dt.itemsize
        if size < 0 or addr < 0 or addr + size > self.capacity:
            self._check_range(addr, size)
        off = addr & self._mask
        if off + size <= self.chunk_bytes:
            chunk = self._chunks.get(addr >> self._shift)
            if chunk is None:
                return np.zeros(count, dtype=dt)
            # reinterpret the chunk slice in place, then copy out — one
            # copy total instead of slice->bytes->frombuffer->copy
            return chunk[off : off + size].view(dt).copy()
        out = np.empty(count, dtype=dt)
        self.read_into(addr, memoryview(out).cast("B"))
        return out

    # -- zero-copy views (the columnar plane's fast path) ------------------
    def view(self, addr: int, size: int) -> "memoryview | None":
        """A read-only zero-copy window, or ``None`` if the range has no
        contiguous host buffer (it crosses a chunk boundary).

        The view aliases live chunk storage: it observes later writes
        and must not outlive the scan that requested it (DESIGN.md §13
        documents the lifetime rules). Untouched ranges materialize
        their chunk so the view is well-defined (still zeros).
        """
        if size < 0 or addr < 0 or addr + size > self.capacity:
            self._check_range(addr, size)
        off = addr & self._mask
        if off + size > self.chunk_bytes:
            return None
        cidx = addr >> self._shift
        if cidx not in self._chunks:
            self._materialize(cidx)
        return self._views[cidx][off : off + size].toreadonly()

    def words(self, addr: int, count: int) -> "memoryview | None":
        """A read-only zero-copy window over the *count* u64 words at
        *addr*: a slice of the chunk's ``"Q"`` view, whose items index as
        plain ``int``. ``None`` when the range crosses a chunk boundary
        or *addr* is not word-aligned; the caller then falls back to a
        copying read, as for :meth:`view_array`. An untouched chunk
        reads as zeros without being materialized. Same aliasing and
        lifetime rules as :meth:`view`.
        """
        size = 8 * count
        if size < 0 or addr < 0 or addr + size > self.capacity:
            self._check_range(addr, size)
        off = addr & self._mask
        if addr & 7 or off + size > self.chunk_bytes or not self._u64_ok:
            return None
        u64 = self._u64.get(addr >> self._shift)
        if u64 is None:
            if self._zeros is None:
                self._zeros = bytes(self.chunk_bytes)
            u64 = memoryview(self._zeros).cast("Q")
        first = off >> 3
        return u64[first : first + count].toreadonly()

    def view_array(self, addr: int, count: int, dtype: np.dtype) -> "np.ndarray | None":
        """A read-only typed zero-copy window over *count* elements, or
        ``None`` when the range crosses a chunk boundary (no contiguous
        buffer to view). Same aliasing/lifetime rules as :meth:`view`.
        """
        dt = np.dtype(dtype)
        size = count * dt.itemsize
        if size < 0 or addr < 0 or addr + size > self.capacity:
            self._check_range(addr, size)
        off = addr & self._mask
        if off + size > self.chunk_bytes:
            return None
        cidx = addr >> self._shift
        chunk = self._chunks.get(cidx)
        if chunk is None:
            chunk = self._materialize(cidx)
        window = chunk[off : off + size].view(dt)
        window.flags.writeable = False
        return window

    def write_array(self, addr: int, values: np.ndarray) -> None:
        values = np.ascontiguousarray(values)
        size = values.nbytes
        if addr < 0 or addr + size > self.capacity:
            self._check_range(addr, size)
        if size == 0:
            return
        off = addr & self._mask
        if off + size <= self.chunk_bytes:
            cidx = addr >> self._shift
            chunk = self._chunks.get(cidx)
            if chunk is None:
                chunk = self._materialize(cidx)
            chunk[off : off + size] = values.reshape(-1).view(np.uint8)
            return
        self.write(addr, values.tobytes())

    # -- introspection ---------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """Host memory actually materialized."""
        return len(self._chunks) * self.chunk_bytes

    def _check_range(self, addr: int, size: int) -> None:
        if size < 0:
            raise AddressError(f"negative access size {size}")
        if addr < 0 or addr + size > self.capacity:
            raise AddressError(
                f"access [{addr:#x}, {addr + size:#x}) outside capacity "
                f"{self.capacity:#x}"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<BackingStore {self.capacity:#x} bytes, "
            f"{len(self._chunks)} chunks resident>"
        )
