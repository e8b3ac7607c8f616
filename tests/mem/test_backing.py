"""Tests for the sparse functional backing store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError
from repro.mem.backing import BackingStore


def test_untouched_memory_reads_zero():
    bs = BackingStore(1 << 20)
    assert bs.read(0x1234, 16) == bytes(16)


def test_read_after_write():
    bs = BackingStore(1 << 20)
    bs.write(100, b"hello world")
    assert bs.read(100, 11) == b"hello world"


def test_write_spanning_chunks():
    bs = BackingStore(1 << 20, chunk_bytes=256)
    data = bytes(range(200)) * 3  # 600 bytes across 3+ chunks
    bs.write(200, data)
    assert bs.read(200, len(data)) == data


def test_partial_overwrite():
    bs = BackingStore(1 << 16)
    bs.write(0, b"AAAAAAAA")
    bs.write(2, b"BB")
    assert bs.read(0, 8) == b"AABBAAAA"


def test_sparse_residency():
    bs = BackingStore(1 << 30, chunk_bytes=4096)
    bs.write(0, b"x")
    bs.write((1 << 30) - 1, b"y")
    assert bs.resident_bytes == 2 * 4096


def test_bounds_checked():
    bs = BackingStore(1024)
    with pytest.raises(AddressError):
        bs.read(1020, 8)
    with pytest.raises(AddressError):
        bs.write(-1, b"a")
    with pytest.raises(AddressError):
        bs.read(0, -4)


def test_u64_helpers():
    bs = BackingStore(1 << 16)
    bs.write_u64(64, 0xDEADBEEFCAFEBABE)
    assert bs.read_u64(64) == 0xDEADBEEFCAFEBABE


def test_array_roundtrip():
    bs = BackingStore(1 << 20)
    values = np.arange(1000, dtype=np.uint64)
    bs.write_array(4096, values)
    out = bs.read_array(4096, 1000, np.uint64)
    assert (out == values).all()
    out[0] = 7  # must be a copy, not a view
    assert bs.read_u64(4096) == 0


def test_capacity_validation():
    with pytest.raises(AddressError):
        BackingStore(0)
    with pytest.raises(AddressError):
        BackingStore(1024, chunk_bytes=1000)  # not a power of two


class TestZeroCopyAliasing:
    """The zero-copy fast paths must never leak mutable views.

    Single-chunk reads are built from cached memoryviews over the chunk
    ndarrays; the API contract is that everything handed out is a fresh
    snapshot, immune to later writes (and vice versa for inputs).
    """

    def test_read_bytes_snapshot_survives_later_writes(self):
        bs = BackingStore(1 << 16)
        bs.write(0, b"before!!")
        snap = bs.read(0, 8)
        bs.write(0, b"after!!!")
        assert snap == b"before!!"

    def test_read_array_snapshot_survives_later_writes(self):
        bs = BackingStore(1 << 16)
        bs.write_array(0, np.arange(16, dtype=np.uint64))
        snap = bs.read_array(0, 16, np.uint64)
        bs.write_array(0, np.zeros(16, dtype=np.uint64))
        assert (snap == np.arange(16)).all()

    def test_mutating_write_array_input_after_call(self):
        bs = BackingStore(1 << 16)
        values = np.arange(8, dtype=np.uint64)
        bs.write_array(64, values)
        values[:] = 99
        assert (bs.read_array(64, 8, np.uint64) == np.arange(8)).all()

    def test_multi_chunk_read_matches_single_chunk(self):
        bs = BackingStore(1 << 16, chunk_bytes=256)
        data = bytes(range(256)) * 4
        bs.write(128, data)  # straddles several chunks
        assert bs.read(128, len(data)) == data

    def test_unaligned_u64_falls_back_correctly(self):
        bs = BackingStore(1 << 16)
        bs.write(3, (0x0102030405060708).to_bytes(8, "little"))
        assert bs.read_u64(3) == 0x0102030405060708
        bs.write_u64(5, 0xAABBCCDD)
        assert bs.read_u64(5) == 0xAABBCCDD

    def test_u64_across_chunk_boundary(self):
        bs = BackingStore(1 << 16, chunk_bytes=64)
        bs.write_u64(60, 0x1122334455667788)  # spans two chunks
        assert bs.read_u64(60) == 0x1122334455667788

    def test_u64_overflow_still_raises(self):
        bs = BackingStore(1 << 16)
        with pytest.raises(OverflowError):
            bs.write_u64(0, 1 << 64)
        with pytest.raises(OverflowError):
            bs.write_u64(0, -1)

    def test_zero_size_write_keeps_store_sparse(self):
        bs = BackingStore(1 << 20)
        bs.write(4096, b"")
        bs.write_array(8192, np.empty(0, dtype=np.uint64))
        assert bs.resident_bytes == 0

    def test_array_read_of_untouched_memory_is_zeros(self):
        bs = BackingStore(1 << 20)
        assert (bs.read_array(0, 32, np.uint64) == 0).all()
        assert bs.read_u64(512) == 0
        assert bs.resident_bytes == 0  # reads never materialize


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 60_000), st.binary(min_size=1, max_size=300)),
        min_size=1,
        max_size=20,
    )
)
def test_matches_reference_bytearray(writes):
    """Property: the sparse store behaves like one flat bytearray."""
    bs = BackingStore(1 << 16, chunk_bytes=1024)
    ref = bytearray(1 << 16)
    for addr, data in writes:
        if addr + len(data) > len(ref):
            continue
        bs.write(addr, data)
        ref[addr : addr + len(data)] = data
    assert bs.read(0, len(ref)) == bytes(ref)


class TestTypedWordView:
    """``read_u64``/``write_u64`` go through each chunk's ``"Q"`` view."""

    def test_read_u64_returns_plain_int(self):
        bs = BackingStore(1 << 20, chunk_bytes=4096)
        assert type(bs.read_u64(8192)) is int  # untouched chunk
        bs.write_u64(64, 5)
        assert type(bs.read_u64(64)) is int
        assert type(bs.read_u64(72)) is int  # touched chunk, unwritten word
        bs.write_u64(3, 9)  # unaligned: the byte path
        assert type(bs.read_u64(3)) is int

    def test_last_aligned_word_of_a_chunk_round_trips(self):
        bs = BackingStore(1 << 16, chunk_bytes=4096)
        bs.write_u64(4096 - 8, (1 << 64) - 1)
        bs.write_u64(4096, 0x0102030405060708)
        assert bs.read_u64(4096 - 8) == (1 << 64) - 1
        assert bs.read_u64(4096) == 0x0102030405060708
        assert bs.read(4096 - 8, 8) == b"\xff" * 8

    def test_write_u64_accepts_numpy_and_bool_values(self):
        bs = BackingStore(1 << 16)
        bs.write_u64(0, np.uint64((1 << 64) - 2))
        bs.write_u64(8, np.int64(1234))
        bs.write_u64(16, True)
        assert bs.read_u64(0) == (1 << 64) - 2
        assert bs.read_u64(8) == 1234
        assert bs.read_u64(16) == 1

    def test_write_u64_visible_through_typed_arrays(self):
        bs = BackingStore(1 << 16)
        view = bs.view_array(256, 4, np.uint64)  # zero-copy alias
        bs.write_u64(264, 0xABCDEF)
        assert int(view[1]) == 0xABCDEF
        assert bs.read_array(256, 4, np.uint64).tolist() == [0, 0xABCDEF, 0, 0]
        assert bs.read_array(264, 8, np.uint8).tolist() == list(
            (0xABCDEF).to_bytes(8, "little"))

    @pytest.mark.parametrize("addr", [64, 3], ids=["aligned", "unaligned"])
    @pytest.mark.parametrize("value", [2.0, np.float64(7.0), 2.0 ** 70])
    def test_write_u64_rejects_floats_on_every_path(self, addr, value):
        bs = BackingStore(1 << 16)
        with pytest.raises(TypeError):
            bs.write_u64(addr, value)
        assert bs.read_u64(addr) == 0

    def test_words_is_a_read_only_int_window(self):
        bs = BackingStore(1 << 16, chunk_bytes=4096)
        bs.write_array(512, np.array([3, 1 << 63, 7], dtype=np.uint64))
        words = bs.words(512, 3)
        assert list(words) == [3, 1 << 63, 7]
        assert type(words[1]) is int
        with pytest.raises(TypeError):
            words[0] = 4
        bs.write_u64(520, 9)  # aliases live storage, like view_array
        assert words[1] == 9
        assert bs.words(4096 - 16, 2) is not None  # ends on the boundary

    def test_words_declines_crossings_and_checks_range(self):
        bs = BackingStore(1 << 16, chunk_bytes=4096)
        assert bs.words(4096 - 8, 2) is None  # crosses a chunk
        assert bs.words(4, 2) is None  # not word-aligned
        assert list(bs.words(8192, 4)) == [0] * 4  # untouched chunk
        assert bs.resident_bytes == 0  # and still not materialized
        with pytest.raises(AddressError):
            bs.words((1 << 16) - 8, 2)
        with pytest.raises(AddressError):
            bs.words(0, -1)
