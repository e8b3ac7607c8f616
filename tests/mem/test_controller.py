"""Tests for the memory controller device."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DRAMConfig
from repro.errors import AddressError
from repro.ht.packet import (
    PacketType,
    make_burst_read_req,
    make_read_req,
    make_write_req,
)
from repro.mem.backing import BackingStore
from repro.mem.controller import MemoryController
from repro.sim.engine import Simulator, Store


@pytest.fixture
def setup(sim):
    backing = BackingStore(1 << 20)
    mc = MemoryController(
        sim, DRAMConfig(capacity_bytes=1 << 20), backing, base=0, name="mc"
    )
    reply = Store(sim)
    return backing, mc, reply


def _send(mc, reply, pkt):
    pkt.meta["reply_to"] = reply
    mc.deliver(pkt)


def test_read_returns_backing_data(sim, setup):
    backing, mc, reply = setup
    backing.write(0x100, b"\xAA" * 16)
    _send(mc, reply, make_read_req(1, 1, 0x100, 16, tag=1))
    sim.run()
    resp = reply.try_get()
    assert resp.ptype is PacketType.READ_RESP
    assert resp.payload == b"\xAA" * 16
    assert mc.reads.value == 1


def test_write_lands_in_backing(sim, setup):
    backing, mc, reply = setup
    _send(mc, reply, make_write_req(1, 1, 0x200, b"hello", tag=2))
    sim.run()
    resp = reply.try_get()
    assert resp.ptype is PacketType.WRITE_ACK
    assert backing.read(0x200, 5) == b"hello"


def test_timing_only_write_moves_no_data(sim, setup):
    backing, mc, reply = setup
    backing.write(0x300, b"precious")
    pkt = make_write_req(1, 1, 0x300, bytes(8), tag=3)
    pkt.meta["timing_only"] = True
    _send(mc, reply, pkt)
    sim.run()
    assert reply.try_get().ptype is PacketType.WRITE_ACK
    assert backing.read(0x300, 8) == b"precious"
    assert mc.writes.value == 1  # timing was still charged


def test_service_takes_dram_time(sim, setup):
    _, mc, reply = setup
    _send(mc, reply, make_read_req(1, 1, 0, 8, tag=1))
    sim.run()
    cfg = mc.config
    assert sim.now >= cfg.controller_ns + cfg.row_hit_ns


def test_out_of_slice_address_rejected(sim, setup):
    _, mc, reply = setup
    _send(mc, reply, make_read_req(1, 1, 1 << 21, 8, tag=1))
    with pytest.raises(AddressError):
        sim.run()


def test_slice_must_fit_backing(sim):
    backing = BackingStore(1 << 20)
    with pytest.raises(AddressError):
        MemoryController(sim, DRAMConfig(capacity_bytes=1 << 21), backing, 0)


def test_bank_parallelism_overlaps_requests(sim):
    """Requests to different banks overlap; same-bank requests serialize."""

    def run(addresses):
        s = type(sim)() if False else None  # keep flake quiet
        from repro.sim.engine import Simulator

        local = Simulator()
        backing = BackingStore(1 << 20)
        mc = MemoryController(
            local,
            DRAMConfig(capacity_bytes=1 << 20, row_bytes=8192, banks=8),
            backing,
            0,
        )
        reply = Store(local)
        for i, addr in enumerate(addresses):
            pkt = make_read_req(1, 1, addr, 8, tag=i + 1)
            pkt.meta["reply_to"] = reply
            mc.deliver(pkt)
        local.run()
        return local.now

    different_banks = run([0, 8192, 16384, 24576])
    same_bank_rows = run([0, 65536, 131072, 196608])  # bank 0, new rows
    assert different_banks < same_bank_rows


def test_owns_predicate(sim):
    backing = BackingStore(1 << 22)
    mc = MemoryController(
        sim, DRAMConfig(capacity_bytes=1 << 20), backing, base=1 << 20
    )
    assert not mc.owns(0)
    assert mc.owns(1 << 20)
    assert mc.owns((1 << 21) - 1)
    assert not mc.owns(1 << 21)


# ---------------------------------------------------------------------------
# Bursts: the per-row-chunk walk against a per-line reference walk
# ---------------------------------------------------------------------------

LINE = 64
#: whole-ns timing (the default DDR2 numbers) and a fractional-ns one,
#: whose per-line terms only sum to the same float in the same order
WHOLE_NS = DRAMConfig(capacity_bytes=1 << 22)
FRACTIONAL_NS = DRAMConfig(
    capacity_bytes=1 << 22,
    banks=4,
    row_bytes=2048,
    row_hit_ns=12.7,
    row_miss_ns=40.1,
    controller_ns=7.3,
)
#: (granularity, index, controllers) of the interleaved arm
INTERLEAVE = (1 << 16, 1, 2)


def _controller(cfg, interleaved):
    sim = Simulator()
    if interleaved:
        backing = BackingStore(cfg.capacity_bytes * INTERLEAVE[2])
        mc = MemoryController(sim, cfg, backing, 0, interleave=INTERLEAVE)
    else:
        backing = BackingStore(2 * cfg.capacity_bytes)
        mc = MemoryController(sim, cfg, backing, base=cfg.capacity_bytes)
    return sim, mc


def _local_offsets(mc, addr, count):
    """Each line's controller-local offset, computed independently of
    the controller's own mapping."""
    addrs = [addr + k * LINE for k in range(count)]
    if mc.interleave is None:
        return [a - mc.base for a in addrs]
    granularity, _, n = mc.interleave
    return [(a // (granularity * n)) * granularity + a % granularity
            for a in addrs]


def _reference_walk(cfg, open_rows, offsets):
    """The per-line walk: one row-buffer transition per line, and the
    per-line ``controller_ns + access`` terms summed left to right."""
    rows = list(open_rows)
    hits = misses = 0
    terms = []
    for off in offsets:
        bank = (off // cfg.row_bytes) % cfg.banks
        row = off // (cfg.row_bytes * cfg.banks)
        if rows[bank] == row:
            hits += 1
            terms.append(cfg.controller_ns + cfg.row_hit_ns)
        else:
            rows[bank] = row
            misses += 1
            terms.append(cfg.controller_ns + cfg.row_miss_ns)
    return sum(terms), hits, misses, rows


def _random_burst(rng, mc):
    """A burst of 1-512 lines inside one owned slice or stripe."""
    count = int(rng.integers(1, 513))
    if mc.interleave is None:
        lines = mc.config.capacity_bytes // LINE
        first = int(rng.integers(0, lines - count + 1))
        return mc.base + first * LINE, count
    granularity, idx, n = mc.interleave
    per_stripe = granularity // LINE
    count = min(count, per_stripe)
    stripes = mc.config.capacity_bytes // granularity
    stripe = int(rng.integers(0, stripes)) * n + idx
    first = int(rng.integers(0, per_stripe - count + 1))
    return stripe * granularity + first * LINE, count


def _serve(sim, mc, addr, count):
    reply = Store(sim)
    pkt = make_burst_read_req(1, 1, addr, LINE, count, tag=1)
    pkt.meta["reply_to"] = reply
    mc.deliver(pkt)
    sim.run()
    assert reply.try_get().ptype is PacketType.READ_RESP


@pytest.mark.parametrize("interleaved", [False, True],
                         ids=["contiguous", "interleaved"])
@pytest.mark.parametrize("cfg", [WHOLE_NS, FRACTIONAL_NS],
                         ids=["whole_ns", "fractional_ns"])
def test_burst_matches_per_line_walk(cfg, interleaved):
    rng = np.random.default_rng(11 + 2 * interleaved)
    for _ in range(40):
        sim, mc = _controller(cfg, interleaved)
        addr, count = _random_burst(rng, mc)
        offsets = _local_offsets(mc, addr, count)
        # random open rows: some the burst touches, some elsewhere,
        # some banks precharged
        touched = [off // (cfg.row_bytes * cfg.banks) for off in offsets]
        mc.timing._open_rows = [
            int(rng.choice([-1, int(rng.choice(touched)),
                            int(rng.integers(0, 64))]))
            for _ in range(cfg.banks)
        ]
        service, hits, misses, rows = _reference_walk(
            cfg, mc.timing._open_rows, offsets
        )
        _serve(sim, mc, addr, count)
        # the clock started at 0, so it now reads the service time
        assert sim.now == service
        assert mc.timing.row_hits.value == hits
        assert mc.timing.row_misses.value == misses
        assert mc.timing._open_rows == rows
        assert mc.reads.value == count


def test_interleaved_burst_may_not_leave_its_stripe():
    """A burst whose first and last lines are owned, but which passes
    through another controller's stripe, is rejected."""
    sim, mc = _controller(WHOLE_NS, interleaved=True)
    granularity, idx, n = INTERLEAVE
    # from the last line of an owned stripe to the next owned stripe
    addr = (idx + 1) * granularity - LINE
    count = (n * granularity) // LINE + 1
    assert mc.owns(addr) and mc.owns(addr + (count - 1) * LINE)
    with pytest.raises(AddressError, match="crosses ownership boundary"):
        _serve(sim, mc, addr, count)


@pytest.mark.parametrize("skew, rows", [(0, 16), (1, 17)],
                         ids=["row_aligned", "one_line_off"])
def test_long_burst_walks_once_per_row(skew, rows):
    """A 2,048-line (128 KiB) burst costs one ``access_ns`` call per
    8 KiB row it touches, not one per line."""
    sim, mc = _controller(WHOLE_NS, interleaved=False)
    calls = []
    access_ns = mc.timing.access_ns
    mc.timing.access_ns = lambda off: calls.append(off) or access_ns(off)
    # *skew* lines past a row boundary
    addr = mc.base + 4 * WHOLE_NS.row_bytes + skew * LINE
    _serve(sim, mc, addr, 2048)
    assert len(calls) == rows
    assert mc.timing.row_misses.value == rows
    assert mc.timing.row_hits.value == 2048 - rows
    assert sim.now == 2048 * WHOLE_NS.controller_ns + (
        rows * WHOLE_NS.row_miss_ns + (2048 - rows) * WHOLE_NS.row_hit_ns
    )
