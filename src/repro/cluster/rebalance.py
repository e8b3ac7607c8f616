"""Automatic region recovery after a confirmed donor death.

The paper is explicit that remote memory adds no fault tolerance
(Section V); PR 4 therefore made donor death *survivable* — leases
revoked, segments dropped, pages poisoned so touches raise. This
module closes the loop and makes it *recoverable*:

1. **re-reserve** — replacement capacity is borrowed from healthy
   donors through the ordinary Fig. 4 reservation exchange (the
   region-growth mechanics of ``examples/region_rebalance.py``,
   promoted into the library), nearest donors first;
2. **re-materialize** — each lost page is rebuilt on the new donor
   from its recoverable source: the tenant's last checkpoint (the
   stand-in for the owner's backing store / swap tier), or zeros when
   no checkpoint exists. Lines the tenant dirtied *after* the source
   copy are **dirty-and-lost**: they are recorded per line in the
   region damage map instead of condemning the whole region;
3. **PTE rewrite** — the virtual pages are repointed at the new
   frames, so tenant accesses resume transparently; only a touch of a
   dirty-and-lost line raises, and precisely.

Every restore write is a *timed* event issued through a real core, so
recovery traffic competes with foreground traffic on the fabric — MTTR
is measured, not asserted.

Only this module (and :mod:`repro.cluster.health`, which drives it)
may initiate recovery actions; simcheck rule SIM008 enforces the
layering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import (
    RecoveryError,
    RemoteAccessError,
    ReservationError,
    TopologyError,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.cluster.health import HealthMonitor

__all__ = ["RecoveryReport", "re_reserve", "heal_sessions"]


@dataclass(frozen=True)
class RecoveryReport:
    """What one donor-death recovery pass accomplished."""

    donor: int
    #: sim time the death was confirmed (recovery started)
    detected_ns: float
    #: sim time the last affected page was healed
    healed_ns: float
    #: sessions that had allocations on the dead donor
    sessions: int
    #: allocations rebound to healthy donors
    allocations: int
    #: allocations left poisoned (no healthy capacity, or the
    #: replacement donor failed mid-restore)
    unhealed: int
    #: pages re-materialized
    pages: int
    #: dirty-and-lost lines recorded in damage maps
    lost_lines: int
    #: donors that supplied replacement capacity
    new_donors: tuple[int, ...]

    @property
    def mttr_ns(self) -> float:
        """Time-to-repair for this event: detection to last heal."""
        return self.healed_ns - self.detected_ns


def _route_is_clear(cluster: "Cluster", src: int, dst: int) -> bool:
    """True when the current route src→dst avoids known-bad hardware.

    Recovery runs *because* something died, so the fabric may be
    partitioned: a reservation CTRL packet routed through a dead node's
    switch is silently black-holed and the exchange would only end via
    the timeout. Pre-filtering candidates behind known-dead hops keeps
    MTTR from paying one full timeout per unreachable donor. Unknown
    failures (drop rules, racing flaps) still get through — the timed
    exchange in :func:`re_reserve` is the safety net for those.
    """
    if cluster.faults is None:
        return True
    try:
        path = cluster.network.routing.path(src, dst)
    except TopologyError:
        return False
    dead = cluster.faults.dead_nodes
    down = cluster.faults.down_links
    for a, b in zip(path, path[1:]):
        if (b != dst and b in dead) or (a, b) in down:
            return False
    return True


def re_reserve(
    cluster: "Cluster",
    borrower: int,
    size: int,
    exclude: frozenset = frozenset(),
    *,
    timeout_ns: float,
) -> Generator:
    """Borrow *size* replacement bytes from the nearest healthy donor.

    A simulation process (``res = yield from re_reserve(...)``). Tries
    healthy candidates in (hop distance, node id) order so replacement
    memory lands as close as capacity allows. Each reservation is one
    exchange bounded by *timeout_ns*: a donor that does not answer
    (partition, dropped CTRL packet) counts as a decline and the next
    candidate is tried, so recovery never hangs on an unreachable
    donor; a grant that arrives late is released again by the OS.
    Raises :class:`~repro.errors.RecoveryError` when nobody can serve
    the request — the caller leaves the affected pages poisoned (PR-4
    fail-fast degradation) rather than losing the error.
    """
    candidates = sorted(
        (
            n
            for n in cluster.nodes
            if n != borrower
            and not cluster.killed(n)
            and n not in exclude
            and cluster.nodes[n].os.donated_free_bytes >= size
        ),
        key=lambda n: (cluster.hops(borrower, n), n),
    )
    last_error: Optional[Exception] = None
    for donor in candidates:
        if not _route_is_clear(cluster, borrower, donor):
            last_error = RecoveryError(
                f"no usable route from {borrower} to candidate {donor}",
                node=donor,
                region=borrower,
            )
            continue
        try:
            return (
                yield from cluster.borrow_process(
                    borrower, donor, size, timeout_ns
                )
            )
        except (ReservationError, RemoteAccessError) as exc:
            # declined (fragmented pool, raced another borrower, no
            # answer in time, died mid-exchange) — try the next
            # candidate, keep the reason
            last_error = exc
    raise RecoveryError(
        f"no healthy donor can supply {size:#x} replacement bytes for "
        f"node {borrower}"
        + (f" (last donor said: {last_error})" if last_error else ""),
        region=borrower,
    )


def heal_sessions(
    monitor: "HealthMonitor", donor: int, epoch: int, detected_ns: float
) -> Generator:
    """Recover every session's allocations lost to *donor*'s death.

    A simulation process spawned by *monitor* when it declares
    incarnation *epoch* of *donor* dead. For each stranded allocation:
    re-reserve capacity (each exchange bounded by the monitor's
    ``reserve_timeout_ns``), rebind it onto a fresh arena, re-materialize
    each page from its recoverable source with timed writes, and rewrite
    the PTEs; lost lines blame ``(donor, epoch)``. Returns a
    :class:`RecoveryReport`, also appended to ``monitor.recoveries``.
    """
    cluster = monitor.cluster
    sessions = allocations = unhealed = pages_healed = lost_total = 0
    new_donors: set[int] = set()
    for sess in cluster._sessions:
        lost = sess.allocator.lost_allocations(donor)
        if not lost:
            continue
        sessions += 1
        page = sess.aspace.page_bytes
        for alloc in lost:
            num_pages = -(-alloc.size // page)
            try:
                reservation = yield from re_reserve(
                    cluster,
                    sess.node_id,
                    num_pages * page,
                    exclude=frozenset((donor,)),
                    timeout_ns=monitor.cfg.reserve_timeout_ns,
                )
            except RecoveryError as exc:
                # pages stay poisoned: fail-fast degradation, recorded
                unhealed += 1
                monitor.events.append(
                    (cluster.sim.now, "unrecoverable", str(exc))
                )
                continue
            try:
                healed, lines = yield from _heal_allocation(
                    cluster, sess, alloc, donor, epoch, reservation
                )
            except RemoteAccessError as exc:
                # the replacement donor failed mid-restore: pages not
                # yet repointed stay poisoned; a later death
                # confirmation of the new donor re-heals the rest
                unhealed += 1
                monitor.events.append(
                    (cluster.sim.now, "restore_interrupted", str(exc))
                )
                continue
            pages_healed += healed
            lost_total += lines
            allocations += 1
            new_donors.add(reservation.donor_node)
    report = RecoveryReport(
        donor=donor,
        detected_ns=detected_ns,
        healed_ns=cluster.sim.now,
        sessions=sessions,
        allocations=allocations,
        unhealed=unhealed,
        pages=pages_healed,
        lost_lines=lost_total,
        new_donors=tuple(sorted(new_donors)),
    )
    monitor.recoveries.append(report)
    monitor.events.append(
        (
            cluster.sim.now,
            "recovered",
            f"donor {donor}: {allocations} allocations, "
            f"{pages_healed} pages, {lost_total} lost lines, "
            f"ttr {report.mttr_ns:.0f} ns",
        )
    )
    return report


def _heal_allocation(
    cluster: "Cluster", sess, alloc, donor: int, epoch: int, reservation
) -> Generator:
    """Rebind one allocation and re-materialize its pages.

    Returns ``(pages_healed, lost_lines)``. Raises
    :class:`~repro.errors.RemoteAccessError` if the replacement donor
    fails mid-restore (the caller records and degrades).
    """
    line = cluster.config.node.cache.line_bytes
    page = sess.aspace.page_bytes
    core = sess.node.cores[0]
    num_pages = -(-alloc.size // page)
    arena_idx = sess.allocator.add_reservation(reservation)
    new_phys = sess.allocator.rebind_allocation(alloc.vaddr, arena_idx)
    shadow = sess.shadow_of(alloc.vaddr)
    lost_total = 0
    for i in range(num_pages):
        pv = alloc.vaddr + i * page
        old_page = alloc.phys_start + i * page  # on the dead donor
        new_page = new_phys + i * page
        # ground truth survives functionally (the dead node's backing
        # store object persists); the *simulated* data is unreachable,
        # which is exactly why only lines that diverge from the
        # recoverable source count as dirty-and-lost
        truth = cluster.fn_read(old_page, page)
        source = shadow.get(pv) if shadow is not None else None
        if source is None:
            source = bytes(page)
        lost_lines = tuple(
            pv + off
            for off in range(0, page, line)
            if truth[off : off + line] != source[off : off + line]
        )
        # the restore always writes — the new frames may hold stale
        # data from a previous tenant — and is timed, so recovery
        # competes with foreground traffic on the fabric
        yield from core.write(new_page, source)
        sess.aspace.repoint_page(
            pv,
            new_page,
            lost_lines=lost_lines,
            donor=donor,
            epoch=epoch,
            line_bytes=line,
        )
        for lv in lost_lines:
            cluster.regions.record_damage(
                sess.node_id, old_page + (lv - pv), donor
            )
        lost_total += len(lost_lines)
    return num_pages, lost_total
