#!/usr/bin/env python
"""Chaos soak: seeded random fault schedules against live workloads.

Long seeded runs on a 6-node ring. Each seed builds a
:func:`repro.sim.faults.random_plan` (one node kill, a link flap,
packet drop/corrupt rules) and runs it against a live workload: a
borrower holding leases on every killable donor plus one protected
stable donor, writing and reading throughout, with the self-healing
layer armed (heartbeats, finite leases, automatic recovery). A
protected survivor session on the stable donor runs its own workload
the whole time.

After every run the soak asserts the recovery invariants:

* the sim completes (with ``REPRO_SANITIZE=1`` this also proves every
  PR-3 engine/packet sanitizer held for the whole schedule);
* no lost-ack leaks: every OS ack table and RMC outstanding table
  drains empty;
* every recoverable region healed: zero unhealed allocations and zero
  poisoned pages survive (the stable donor is always a reachable
  candidate on this topology);
* damage maps are exact: the recorded dirty-and-lost lines equal the
  lines whose ground truth (the dead donor's functionally-persistent
  backing store) diverges from the checkpoint, and they bracket the
  workload's own write journal;
* recovered memory reads back: clean lines return checkpoint data,
  dirty-and-lost lines raise :class:`~repro.errors.RemoteAccessError`
  naming the dead donor, lines rewritten after recovery return the new
  data;
* survivors are bit-identical to an undisturbed twin: the protected
  session's final memory equals a fault-free run of the same workload;
* replay is bit-identical: running the same seed twice produces the
  same fault log, health events, recovery reports, and final memory,
  byte for byte.

Exactness is asserted in *strict* mode when the run produced exactly
one recovery (the planned kill). Schedules whose flaps partition the
ring can add false-positive declarations — realistic split-brain — and
those runs downgrade the damage-map equality to journal-bracketing
(``relaxed``); every other invariant still applies.

Usage::

    REPRO_SANITIZE=1 PYTHONPATH=src python benchmarks/chaos_soak.py [--quick]

The default runs 25 seeds (the pre-merge gate); ``--quick`` runs 5.
Exits 0 when every seed passes, 1 otherwise. MTTR statistics are
reported per seed and in aggregate.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field
from typing import Generator

from repro.cluster.cluster import Cluster
from repro.cluster.malloc import Placement
from repro.config import (
    ClusterConfig,
    HealthConfig,
    NetworkConfig,
    RMCConfig,
)
from repro.cluster.reservation import LeaseState
from repro.errors import RemoteAccessError
from repro.sim.faults import FaultPlan, random_plan
from repro.sim.rng import stream

BORROWER = 1
STABLE_DONOR = 6
VICTIM_DONORS = (2, 3, 4, 5)
NUM_NODES = 6
HORIZON_NS = 600_000.0
SOAK_SEEDS = 25
QUICK_SEEDS = 5

#: Finite leases with a grace budget of four renewal retries: a link
#: flap can shadow a renewal exchange for its whole span (30-120 us
#: under random_plan), and a lease that expires while its donor is
#: alive is unrecoverable by design — the grace window is what keeps
#: flaps from being promoted into data loss.
HEALTH = HealthConfig(
    lease_ttl_ns=150_000.0,
    renew_margin_ns=50_000.0,
    lease_grace_ns=120_000.0,
)

#: The partition tier: pure split/heal/flap schedules (no kills) with
#: corroborated detection, isolation, epoch fencing, and rejoin healing
#: armed. Cuts are long enough that minority-side leases expire and
#: donors reclaim mid-cut — the worst case for stale borrowers.
P_HEALTH = HealthConfig(
    lease_ttl_ns=150_000.0,
    renew_margin_ns=50_000.0,
    lease_grace_ns=120_000.0,
    indirect_probes=2,
    quorum_fraction=0.5,
    epoch_fencing=True,
)
P_PLAN_NS = 600_000.0       # window the random splits are drawn from
P_HORIZON_NS = 1_200_000.0  # run long past the last heal so rejoin settles
P_SEEDS = 10

#: A chaotic fabric is a lossy fabric: without the request watchdog a
#: single dropped or corrupted packet parks its issuing process (and
#: its scarce RMC demand slot) forever, which cascades into wedged
#: control planes and false death declarations. Arming the bounded
#: retry is part of the failure model under test, not a workaround.
RMC = RMCConfig(request_timeout_ns=20_000.0, max_retries=3)


def _fill(seed: int, key: str, size: int) -> bytes:
    """Deterministic setup pattern for one allocation."""
    h = hashlib.sha256(f"fill:{seed}:{key}".encode()).digest()
    return (h * (size // len(h) + 1))[:size]


def _payload(seed: int, step: int, size: int) -> bytes:
    """Deterministic per-step write payload."""
    h = hashlib.sha256(f"op:{seed}:{step}".encode()).digest()
    return (h * (size // len(h) + 1))[:size]


@dataclass
class Journal:
    """What one session's workload observed, for the exactness checks."""

    #: (ack time, line vaddr, bytes) per successful write
    acked: list = field(default_factory=list)
    #: (attempt time, line vaddr, bytes) per failed write
    failed: list = field(default_factory=list)
    reads_ok: int = 0
    reads_failed: int = 0


@dataclass
class RunState:
    """Everything one simulated run leaves behind for checking."""

    cluster: Cluster
    s1: object
    s6: object
    #: donor -> the borrower allocation placed on it
    allocs: dict
    #: donor -> (setup pattern == checkpoint contents)
    base: dict
    #: donor -> prefixed physical start before any recovery
    old_phys: dict
    s1_journal: Journal
    s6_journal: Journal
    #: final functional contents of the survivor session's allocations
    s6_final: dict
    procs: list
    plan: object


def _build_and_run(
    seed: int, chaos: bool, partitions: bool = False
) -> RunState:
    cfg = ClusterConfig(
        network=NetworkConfig(topology="ring", dims=(NUM_NODES, 1)),
        rmc=RMC,
    )
    cluster = Cluster(cfg)
    sim = cluster.sim
    page = 4096
    line = cfg.node.cache.line_bytes

    s1 = cluster.session(BORROWER)
    s6 = cluster.session(STABLE_DONOR)

    # one single-page allocation per donor; each borrow is sized to the
    # allocation so the arena fills and the next malloc moves on
    allocs: dict[int, int] = {}
    base: dict[int, bytes] = {}
    old_phys: dict[int, int] = {}
    for donor in (*VICTIM_DONORS, STABLE_DONOR):
        s1.borrow_remote(donor, page)
        v = s1.malloc(page, Placement.REMOTE)
        allocs[donor] = v
        pattern = _fill(seed, f"d{donor}", page)
        s1.bulk_write(v, pattern)
        s1.checkpoint(v)
        base[donor] = pattern
        old_phys[donor] = s1.allocator.allocation_at(v).phys_start

    s6.borrow_remote(BORROWER, page)
    s6_remote = s6.malloc(page, Placement.REMOTE)
    s6_local = s6.malloc(page, Placement.LOCAL)
    s6.bulk_write(s6_remote, _fill(seed, "s6r", page))
    s6.bulk_write(s6_local, _fill(seed, "s6l", page))

    edges = sorted(
        {(min(a, b), max(a, b)) for a, b in cluster.network.links}
    )
    if chaos and partitions:
        cluster.arm_health(P_HEALTH)
        plan = random_plan(
            seed,
            nodes=list(cluster.nodes),
            edges=edges,
            duration_ns=P_PLAN_NS,
            kills=0, flaps=0, drops=0, corrupts=0,
            partitions=2,
            protect=(),
        )
        cluster.arm_faults(plan)
    elif chaos:
        cluster.arm_health(HEALTH)
        plan = random_plan(
            seed,
            nodes=list(cluster.nodes),
            edges=edges,
            duration_ns=HORIZON_NS,
            protect=(BORROWER, STABLE_DONOR),
        )
        cluster.arm_faults(plan)
    else:
        plan = None

    s1_journal = Journal()
    s6_journal = Journal()
    lines_per_page = page // line

    def writer(
        sess, targets, journal: Journal, key: str, salt: int, steps: int,
        pace: float
    ) -> Generator:
        rng = stream(seed, "workload", key)
        for step in range(steps):
            yield sim.timeout(pace)
            v = targets[step % len(targets)]
            off = int(rng.integers(lines_per_page)) * line
            data = _payload(seed, step * 7919 + salt, line)
            try:
                yield from sess.g_write(v + off, data, cached=False)
            except RemoteAccessError:
                journal.failed.append((sim.now, v + off, data))
                continue
            journal.acked.append((sim.now, v + off, data))

    def reader(sess, targets, journal: Journal, key: str, steps: int,
               pace: float) -> Generator:
        rng = stream(seed, "workload", key)
        for step in range(steps):
            yield sim.timeout(pace)
            v = targets[int(rng.integers(len(targets)))]
            off = int(rng.integers(lines_per_page)) * line
            try:
                yield from sess.g_read(v + off, line, cached=False)
            except RemoteAccessError:
                journal.reads_failed += 1
                continue
            journal.reads_ok += 1

    s1_targets = [allocs[d] for d in (*VICTIM_DONORS, STABLE_DONOR)]
    procs = [
        sim.process(
            writer(s1, s1_targets, s1_journal, "s1w", 0, 200, 1_500.0),
            name="soak.s1w",
        ),
        sim.process(
            reader(s1, s1_targets, s1_journal, "s1r", 120, 2_700.0),
            name="soak.s1r",
        ),
        sim.process(
            writer(s6, [s6_remote, s6_local], s6_journal, "s6w", 43, 150,
                   2_100.0),
            name="soak.s6w",
        ),
    ]

    sim.run(until=P_HORIZON_NS if partitions else HORIZON_NS)
    if cluster.health is not None:
        cluster.health.stop()
    sim.run()

    s6_final = {}
    for v in (s6_remote, s6_local):
        pte = s6.aspace.page_table.lookup(v // page)
        s6_final[v - s6_remote] = cluster.fn_read(
            s6.node.cores[0]._prefixed(pte.phys_page), page
        )

    return RunState(
        cluster=cluster,
        s1=s1,
        s6=s6,
        allocs=allocs,
        base=base,
        old_phys=old_phys,
        s1_journal=s1_journal,
        s6_journal=s6_journal,
        s6_final=s6_final,
        procs=procs,
        plan=plan,
    )


def _digest(state: RunState) -> str:
    """Replay fingerprint: fault log, health record, final memory."""
    cluster = state.cluster
    health = cluster.health
    page = 4096
    mem = []
    for donor in sorted(state.allocs):
        v = state.allocs[donor]
        pte = state.s1.aspace.page_table.lookup(v // page)
        mem.append(
            (
                donor,
                pte.poisoned,
                pte.damaged,
                cluster.fn_read(
                    state.s1.node.cores[0]._prefixed(pte.phys_page), page
                ),
            )
        )
    parts = [
        repr(cluster.faults.log if cluster.faults else []),
        repr(health.events if health else []),
        repr(
            [
                (r.donor, r.detected_ns, r.healed_ns, r.allocations,
                 r.unhealed, r.pages, r.lost_lines, r.new_donors)
                for r in (health.recoveries if health else [])
            ]
        ),
        repr(state.s1.aspace.lost_lines()),
        repr(sorted(state.cluster.regions.damage_map(BORROWER).items())),
        repr(
            [
                (n, node.os.lease_reclaims)
                for n, node in sorted(cluster.nodes.items())
            ]
        ),
        repr(mem),
        repr(sorted(state.s6_final.items())),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _last_write(journal_entries, addr, lo=None, hi=None):
    """Latest journaled write to *addr* within the (lo, hi] window."""
    best = None
    for t, a, data in journal_entries:
        if a != addr:
            continue
        if lo is not None and t <= lo:
            continue
        if hi is not None and t > hi:
            continue
        if best is None or t >= best[0]:
            best = (t, data)
    return best


def _check(state: RunState, twin: RunState) -> list[str]:
    """All recovery invariants for one chaos run; returns failures."""
    failures: list[str] = []
    cluster = state.cluster
    health = cluster.health
    page = 4096

    for proc in state.procs + twin.procs:
        if not proc.ok:
            failures.append(f"workload process {proc.name!r} died")

    try:
        cluster.regions.check_invariants()
    except Exception as exc:
        failures.append(f"region invariants: {exc}")

    for n, node in sorted(cluster.nodes.items()):
        if node.os._pending_acks:
            failures.append(
                f"node {n}: {len(node.os._pending_acks)} leaked acks"
            )
        if node.rmc.outstanding:
            failures.append(
                f"node {n}: {len(node.rmc.outstanding)} stuck requests"
            )

    planned = sorted(
        args[0]
        for _at, _seq, kind, args in state.plan.timeline
        if kind == "kill_node"
    )
    if sorted(cluster.faults.dead_nodes) != planned:
        failures.append(
            f"dead nodes {sorted(cluster.faults.dead_nodes)} != planned "
            f"{planned}"
        )
    victim = planned[0]
    if not cluster.membership.is_dead(victim):
        failures.append(f"planned victim {victim} never declared dead")

    reports = {r.donor: r for r in health.recoveries}
    if victim not in reports:
        failures.append(f"no recovery report for victim {victim}")
        return failures

    # every recoverable region healed: the protected stable donor is
    # always a reachable candidate with capacity on this ring. A page
    # may stay poisoned only when its loss is *unrecoverable by
    # design*: a recovery ran out of donors (unhealed > 0).
    unhealed = sum(r.unhealed for r in health.recoveries)
    if unhealed:
        failures.append(f"{unhealed} allocations left unhealed")
    unhealed_donors = {r.donor for r in health.recoveries if r.unhealed}
    for donor, v in sorted(state.allocs.items()):
        pte = state.s1.aspace.page_table.lookup(v // page)
        if not pte.poisoned:
            continue
        alloc = state.s1.allocator.allocation_at(v)
        holder = alloc.reservation.donor_node
        if holder not in unhealed_donors:
            failures.append(
                f"alloc on donor {donor}: page poisoned with no "
                f"unrecoverable loss on its holder node {holder}"
            )

    strict = len(health.recoveries) == 1
    # frame reuse (a reclaimed lease re-granted to recovery) would let
    # new writes land on old frames and invalidate the ground truth —
    # downgrade to the journal bracket if any ranges collide
    if strict:
        old = state.old_phys[victim]
        for donor, v in sorted(state.allocs.items()):
            cur = state.s1.allocator.allocation_at(v).phys_start
            if donor != victim and not (
                cur + page <= old or old + page <= cur
            ):
                strict = False

    for donor in sorted(reports):
        if donor not in state.allocs:
            continue
        failures.extend(
            _check_recovered_alloc(state, donor, reports[donor], strict)
        )

    # survivor equals the undisturbed twin, byte for byte
    if state.s6_journal.failed or twin.s6_journal.failed:
        failures.append("survivor workload saw failures")
    if state.s6_final != twin.s6_final:
        failures.append("survivor memory differs from the undisturbed twin")

    return failures


def _check_recovered_alloc(
    state: RunState, donor: int, report, strict: bool
) -> list[str]:
    """Damage-map exactness + read-back checks for one healed alloc."""
    failures: list[str] = []
    cluster = state.cluster
    page = 4096
    line = cluster.config.node.cache.line_bytes
    v = state.allocs[donor]
    base = state.base[donor]
    old = state.old_phys[donor]

    if strict:
        # ground truth: the dead donor's backing store persists
        # functionally even though the simulated fabric cannot reach it
        truth = cluster.fn_read(old, page)
        true_lost = {
            v + off
            for off in range(0, page, line)
            if truth[off : off + line] != base[off : off + line]
        }
        damage = {
            pl: blame
            for pl, blame in cluster.regions.damage_map(BORROWER).items()
            if old <= pl < old + page
        }
        recorded_lines = {v + (pl - old) for pl in damage}
        if recorded_lines != true_lost:
            failures.append(
                f"donor {donor}: damage map {sorted(recorded_lines)} != "
                f"ground truth {sorted(true_lost)}"
            )
        for pl, (blamed, epoch) in sorted(damage.items()):
            if not cluster.membership.declared(blamed, epoch):
                failures.append(
                    f"donor {donor}: damage at {pl:#x} blames live "
                    f"incarnation ({blamed}, {epoch})"
                )
        # the journal brackets the truth: every acked pre-kill write
        # landed; failed attempts may or may not have
        kill_ns = min(
            at for at, _s, kind, args in state.plan.timeline
            if kind == "kill_node"
        )
        required = set()
        for off in range(0, page, line):
            addr = v + off
            w = _last_write(state.s1_journal.acked, addr, hi=kill_ns)
            if w is not None and w[1] != base[off : off + line]:
                required.add(addr)
        ambiguous = {a for _t, a, _d in state.s1_journal.failed}
        if not required <= true_lost:
            failures.append(
                f"donor {donor}: acked dirty lines "
                f"{sorted(required - true_lost)} missing from ground truth"
            )
        if not true_lost <= required | ambiguous:
            failures.append(
                f"donor {donor}: ground-truth lost lines "
                f"{sorted(true_lost - required - ambiguous)} that the "
                "workload never wrote"
            )
    else:
        true_lost = {
            lv
            for lv, _d in state.s1.aspace.lost_lines()
            if v <= lv < v + page
        }

    # read-back: lost lines raise precisely, the rest return the
    # checkpoint data or the post-recovery rewrite
    still_lost = {
        lv for lv, _d in state.s1.aspace.lost_lines() if v <= lv < v + page
    }
    for off in range(0, page, line):
        addr = v + off
        post = _last_write(
            state.s1_journal.acked, addr, lo=report.detected_ns
        )
        try:
            got = state.s1.read(addr, line, cached=False)
        except RemoteAccessError as exc:
            if addr not in still_lost:
                failures.append(
                    f"donor {donor}: clean line {addr:#x} raised: {exc}"
                )
            elif strict and exc.node != donor:
                # chained recoveries (relaxed mode) legitimately blame
                # the donor that held the line's only copy *last*
                failures.append(
                    f"donor {donor}: lost line {addr:#x} blamed node "
                    f"{exc.node}"
                )
            elif not cluster.membership.declared(exc.node, exc.epoch):
                failures.append(
                    f"donor {donor}: lost line {addr:#x} blamed live node "
                    f"{exc.node}"
                )
            continue
        if addr in still_lost:
            failures.append(
                f"donor {donor}: lost line {addr:#x} read without raising"
            )
            continue
        want = post[1] if post is not None else base[off : off + line]
        if got != want and strict:
            failures.append(
                f"donor {donor}: line {addr:#x} read {got[:8].hex()}… "
                f"want {want[:8].hex()}…"
            )
    if strict:
        # a line still lost must never have been rewritten since, and
        # vice versa: post-recovery full-line writes heal
        for off in range(0, page, line):
            addr = v + off
            healed_by_write = (
                _last_write(
                    state.s1_journal.acked, addr, lo=report.detected_ns
                )
                is not None
            )
            expect_lost = addr in true_lost and not healed_by_write
            if (addr in still_lost) != expect_lost:
                failures.append(
                    f"donor {donor}: line {addr:#x} lost-state "
                    f"{addr in still_lost} != expected {expect_lost}"
                )
    return failures


def _check_partition(state: RunState) -> list[str]:
    """Partition-tier invariants: every split heals with nothing left.

    No kill is planned, so at the end of the run *every* declaration
    must have been retracted, every isolation exited, every link back
    up — and the lease/grant tables must agree across epochs: an
    ACTIVE lease matches the donor's current grant (same epoch, same
    borrower) and no range has two tenants (the SWMR invariant).
    """
    failures: list[str] = []
    cluster = state.cluster
    health = cluster.health

    for proc in state.procs:
        if not proc.ok:
            failures.append(f"workload process {proc.name!r} died")
    try:
        cluster.regions.check_invariants()
    except Exception as exc:
        failures.append(f"region invariants: {exc}")
    for n, node in sorted(cluster.nodes.items()):
        if node.os._pending_acks:
            failures.append(
                f"node {n}: {len(node.os._pending_acks)} leaked acks"
            )
        if node.rmc.outstanding:
            failures.append(
                f"node {n}: {len(node.rmc.outstanding)} stuck requests"
            )
    if cluster.faults.dead_nodes:
        failures.append(
            f"no kill planned, yet dead: {sorted(cluster.faults.dead_nodes)}"
        )
    if cluster.faults.down_links:
        failures.append(
            f"links still down after all heals: "
            f"{sorted(cluster.faults.down_links)}"
        )
    if cluster.membership.dead():
        failures.append(
            "false declarations never retracted: "
            f"{sorted(cluster.membership.dead())}"
        )
    if health.isolated:
        failures.append(
            f"observers still isolated: {sorted(health.isolated)}"
        )

    tenants: dict[tuple[int, int], int] = {}
    for b, node in sorted(cluster.nodes.items()):
        client = node.reservations
        for res in client.held.values():
            if client.state_of(res) is not LeaseState.ACTIVE:
                continue
            donor = res.donor_node
            local = cluster.amap.strip_node(res.prefixed_start)
            grant = cluster.node(donor).os.grants.get(local)
            if grant is None:
                failures.append(
                    f"node {b}: ACTIVE lease {res.prefixed_start:#x} "
                    f"has no grant on donor {donor}"
                )
            elif grant.epoch != res.epoch:
                failures.append(
                    f"node {b}: lease epoch {res.epoch} != grant epoch "
                    f"{grant.epoch} on donor {donor} (SWMR violation)"
                )
            elif grant.borrower_node != b:
                failures.append(
                    f"donor {donor} range {local:#x} granted to "
                    f"{grant.borrower_node} but held by {b}"
                )
            prev = tenants.setdefault((donor, local), b)
            if prev != b:
                failures.append(
                    f"double tenancy on donor {donor} range {local:#x}: "
                    f"nodes {prev} and {b}"
                )
    return failures


def _fenced_demo() -> list[str]:
    """Post-heal stale-epoch write, observably fenced.

    A 3-node line: borrower 1 holds an (infinite) lease on donor 2. A
    partition strands the borrower; mid-cut the donor reclaims the
    range and re-grants it to node 3. After the heal, the stale
    borrower's access is NACKed with ``reason="fenced"`` and the new
    tenant's bytes stay untouched.
    """
    failures: list[str] = []
    cluster = Cluster(
        ClusterConfig(
            network=NetworkConfig(topology="line", dims=(3, 1)), rmc=RMC
        )
    )
    sim = cluster.sim
    page = 4096
    s1 = cluster.session(BORROWER)
    s1.borrow_remote(2, page)
    v = s1.malloc(page, Placement.REMOTE)
    s1.bulk_write(v, b"\x11" * page)
    res = next(iter(cluster.node(1).reservations.held.values()))
    cluster.arm_health(
        HealthConfig(watch_on_borrow=False, epoch_fencing=True)
    )
    t0 = sim.now
    cluster.arm_faults(
        FaultPlan().partition(
            ({1}, {2, 3}), at_ns=t0 + 10_000, until_ns=t0 + 200_000
        )
    )
    regrant: dict = {}

    def driver():
        yield sim.timeout(100_000)  # mid-cut
        local = cluster.amap.strip_node(res.prefixed_start)
        cluster.node(2).os.release_reservation(local)
        seg = next(
            s
            for s in cluster.regions.region_of(1).segments
            if s.start == res.prefixed_start
        )
        cluster.regions.remove_segment(1, seg)
        regrant["res"] = yield from cluster.borrow_process(3, 2, page)

    sim.process(driver(), name="demo.regrant")
    sim.run(until=t0 + 300_000)

    res3 = regrant.get("res")
    if res3 is None:
        return ["fenced demo: the mid-cut re-grant never completed"]
    if res3.epoch != res.epoch + 1:
        failures.append(
            f"fenced demo: re-grant epoch {res3.epoch}, "
            f"want {res.epoch + 1}"
        )
    try:
        s1.write(v, b"\xee" * 64, cached=False)
        failures.append("fenced demo: stale post-heal write was admitted")
    except RemoteAccessError as exc:
        if exc.reason != "fenced":
            failures.append(
                f"fenced demo: stale write raised reason={exc.reason!r}, "
                "want 'fenced'"
            )
    if cluster.node(2).rmc.fenced.value < 1:
        failures.append("fenced demo: donor fence counter never moved")
    if cluster.fn_read(res3.prefixed_start, 64) != b"\x11" * 64:
        failures.append("fenced demo: write leaked into the re-granted range")
    return failures


def _symmetric_split_demo() -> list[str]:
    """A 50/50 split must isolate both sides, not start mutual
    degrade-donor storms; the heal lets both rejoin with nobody ever
    declared dead and every lease intact."""
    failures: list[str] = []
    cluster = Cluster(
        ClusterConfig(
            network=NetworkConfig(topology="ring", dims=(6, 1)), rmc=RMC
        )
    )
    page = 4096
    for borrower, donors in ((1, (4, 5)), (4, (1, 2))):
        for donor in donors:
            cluster.borrow(borrower, donor, page)
    health = cluster.arm_health(
        HealthConfig(auto_recover=False, indirect_probes=2)
    )
    t0 = cluster.sim.now
    cluster.arm_faults(
        FaultPlan().partition(
            ({1, 2, 3}, {4, 5, 6}), at_ns=t0 + 10_000, until_ns=t0 + 300_000
        )
    )
    cluster.sim.run(until=t0 + 250_000)
    if health.isolated != {1, 4}:
        failures.append(
            f"split demo: isolated={sorted(health.isolated)}, want [1, 4]"
        )
    cluster.sim.run(until=t0 + 500_000)
    health.stop()
    cluster.sim.run()
    kinds = [k for _, k, _ in health.events]
    if "dead" in kinds:
        failures.append("split demo: a 50/50 split produced a declaration")
    if health.isolated:
        failures.append(
            f"split demo: still isolated {sorted(health.isolated)} post-heal"
        )
    if kinds.count("rejoined") != 2:
        failures.append(
            f"split demo: {kinds.count('rejoined')} rejoins, want 2"
        )
    for b in (1, 4):
        if len(cluster.node(b).reservations.held) != 2:
            failures.append(f"split demo: node {b} lost a lease to the split")
    return failures


def partition_soak(seeds: list[int], verbose: bool = False) -> int:
    """The partition tier: deterministic demos + seeded split schedules."""
    demo_failures = _fenced_demo() + _symmetric_split_demo()
    print(
        f"deterministic demos: {'ok' if not demo_failures else 'FAIL'}"
    )
    for f in demo_failures:
        print(f"  FAIL: {f}", file=sys.stderr)

    failed_seeds = []
    for seed in seeds:
        first = _build_and_run(seed, chaos=True, partitions=True)
        again = _build_and_run(seed, chaos=True, partitions=True)
        failures = _check_partition(first)
        d1, d2 = _digest(first), _digest(again)
        if d1 != d2:
            failures.append(f"replay diverged: {d1[:12]} != {d2[:12]}")

        health = first.cluster.health
        kinds = [k for _, k, _ in health.events]
        splits = sum(
            1 for _t, k, _d in first.cluster.faults.log if k == "partition"
        )
        fenced = sum(
            node.rmc.fenced.value for node in first.cluster.nodes.values()
        )
        status = "ok" if not failures else "FAIL"
        print(
            f"seed {seed:>3}: {status}  splits={splits}"
            f" declared={kinds.count('dead')}"
            f" readmitted={kinds.count('readmitted')}"
            f" refuted={kinds.count('refuted')}"
            f" isolated={kinds.count('isolated')}"
            f" fenced={fenced}"
        )
        if failures:
            failed_seeds.append(seed)
            for f in failures:
                print(f"  FAIL: {f}", file=sys.stderr)
        elif verbose:
            for ev in health.events:
                print(f"    {ev[0]:>10.0f} {ev[1]:<18} {ev[2]}")

    if demo_failures or failed_seeds:
        print(
            f"partition soak: FAILED (demos={len(demo_failures)} "
            f"seeds={failed_seeds})",
            file=sys.stderr,
        )
        return 1
    print(f"partition soak: {len(seeds)} seeds, all invariants held")
    return 0


def soak(seeds: list[int], verbose: bool = False) -> int:
    all_mttr: list[float] = []
    failed_seeds = []
    for seed in seeds:
        first = _build_and_run(seed, chaos=True)
        again = _build_and_run(seed, chaos=True)
        twin = _build_and_run(seed, chaos=False)

        failures = _check(first, twin)
        d1, d2 = _digest(first), _digest(again)
        if d1 != d2:
            failures.append(f"replay diverged: {d1[:12]} != {d2[:12]}")

        health = first.cluster.health
        mttrs = [r.mttr_ns for r in health.recoveries if r.allocations]
        all_mttr.extend(mttrs)
        mode = "strict" if len(health.recoveries) == 1 else "relaxed"
        quarantines = len(first.cluster.network.routing.quarantined)
        lost = sum(r.lost_lines for r in health.recoveries)
        status = "ok" if not failures else "FAIL"
        print(
            f"seed {seed:>3}: {status}"
            f"  deaths={sorted(first.cluster.membership.dead())}"
            f" recoveries={len(health.recoveries)} lost_lines={lost}"
            f" quarantines={quarantines}"
            f" mttr={max(mttrs) if mttrs else 0:.0f}ns [{mode}]"
        )
        if failures:
            failed_seeds.append(seed)
            for f in failures:
                print(f"  FAIL: {f}", file=sys.stderr)
        elif verbose:
            for ev in health.events:
                print(f"    {ev[0]:>10.0f} {ev[1]:<18} {ev[2]}")

    if all_mttr:
        print(
            f"\nMTTR over {len(all_mttr)} recoveries: "
            f"min {min(all_mttr):.0f} ns, "
            f"mean {sum(all_mttr) / len(all_mttr):.0f} ns, "
            f"max {max(all_mttr):.0f} ns"
        )
    if failed_seeds:
        print(f"chaos soak: FAILED seeds {failed_seeds}", file=sys.stderr)
        return 1
    print(f"chaos soak: {len(seeds)} seeds, all invariants held")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"run {QUICK_SEEDS} seeds instead of {SOAK_SEEDS}",
    )
    parser.add_argument(
        "--seeds", type=int, default=None,
        help="override the number of seeds",
    )
    parser.add_argument(
        "--partitions", action="store_true",
        help=f"run the partition tier ({P_SEEDS} split/heal/flap seeds) "
             "instead of the kill tier",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()
    if args.partitions:
        n = args.seeds or P_SEEDS
        return partition_soak(list(range(1, n + 1)), verbose=args.verbose)
    n = args.seeds or (QUICK_SEEDS if args.quick else SOAK_SEEDS)
    return soak(list(range(1, n + 1)), verbose=args.verbose)


if __name__ == "__main__":
    sys.exit(main())
