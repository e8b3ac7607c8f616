"""Failure detection: heartbeats, suspicion, quarantine, declaration.

The reservation protocol assumes donors stay up (Section III-B); this
module is the cluster's way of *noticing* when they do not. Design:

* **Probes on the real path.** Each observer's OS sends periodic
  liveness probes (``kind="probe"`` exchanges through
  :meth:`repro.cluster.oslite.OSLite.ask`) to the peers it borrowed
  from. Probes are CTRL packets riding the exact fabric path a real
  request takes — switches, links, the peer's control plane — so
  whatever kills requests also kills probes.
* **Suspicion, not verdicts.** A missed probe increments a per-
  ``(observer, peer)`` suspicion counter; any answered probe resets
  it. At ``quarantine_after`` consecutive misses the observer assumes
  a flapping *link* first: the first suspect edge on the route — the
  first hop not vouched for by another watched peer's answered
  probes — is quarantined and the fabric reroutes around it where the
  topology allows (:meth:`repro.noc.routing.RoutingTable.quarantine_edge`).
  Only at ``miss_threshold`` misses is the peer declared dead.
* **One membership record.** :class:`Membership` holds each node's
  state and incarnation epoch. :func:`degrade_donor` (the fault
  layer's death callback or a declaration, whichever runs first)
  moves ``ALIVE(e) -> REVOKED(e)``; a declaration moves on to
  ``DEAD(e)`` and, with ``auto_recover``, spawns
  :func:`repro.cluster.rebalance.heal_sessions`; a readmission starts
  ``ALIVE(e+1)``. Poisoned pages and lost lines blame ``(node, e)``.
* **Corroboration before declaration** (``indirect_probes > 0``). A
  single observer cannot tell a dead peer from a broken path, so at
  ``miss_threshold`` it first solicits SWIM-style indirect probes
  (``ping_req`` CTRL messages) from other watched peers; any helper
  that reaches the suspect refutes the verdict. An observer that
  cannot itself reach a ``quorum_fraction`` of its watch set assumes
  *it* is the partitioned minority: it enters **isolated** mode and
  self-fences — no declarations, no new borrows — instead of
  degrading the majority. A symmetric 50/50 split therefore isolates
  both sides rather than triggering mutual ``degrade_donor`` storms.
* **Rejoin healing.** When the fault layer restores a link
  (:meth:`on_link_restored`), quarantined edges are cleared back to
  native routes, and peers declared dead while unreachable are
  re-probed; a peer that answers is readmitted as a new incarnation
  and leases still held from it are re-watched. Isolated observers
  exit isolation on their own as soon as probes reach quorum again.

* **One teardown per lease end.** :func:`end_lease` is the borrower's
  side of every ending: ``Cluster.give_back`` after a release,
  :func:`degrade_donor` for a revocation, and the lease daemon's
  expiry or fencing callback. It drops the lease's segment and
  poisons what each session on the borrower still maps on it.

**Zero-cost when disarmed.** A cluster carries ``health = None`` until
:meth:`repro.cluster.cluster.Cluster.arm_health` runs; the only hot
hook is one ``is not None`` check on the borrow path. An armed monitor
with ``watch_on_borrow=False`` and no explicit watches schedules no
events, so its timing is bit-identical to a disarmed run.

**Stopping.** Heartbeats are periodic, so an armed monitor keeps the
event queue non-empty forever; :meth:`HealthMonitor.stop` winds every
probe loop, renewal daemon and donor expiry daemon (whose ``stop``
predicate reads the monitor) down at its next wake-up so ``sim.run()``
can drain. The idiom::

    sim.run(until=horizon)
    cluster.health.stop()
    sim.run()   # drains the leftover timers as no-ops
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Generator, Optional

from repro.cluster import rebalance
from repro.cluster.regions import Segment
from repro.cluster.reservation import LeaseState
from repro.config import HealthConfig
from repro.errors import TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.cluster.reservation import Reservation

__all__ = ["HealthMonitor", "Membership", "NodeState", "degrade_donor", "end_lease"]


class NodeState(enum.Enum):
    """Where a node's current incarnation stands in :class:`Membership`."""

    ALIVE = "alive"
    REVOKED = "revoked"
    DEAD = "dead"


class Membership:
    """Each node's state and incarnation epoch; unwritten nodes are ``ALIVE(0)``.

    ``ALIVE(e) -> REVOKED(e) -> DEAD(e) -> ALIVE(e+1)``. Only
    :func:`degrade_donor` (``revoke``), ``HealthMonitor._declare_dead``
    (``declare``) and ``HealthMonitor._readmit`` (``readmit``) write it
    (simcheck SIM008); a write from any other state returns False.
    """

    def __init__(self) -> None:
        self._records: dict[int, tuple[NodeState, int]] = {}

    def state(self, node: int) -> NodeState:
        return self._records.get(node, (NodeState.ALIVE, 0))[0]

    def epoch(self, node: int) -> int:
        return self._records.get(node, (NodeState.ALIVE, 0))[1]

    def is_dead(self, node: int) -> bool:
        return self.state(node) is NodeState.DEAD

    def dead(self) -> set[int]:
        return {n for n in self._records if self.is_dead(n)}

    def declared(self, node: int, epoch: int) -> bool:
        """Was incarnation *epoch* of *node* declared dead?"""
        current = self.epoch(node)
        return epoch < current or (epoch == current and self.is_dead(node))

    def revoke(self, node: int) -> bool:
        return self._advance(node, NodeState.ALIVE, NodeState.REVOKED)

    def declare(self, node: int) -> bool:
        return self._advance(node, NodeState.REVOKED, NodeState.DEAD)

    def readmit(self, node: int) -> bool:
        return self._advance(node, NodeState.DEAD, NodeState.ALIVE)

    def _advance(self, node: int, src: NodeState, dst: NodeState) -> bool:
        if self.state(node) is not src:
            return False
        self._records[node] = (dst, self.epoch(node) + (dst is NodeState.ALIVE))
        return True


def degrade_donor(cluster: "Cluster", dead: int) -> None:
    """Degrade gracefully after *dead*'s crash (idempotent).

    Mirrors what each survivor's OS does on a machine-check storm from
    the fabric: every live lease from the dead donor is revoked and
    torn down by :func:`end_lease`, so its segment leaves the borrowing
    region and every mapped page it was backing is poisoned, blaming
    the node's current incarnation. Both the fault injector's death
    callback and the health monitor's declaration funnel here; it
    moves the node ``ALIVE -> REVOKED``, so whichever fires second is
    a no-op.
    """
    if not cluster.membership.revoke(dead):
        return
    epoch = cluster.membership.epoch(dead)
    # loopback reservations are forbidden: the dead node loses nothing
    for node_id, node in cluster.nodes.items():
        lost = node.reservations.revoke_donor(dead)
        if lost and cluster.faults is not None:
            cluster.faults.note_revoked(node_id, len(lost))
        for reservation in lost:
            end_lease(cluster, node_id, reservation, epoch)


def end_lease(
    cluster: "Cluster",
    borrower: int,
    reservation: "Reservation",
    epoch: Optional[int] = None,
) -> None:
    """Tear down *borrower*'s side of a lease that just ended.

    The one teardown for every ending — release, revocation, expiry
    and fencing; the lease table already holds the terminal state, so
    the lease's arenas take no more placements. This drops the lease's
    segment from the borrower's region (a donor-side reclaim may have
    removed it already) and poisons the pages each session on the
    borrower still maps there, blaming the donor at incarnation
    *epoch* (``None`` when the donor is alive).
    """
    region = cluster.regions.region_of(borrower)
    segment = Segment(
        reservation.donor_node, reservation.prefixed_start, reservation.size
    )
    if segment in region.segments:
        cluster.regions.remove_segment(borrower, segment)
    for sess in cluster._sessions:
        if sess.node_id == borrower:
            sess.allocator.retire_reservation(reservation, epoch)
    cluster.regions.check_invariants()


class HealthMonitor:
    """Armed failure detection for one cluster."""

    def __init__(self, cluster: "Cluster", config: HealthConfig) -> None:
        self.cluster = cluster
        self.cfg = config
        self.sim = cluster.sim
        #: (observer, peer) -> consecutive missed probes
        self.suspicion: dict[tuple[int, int], int] = {}
        self._watches: set[tuple[int, int]] = set()
        #: every peer each observer ever watched — survives probe-loop
        #: exits, so it is the stable quorum denominator
        self.watch_set: dict[int, set[int]] = {}
        #: observers currently self-fenced (below partition quorum)
        self.isolated: set[int] = set()
        #: (sim_ns, kind, detail) — the replay-comparable health record
        self.events: list[tuple[float, str, str]] = []
        #: :class:`~repro.cluster.rebalance.RecoveryReport` per death
        self.recoveries: list = []
        self.probes_sent = 0
        self._stopped = False
        #: (observer, peer) corroboration rounds in flight
        self._corroborating: set[tuple[int, int]] = set()
        #: a dead-peer revalidation pass is queued or running
        self._revalidating = False

    # -- lifecycle --------------------------------------------------------
    def stop(self) -> None:
        """Wind down every probe loop and lease daemon (drainable run)."""
        self._stopped = True

    # -- watch management -------------------------------------------------
    def watch(self, observer: int, peer: int) -> None:
        """Start (idempotent) heartbeat probing of *peer* by *observer*."""
        key = (observer, peer)
        if key in self._watches or observer == peer:
            return
        self._watches.add(key)
        self.watch_set.setdefault(observer, set()).add(peer)
        self.sim.process(
            self._probe_loop(observer, peer), name=f"health.{observer}->{peer}"
        )

    def is_isolated(self, node_id: int) -> bool:
        """True while *node_id* is self-fenced below partition quorum."""
        return node_id in self.isolated

    def on_new_lease(self, borrower: int, reservation: "Reservation") -> None:
        """Hook run by the borrow path: watch the donor, start renewal."""
        self.watch(borrower, reservation.donor_node)
        if self.cfg.lease_ttl_ns:
            client = self.cluster.node(borrower).reservations
            self.sim.process(
                client.lease_daemon(
                    reservation,
                    self.cfg.lease_ttl_ns,
                    self.cfg.renew_margin_ns,
                    self.cfg.lease_grace_ns,
                    timeout_ns=self.cfg.probe_timeout_ns,
                    on_expired=lambda res: self._on_lease_expired(borrower, res),
                    stop=lambda: self._stopped,
                ),
                name=f"health.lease{borrower}@{reservation.prefixed_start:#x}",
            )

    # -- the probe loop ----------------------------------------------------
    def _probe_loop(self, observer: int, peer: int) -> Generator:
        cfg = self.cfg
        members = self.cluster.membership
        seq = 0
        # every exit path must surrender the (observer, peer) watch key:
        # a loop that returned (observer died, peer declared, monitor
        # stopped) but kept the key would make watch() a silent no-op
        # forever, so a readmitted peer could never be re-watched
        try:
            node = self.cluster.node(observer)
            while True:
                yield self.sim.timeout(cfg.heartbeat_period_ns)
                if self._stopped or members.is_dead(peer):
                    return
                if self.cluster.killed(observer):
                    return  # dead observers probe nobody
                seq += 1
                self.probes_sent += 1
                ack = yield from node.os.ask(
                    peer, cfg.probe_timeout_ns, kind="probe", seq=seq
                )
                if ack is not None:
                    self._probe_ok(observer, peer)
                else:
                    self._probe_miss(observer, peer)
                    if members.is_dead(peer):
                        return
        finally:
            self._watches.discard((observer, peer))

    def _probe_ok(self, observer: int, peer: int) -> None:
        if self.suspicion.pop((observer, peer), None):
            self.events.append(
                (self.sim.now, "cleared", f"{observer} trusts {peer} again")
            )
        if observer in self.isolated and self._has_quorum(observer):
            self.isolated.discard(observer)
            self.events.append(
                (self.sim.now, "rejoined",
                 f"observer {observer} regained quorum; fence lifted")
            )

    def _probe_miss(self, observer: int, peer: int) -> None:
        cfg = self.cfg
        misses = self.suspicion.get((observer, peer), 0) + 1
        self.suspicion[(observer, peer)] = misses
        self.events.append(
            (self.sim.now, "miss", f"{observer}->{peer} x{misses}")
        )
        if misses == cfg.quarantine_after and misses < cfg.miss_threshold:
            # suspect the path before the peer: a flapping link on the
            # route explains missed probes just as well as a death
            self._quarantine_suspect_hop(observer, peer)
        if misses >= cfg.miss_threshold:
            if cfg.indirect_probes > 0:
                self._maybe_corroborate(observer, peer)
            else:
                self._declare_dead(observer, peer)

    # -- corroboration and isolation ---------------------------------------
    def _reachable(self, observer: int, peer: int) -> bool:
        """Is *peer* currently reachable evidence-wise for *observer*?

        A peer counts unreachable once its suspicion reached the
        quarantine threshold (probes are demonstrably not landing) or
        it is already declared dead.
        """
        return (
            not self.cluster.membership.is_dead(peer)
            and self.suspicion.get((observer, peer), 0)
            < self.cfg.quarantine_after
        )

    def _has_quorum(self, observer: int) -> bool:
        """Can *observer* reach enough of its watch set to pass verdicts?"""
        watched = self.watch_set.get(observer, set())
        if not watched:
            return True
        reachable = sum(1 for p in watched if self._reachable(observer, p))
        needed = max(1, math.ceil(self.cfg.quorum_fraction * len(watched)))
        return reachable >= needed

    def _enter_isolated(self, observer: int) -> None:
        if observer in self.isolated:
            return
        self.isolated.add(observer)
        self.events.append(
            (self.sim.now, "isolated",
             f"observer {observer} below quorum; self-fencing "
             "(no declarations, no new borrows)")
        )

    def _maybe_corroborate(self, observer: int, peer: int) -> None:
        key = (observer, peer)
        if key in self._corroborating or self.cluster.membership.is_dead(peer):
            return
        if not self._has_quorum(observer):
            # the observer itself is the cut-off side: self-fence
            # instead of declaring the (majority) suspect dead
            self._enter_isolated(observer)
            return
        self._corroborating.add(key)
        self.sim.process(
            self._corroborate(observer, peer), name=f"health.corr{observer}->{peer}"
        )

    def _corroborate(self, observer: int, peer: int) -> Generator:
        """SWIM-style indirect probing before a death declaration.

        The observer asks up to ``indirect_probes`` other *reachable*
        watched peers to probe the suspect on its behalf. Any helper
        that reaches the suspect refutes the verdict (the suspect is
        alive, the observer's path is broken); only when nobody can
        vouch — and the observer still holds quorum — does the
        declaration proceed on corroborated evidence.
        """
        cfg = self.cfg
        node = self.cluster.node(observer)
        try:
            helpers = [
                p
                for p in sorted(self.watch_set.get(observer, ()))
                if p != peer and self._reachable(observer, p)
            ][: cfg.indirect_probes]
            # helpers answer within their own probe timeout; one extra
            # probe_timeout covers the ack's return trip
            acks = yield from node.os.ask_each(
                helpers,
                cfg.ping_req_timeout_ns + cfg.probe_timeout_ns,
                kind="ping_req",
                target=peer,
                timeout_ns=cfg.ping_req_timeout_ns,
            )
            if any(ack is not None and ack.meta.get("reachable")
                   for ack in acks):
                self.suspicion.pop((observer, peer), None)
                self.events.append(
                    (self.sim.now, "refuted",
                     f"indirect probe reached {peer}; observer "
                     f"{observer} stands down")
                )
                return
            if self._stopped or self.cluster.membership.is_dead(peer):
                return
            if self.cluster.killed(observer):
                return  # dead observers declare nobody
            # last look before the verdict: the helpers' evidence aged
            # across the whole wait window, and a partition that healed
            # meanwhile would make a declaration now both false and
            # unretractable (no further link restore will re-probe)
            self.probes_sent += 1
            ack = yield from node.os.ask(
                peer, cfg.probe_timeout_ns, kind="probe", seq=0
            )
            if ack is not None:
                self.suspicion.pop((observer, peer), None)
                self.events.append(
                    (self.sim.now, "refuted",
                     f"suspect {peer} answered the final direct probe")
                )
                return
            if self._stopped or self.cluster.membership.is_dead(peer):
                return
            if not self._has_quorum(observer):
                self._enter_isolated(observer)
                return
            self._declare_dead(observer, peer)
        finally:
            self._corroborating.discard((observer, peer))

    def _quarantine_suspect_hop(self, observer: int, peer: int) -> None:
        """Route around the first *suspect* edge on the path to *peer*.

        Walks the current route and skips over hops whose far end is a
        watched peer with zero suspicion — their answered probes are
        live evidence those edges carry traffic, so quarantining one
        would sever a working path on a misattributed loss (the classic
        way a detector turns one failure into two). The first hop with
        no such alibi is the suspect; where the topology allows, the
        fabric reroutes around it.
        """
        routing = self.cluster.network.routing
        try:
            path = routing.path(observer, peer)
        except TopologyError:
            return
        for a, b in zip(path, path[1:]):
            if (
                b != peer
                and (observer, b) in self._watches
                and self.suspicion.get((observer, b), 0) == 0
            ):
                continue  # far end demonstrably reachable; edge cleared
            if routing.quarantine_edge(a, b):
                self.events.append(
                    (self.sim.now, "quarantine",
                     f"edge {a}-{b} rerouted (suspect on {observer}->{peer})")
                )
            else:
                self.events.append(
                    (self.sim.now, "quarantine_refused",
                     f"edge {a}-{b} is a cut edge")
                )
            return

    def _declare_dead(self, observer: int, peer: int) -> None:
        members = self.cluster.membership
        if members.is_dead(peer):
            return
        if observer in self.isolated:
            # self-fenced: an isolated observer's evidence is void
            self.events.append(
                (self.sim.now, "suppressed",
                 f"isolated observer {observer} may not declare {peer}")
            )
            return
        self.events.append(
            (self.sim.now, "dead",
             f"node {peer} declared dead by observer {observer}")
        )
        degrade_donor(self.cluster, peer)  # no-op if the fault layer did
        members.declare(peer)
        if self.cfg.auto_recover:
            recovery = rebalance.heal_sessions(
                self, peer, members.epoch(peer), self.sim.now
            )
            self.sim.process(recovery, name=f"health.recover{peer}")

    # -- rejoin healing -----------------------------------------------------
    def on_link_restored(self, a: int, b: int) -> None:
        """Fault-layer restore callback: heal what the outage broke.

        Clears the quarantine on the restored edge (traffic goes back
        to the native route instead of detouring around a healthy link
        forever) and, when any node stands DEAD in the membership
        record, schedules a revalidation pass that re-probes and
        readmits the falsely declared.
        """
        if self._stopped:
            return
        if self.cluster.network.routing.clear_edge(a, b):
            self.events.append(
                (self.sim.now, "unquarantined",
                 f"edge {a}-{b} restored; native route back")
            )
        if self.cluster.membership.dead() and not self._revalidating:
            self._revalidating = True
            self.sim.process(self._revalidate_dead(), name="health.revalidate")

    def _revalidate_dead(self) -> Generator:
        """Re-probe declared-dead peers after a link heal.

        A peer that answers was never dead — only unreachable — so it is
        readmitted. Actually-killed nodes (per the fault injector) are
        skipped: no probe can resurrect those.
        """
        cfg = self.cfg
        members = self.cluster.membership
        try:
            # let every restore of the same heal event land first
            yield self.sim.timeout(0)
            self._revalidating = False
            for peer in sorted(members.dead()):
                if self._stopped:
                    return
                if self.cluster.killed(peer):
                    continue
                observer = next(
                    (n for n in sorted(self.cluster.nodes) if n != peer
                     and not members.is_dead(n) and not self.cluster.killed(n)),
                    None,
                )
                if observer is None:
                    continue
                self.probes_sent += 1
                ack = yield from self.cluster.node(observer).os.ask(
                    peer, cfg.probe_timeout_ns, kind="probe", seq=0
                )
                if ack is not None:
                    self._readmit(peer)
        finally:
            self._revalidating = False

    def _readmit(self, peer: int) -> None:
        """Readmit a falsely declared *peer* as ``ALIVE(e+1)`` (idempotent).

        The new incarnation can donate (and, if it truly fails later,
        be degraded) again, while blame stamped on ``(peer, e)`` stays
        declared; borrowers still holding live leases from it resume
        watching — possible because every probe-loop exit surrenders
        its watch key.
        """
        if not self.cluster.membership.readmit(peer):
            return
        # the retraction voids the evidence: drop every observer's
        # stale suspicion of the peer, else a watcher whose probe loop
        # exited on the declaration could never regain quorum
        for key in [k for k in self.suspicion if k[1] == peer]:
            del self.suspicion[key]
        self.events.append(
            (self.sim.now, "readmitted",
             f"node {peer} answered a revalidation probe; "
             "declaration retracted")
        )
        for node in self.cluster.nodes.values():
            for res in node.reservations.held.values():
                if res.donor_node == peer:
                    self.watch(node.node_id, peer)

    def _on_lease_expired(
        self, borrower: int, reservation: "Reservation"
    ) -> None:
        client = self.cluster.node(borrower).reservations
        fenced = client.state_of(reservation) is LeaseState.FENCED
        kind = "lease_fenced" if fenced else "lease_expired"
        self.events.append(
            (self.sim.now, kind,
             f"borrower {borrower} lost lease "
             f"{reservation.prefixed_start:#x} on donor "
             f"{reservation.donor_node}")
        )
        end_lease(self.cluster, borrower, reservation)
