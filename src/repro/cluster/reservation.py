"""Requester side of the remote-memory reservation protocol (Fig. 4).

The sequence the paper walks through:

1. the borrower's OS notices it is short of memory and picks a donor,
2. a *reserve* control message travels over the fabric,
3. the donor pins a contiguous range of its donation pool and answers
   with the range's start address, **prefix-stamped** with its node id,
4. the borrower writes prefixed translations into its page tables —
   after which plain loads/stores reach the memory with no software.

Software is on the *reservation* path only, never on the access path,
so generous OS costs here are faithful to the design.

**Lease lifecycle.** With the health subsystem armed, a reservation is
a *finite lease* moving through one state machine::

    ACTIVE --renew timer--> RENEWING --ack ok-->  ACTIVE
                            RENEWING --timeout--> GRACE  (slow donor?)
                            RENEWING --nack---->  EXPIRED
    GRACE  --retry ok---->  ACTIVE
    GRACE  --grace spent->  EXPIRED
    any live state --release--> RELEASED
    any live state --donor crash--> REVOKED
    any live state --stale epoch--> FENCED

EXPIRED / REVOKED / RELEASED / FENCED are terminal. Revocation (PR 4's
donor death) is now one path through the same machine instead of a
special case. The GRACE window is what distinguishes a *slow* donor
(renewals time out but eventually land) from a *dead* one (the grace
budget runs out and the lease expires).

**Epochs.** Every grant the donor hands out carries a monotonically
increasing *epoch*; the borrower's reservation records it and (with
``HealthConfig.epoch_fencing``) every remote request is stamped with
it. After the donor reclaims and possibly re-grants the range, the old
epoch no longer matches — the donor *fences* the access (NACK with
``reason="fenced"``) and the borrower's lease lands in FENCED, torn
down through the same expiry path as EXPIRED. This is what stops a
healed minority borrower from silently corrupting re-granted memory.

**One lease table, keyed by grant.** A re-granted range can come back
at the same prefixed start, so the start address does not name a
lease; the :class:`Reservation` does (its epoch is new). The client
keeps one ``leases`` dict from each grant to its state, in grant
order, and ``held`` is the view of its live entries by start. Releasing
or renewing an old grant therefore never reads or ends the new one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.errors import ReservationError
from repro.ht.packet import Packet

__all__ = ["Reservation", "ReservationClient", "LeaseState"]


class LeaseState(enum.Enum):
    """Borrower-side lifecycle state of one reservation."""

    ACTIVE = "active"
    RENEWING = "renewing"
    GRACE = "grace"
    EXPIRED = "expired"
    REVOKED = "revoked"
    RELEASED = "released"
    #: the donor fenced a stale-epoch access/renewal after reclaiming
    #: (and possibly re-granting) the range
    FENCED = "fenced"

    @property
    def terminal(self) -> bool:
        return self in (
            LeaseState.EXPIRED, LeaseState.REVOKED, LeaseState.RELEASED,
            LeaseState.FENCED,
        )


#: legal transitions; terminal states allow none
_TRANSITIONS: dict[LeaseState, tuple[LeaseState, ...]] = {
    LeaseState.ACTIVE: (
        LeaseState.RENEWING, LeaseState.REVOKED, LeaseState.RELEASED,
        LeaseState.FENCED,
    ),
    LeaseState.RENEWING: (
        LeaseState.ACTIVE, LeaseState.GRACE, LeaseState.EXPIRED,
        LeaseState.REVOKED, LeaseState.RELEASED, LeaseState.FENCED,
    ),
    LeaseState.GRACE: (
        LeaseState.RENEWING, LeaseState.EXPIRED,
        LeaseState.REVOKED, LeaseState.RELEASED, LeaseState.FENCED,
    ),
    LeaseState.EXPIRED: (),
    LeaseState.REVOKED: (),
    LeaseState.RELEASED: (),
    LeaseState.FENCED: (),
}


@dataclass(frozen=True)
class Reservation:
    """A borrower-held lease on remote memory."""

    donor_node: int
    #: prefixed physical start address (usable directly in page tables)
    prefixed_start: int
    size: int
    #: the donor-side grant generation this lease was issued under;
    #: stamped on remote requests when epoch fencing is armed
    epoch: int = 0

    def contains(self, prefixed_addr: int) -> bool:
        return (
            self.prefixed_start
            <= prefixed_addr
            < self.prefixed_start + self.size
        )


class ReservationClient:
    """Issues reserve/release exchanges on behalf of one node's OS."""

    def __init__(self, oslite) -> None:
        self.oslite = oslite
        self.node_id = oslite.node_id
        #: lifecycle state of every lease ever granted, in grant order.
        #: Keyed by the grant itself: a donor's epochs never repeat, so
        #: a range reclaimed and granted again is a new key
        self.leases: dict[Reservation, LeaseState] = {}

    @property
    def held(self) -> dict[int, Reservation]:
        """The live leases by prefixed start, in grant order (a copy)."""
        return {
            r.prefixed_start: r
            for r, state in self.leases.items()
            if not state.terminal
        }

    def epoch_of(self, prefixed_addr: int) -> Optional[int]:
        """Epoch of the live lease covering *prefixed_addr*, if any.

        The borrower-side half of the epoch fence: the RMC stamps this
        onto outgoing remote requests, so an access through a lease
        that expired (and whose range the donor may have re-granted)
        carries no epoch — or a stale one — and is fenced at the donor.
        """
        for reservation, state in reversed(self.leases.items()):
            if not state.terminal and reservation.contains(prefixed_addr):
                return reservation.epoch
        return None

    def state_of(self, reservation: Reservation) -> LeaseState:
        try:
            return self.leases[reservation]
        except KeyError:
            raise ReservationError(
                f"node {self.node_id} never held a lease at "
                f"{reservation.prefixed_start:#x} (epoch "
                f"{reservation.epoch})"
            ) from None

    def _transition(self, reservation: Reservation, to: LeaseState) -> None:
        cur = self.leases[reservation]
        if cur is to:
            return
        if to not in _TRANSITIONS[cur]:
            raise ReservationError(
                f"illegal lease transition {cur.value} -> {to.value} "
                f"for lease at {reservation.prefixed_start:#x}"
            )
        self.leases[reservation] = to

    def reserve(
        self, donor_node: int, size: int, timeout_ns: Optional[float] = None
    ) -> Generator:
        """Borrow *size* bytes from *donor_node*.

        A simulation process: ``res = yield from client.reserve(...)``;
        returns a :class:`Reservation` or raises
        :class:`~repro.errors.ReservationError` if the donor declines,
        or does not answer within *timeout_ns* (``None`` waits for the
        answer however long it takes). A grant that arrives after the
        timeout is released again by the OS.
        """
        if donor_node == self.node_id:
            raise ReservationError(
                "a node must not reserve from itself (overlapped segment)"
            )
        if size <= 0:
            raise ReservationError(f"reservation size must be positive: {size}")
        ack: Optional[Packet] = yield from self.oslite.ask(
            donor_node, timeout_ns, kind="reserve", size=size
        )
        if ack is None:
            raise ReservationError(
                f"donor node {donor_node} did not answer the reservation "
                f"within {timeout_ns:.0f} ns"
            )
        if not ack.meta["ok"]:
            raise ReservationError(
                f"donor node {donor_node} declined: {ack.meta.get('error')}"
            )
        reservation = Reservation(
            donor_node=donor_node,
            prefixed_start=ack.meta["prefixed_start"],
            size=ack.meta["size"],
            epoch=ack.meta.get("epoch", 0),
        )
        self.leases[reservation] = (  # simcheck: disable=SIM012 -- initial install: a fresh lease has no prior state to transition from
            LeaseState.ACTIVE
        )
        return reservation

    def release(self, reservation: Reservation) -> Generator:
        """Return a lease to its donor.

        A no-op for a lease in any terminal state: one already released
        (a borrower may retry an exchange that was cut short), or one
        revoked, expired or fenced (the donor has nothing left to
        return). Raises only for a lease this node never held.
        """
        if self.state_of(reservation).terminal:
            return None
        ack: Packet = yield from self.oslite.ask(
            reservation.donor_node,
            kind="release",
            prefixed_start=reservation.prefixed_start,
        )
        if not ack.meta["ok"]:
            raise ReservationError(f"release failed: {ack.meta!r}")
        self._end(reservation, LeaseState.RELEASED)
        return None

    def revoke_donor(self, donor_node: int) -> list[Reservation]:
        """End every live lease held from a crashed *donor_node*.

        The memory is gone — no fabric exchange is possible or needed.
        The leases move to REVOKED so a later ``release`` is a clean
        no-op. Returns the revoked leases.
        """
        lost = [
            r for r, state in self.leases.items()
            if r.donor_node == donor_node and not state.terminal
        ]
        for r in lost:
            self._end(r, LeaseState.REVOKED)
        return lost

    def expire(self, reservation: Reservation) -> None:
        """Mark a lease EXPIRED: renewals stopped landing for too long."""
        self._end(reservation, LeaseState.EXPIRED)

    def fence(self, reservation: Reservation) -> None:
        """Mark a lease FENCED: the donor rejected its epoch."""
        self._end(reservation, LeaseState.FENCED)

    def _end(self, reservation: Reservation, state: LeaseState) -> None:
        """Move a live lease to terminal *state*; it is gone from here on.

        A no-op for a lease that already reached a terminal state — the
        first ending wins, so a revocation racing a renewal or release
        is not undone.
        """
        if not self.leases[reservation].terminal:
            self._transition(reservation, state)

    def renew(self, reservation: Reservation, timeout_ns: float) -> Generator:
        """One renewal exchange; returns ``"ok"``/``"timeout"``/``"expired"``.

        ``"ok"``      — the donor extended the lease (back to ACTIVE).
        ``"timeout"`` — no answer within *timeout_ns*: the lease enters
                        GRACE; the caller retries against its grace
                        budget before giving up.
        ``"expired"`` — the donor nacked (grant gone) or the lease hit
                        a terminal state while the exchange was in
                        flight; no further renewals make sense.
        """
        if self.state_of(reservation).terminal:
            return "expired"
        self._transition(reservation, LeaseState.RENEWING)
        ack: Optional[Packet] = yield from self.oslite.ask(
            reservation.donor_node,
            timeout_ns,
            kind="renew",
            prefixed_start=reservation.prefixed_start,
            epoch=reservation.epoch,
        )
        # revocation may have raced the exchange (donor declared dead
        # while our renew was on the wire) — the terminal state wins
        if self.leases[reservation].terminal:
            return "expired"
        if ack is None:
            self._transition(reservation, LeaseState.GRACE)
            return "timeout"
        if not ack.meta["ok"]:
            if ack.meta.get("reason") == "fenced":
                # the donor's grant moved to a newer epoch under us —
                # distinct from EXPIRED so tests and recovery can tell
                # "we outlived the grace budget" from "we were fenced"
                self.fence(reservation)
            else:
                self.expire(reservation)
            return "expired"
        self._transition(reservation, LeaseState.ACTIVE)
        return "ok"

    def lease_daemon(
        self,
        reservation: Reservation,
        ttl_ns: float,
        margin_ns: float,
        grace_ns: float,
        *,
        timeout_ns: float,
        on_expired: Optional[Callable[[Reservation], None]] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> Generator:
        """Keep one lease alive: renew every ``ttl - margin`` ns.

        A renewal that times out enters the GRACE window and is retried
        every *timeout_ns* until the ``grace_ns`` budget is spent; then
        the lease is expired and *on_expired* fires (the health layer
        hooks recovery there). *stop* is polled after every sleep so
        the daemon winds down when the health subsystem is stopped —
        otherwise its periodic timer would keep the event queue alive
        forever.
        """
        if margin_ns >= ttl_ns:
            raise ReservationError("renew margin must be below the ttl")
        sim = self.oslite.sim
        while True:
            yield sim.timeout(ttl_ns - margin_ns)
            if stop is not None and stop():
                return
            if self.leases[reservation] is not LeaseState.ACTIVE:
                return
            outcome = yield from self.renew(reservation, timeout_ns)
            retries = int(grace_ns // timeout_ns)
            while outcome == "timeout" and retries > 0:
                if stop is not None and stop():
                    return
                retries -= 1
                outcome = yield from self.renew(reservation, timeout_ns)
            if outcome == "ok":
                continue
            if outcome == "timeout":
                # grace budget spent with the donor still silent
                self.expire(reservation)
            if self.leases[reservation] in (
                LeaseState.EXPIRED, LeaseState.FENCED
            ):
                # a fenced lease is torn down through the same path:
                # the memory is gone either way
                if on_expired is not None:
                    on_expired(reservation)
            return
