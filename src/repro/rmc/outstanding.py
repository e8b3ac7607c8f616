"""Outstanding-transaction tracking for the RMC client pipeline.

Every remote request in flight holds one of the RMC's scarce buffer
entries from local acceptance until its response is delivered back to
the issuing core. The table pairs responses with requests by tag,
counts retransmissions, and exposes occupancy for instrumentation.

:class:`RequestWatchdog` adds end-to-end loss detection on top of the
table: when ``RMCConfig.request_timeout_ns`` is set, every demand
request gets a watcher process that retransmits on every expiry of
that timeout and abandons the transaction with a
machine-check FAULT completion once ``max_retries`` is exhausted —
a lost packet degrades to an error instead of hanging ``sim.run()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.config import RMCConfig
from repro.errors import ProtocolError
from repro.ht.packet import Packet
from repro.sim.engine import Request, Simulator, Store
from repro.sim.stats import Counter

__all__ = ["PendingOp", "OutstandingTable", "RequestWatchdog"]


@dataclass(slots=True)
class PendingOp:
    """One in-flight remote transaction."""

    request: Packet
    #: where the final response must be delivered (the issuing core's
    #: private response store); None for RMC-internal prefetches
    reply_to: Optional[Store]
    #: the buffer-slot grant held for the transaction's lifetime
    #: (None for prefetches, which bypass the scarce demand slots)
    slot: Optional[Request]
    issue_ns: float
    retries: int = 0
    #: an RMC-internal prefetch fill rather than a core's demand access
    is_prefetch: bool = False


class OutstandingTable:
    """tag -> :class:`PendingOp` with misuse checking."""

    def __init__(self, name: str = "outstanding") -> None:
        self.name = name
        self._pending: dict[int, PendingOp] = {}
        self.peak = 0
        self.total_retries = 0

    def add(self, op: PendingOp) -> None:
        tag = op.request.tag
        if tag in self._pending:
            raise ProtocolError(f"{self.name}: duplicate in-flight tag {tag}")
        pending = self._pending
        pending[tag] = op
        if len(pending) > self.peak:
            self.peak = len(pending)

    def get(self, tag: int) -> PendingOp:
        try:
            return self._pending[tag]
        except KeyError:
            raise ProtocolError(
                f"{self.name}: response for unknown tag {tag}"
            ) from None

    def complete(self, tag: int) -> PendingOp:
        """Remove and return the entry for *tag*."""
        op = self.get(tag)
        del self._pending[tag]
        return op

    def note_retry(self, tag: int) -> int:
        """Record a retransmission; returns the new retry count."""
        op = self.get(tag)
        op.retries += 1
        self.total_retries += 1
        return op.retries

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tag: int) -> bool:
        return tag in self._pending


class RequestWatchdog:
    """Per-request timeout detection for the RMC client role.

    One ``watch`` process per demand request (spawned only when
    ``request_timeout_ns`` > 0, so the disarmed configuration schedules
    no extra events). Tags are globally unique and never recycled, so
    "tag no longer in the table" is a safe completion test — a later
    transaction can never alias a finished one.
    """

    def __init__(
        self,
        sim: Simulator,
        table: OutstandingTable,
        config: RMCConfig,
        retransmit: Callable[[PendingOp], Generator],
        fail: Callable[[PendingOp, str], None],
        timeouts: Counter,
        exhausted: Counter,
    ) -> None:
        self.sim = sim
        self.table = table
        self.config = config
        self._retransmit = retransmit
        self._fail = fail
        self.timeouts = timeouts
        self.exhausted = exhausted
        #: whether requests are watched at all (the config is frozen)
        self.enabled: bool = config.request_timeout_ns > 0

    def watch(self, op: PendingOp) -> Generator:
        """Watch one in-flight request until it completes or is failed.

        Each expiry retransmits the request whole (under its original
        tag) after noting the retry; every wait is ``request_timeout_ns``.
        With ``max_retries`` = 0 the watchdog retransmits forever — loss
        recovery without an error surface.
        """
        cfg = self.config
        tag = op.request.tag
        while True:
            yield self.sim.timeout(cfg.request_timeout_ns)
            if tag not in self.table:
                return  # completed (or already failed) while we slept
            self.timeouts.add()
            if cfg.max_retries and op.retries >= cfg.max_retries:
                self.exhausted.add()
                self._fail(
                    op,
                    f"no response from node {op.request.dst} for tag {tag} "
                    f"after {op.retries + 1} attempts",
                )
                return
            self.table.note_retry(tag)
            yield from self._retransmit(op)
