"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ConfigError",
    "AddressError",
    "ProtocolError",
    "TopologyError",
    "MemoryError_",
    "AllocationError",
    "RegionError",
    "ReservationError",
    "FaultError",
    "RemoteAccessError",
    "RecoveryError",
    "CoherenceError",
    "SanitizeError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulation engine.

    Raised e.g. when a process yields a non-waitable object or when the
    simulator is run re-entrantly.
    """


class ConfigError(ReproError, ValueError):
    """An invalid configuration value was supplied."""


class AddressError(ReproError, ValueError):
    """A physical or virtual address is malformed or out of range."""


class ProtocolError(ReproError):
    """A HyperTransport / HNC protocol invariant was violated."""


class TopologyError(ReproError):
    """The requested interconnect topology cannot be built or routed."""


class MemoryError_(ReproError):
    """Base class for memory-subsystem failures.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError`.
    """


class AllocationError(MemoryError_):
    """A physical-frame or virtual-range allocation could not be satisfied."""


class RegionError(MemoryError_):
    """A memory-region invariant (non-overlap, ownership) was violated."""


class ReservationError(MemoryError_):
    """The remote-memory reservation protocol failed."""


class FaultError(MemoryError_):
    """An unrecoverable page fault (access to unmapped virtual memory)."""


class RemoteAccessError(MemoryError_):
    """Machine-check-style failure of an access to remote memory.

    Raised when the remote side is unreachable rather than merely slow:
    the donor node died, the path is down and retransmission retries are
    exhausted, or the borrower touched a page whose backing frame was
    revoked. The paper is explicit (Section V) that remote memory adds
    no fault tolerance — this is the error that surfaces that fact to
    the issuing core instead of hanging the simulation.

    Beyond the message, the error carries structured context so tests
    and recovery code can discriminate without string matching:

    * ``node`` — the fabric node the failure traces to (the dead or
      unreachable peer, or the donor whose frame was revoked),
    * ``epoch`` — the incarnation of ``node`` the failure blames, for a
      poisoned page or a dirty-and-lost line: the membership epoch the
      node had when it was revoked or declared dead (a readmitted node
      comes back one epoch higher, so the blame stays exact),
    * ``region`` — the home node id of the memory region the access
      belonged to (regions are keyed by their home node),
    * ``tag`` — the transaction tag of the failed request, if any,
    * ``retries`` — retransmission attempts burned before giving up,
    * ``reason`` — structured failure class when the remote side said
      *why* it refused (``"fenced"``: the access carried a stale lease
      epoch and the donor's fence rejected it outright).

    All fields default to ``None``: raise sites fill in what they know.
    """

    def __init__(
        self,
        message: str,
        *,
        node: "int | None" = None,
        region: "int | None" = None,
        tag: "int | None" = None,
        retries: "int | None" = None,
        reason: "str | None" = None,
        epoch: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.node = node
        self.epoch = epoch
        self.region = region
        self.tag = tag
        self.retries = retries
        self.reason = reason


class RecoveryError(RemoteAccessError):
    """Automatic region recovery after a donor death could not finish.

    A subclass of :class:`RemoteAccessError` (it shares the structured
    context fields) raised by the rebalance layer when no healthy donor
    can supply replacement capacity for a lost allocation. The tenant's
    poisoned pages stay poisoned — recovery degrades back to PR-4
    fail-fast behaviour instead of silently dropping the region.
    """


class CoherenceError(MemoryError_):
    """An intra-node cache-coherence invariant was violated."""


class SanitizeError(ReproError):
    """A runtime sanitizer check failed (debug/``REPRO_SANITIZE`` mode).

    Raised fail-fast at the first inconsistency: a non-finite or
    time-travelling event schedule, an illegal MESI transition, or a
    burst whose byte accounting disagrees between fabric components.
    """
