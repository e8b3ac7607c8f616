"""Intra-node MESI coherence with probe accounting.

This module exists to *demonstrate the paper's thesis quantitatively*:
in the proposed architecture, the set of caches that must be probed on
a coherent write is bounded by one node's caches, **independent of how
much memory the region spans**; in a coherent-aggregation design
(3Leaf/ScaleMP-style, Section II) the probe fan-out grows with every
node contributing cache as well as memory.

The domain tracks, per line, which member caches hold it and in what
MESI state, keeps the caches' residency in sync (installing and
invalidating lines through their public API), and counts probes,
invalidations and dirty data transfers. A latency model converts those
counts into coherence overhead for the fast-simulation tier.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CoherenceError, SanitizeError
from repro.mem.cache import Cache

__all__ = [
    "MESIState",
    "CoherenceStats",
    "SpanResult",
    "CoherenceDomain",
]


class MESIState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


#: MESI transition legality, keyed by the *event* a cache observes.
#: ``table[event][old_state]`` is the set of states the line may move
#: to; an event/old-state pair absent from the table is itself illegal
#: (e.g. a peer_read probe hitting an INVALID copy — the directory
#: should not have probed that cache at all). Only consulted under the
#: sanitizer (``debug=True`` / ``REPRO_SANITIZE=1``).
_S = MESIState
_LEGAL_TRANSITIONS: dict[str, dict[MESIState, frozenset[MESIState]]] = {
    # the requesting cache performs a read
    "local_read": {
        _S.INVALID: frozenset({_S.EXCLUSIVE, _S.SHARED}),
        _S.SHARED: frozenset({_S.SHARED}),
        _S.EXCLUSIVE: frozenset({_S.EXCLUSIVE}),
        _S.MODIFIED: frozenset({_S.MODIFIED}),
    },
    # the requesting cache performs a write: always ends Modified
    "local_write": {
        _S.INVALID: frozenset({_S.MODIFIED}),
        _S.SHARED: frozenset({_S.MODIFIED}),
        _S.EXCLUSIVE: frozenset({_S.MODIFIED}),
        _S.MODIFIED: frozenset({_S.MODIFIED}),
    },
    # a peer's read probe: holders degrade to Shared
    "peer_read": {
        _S.MODIFIED: frozenset({_S.SHARED}),
        _S.EXCLUSIVE: frozenset({_S.SHARED}),
        _S.SHARED: frozenset({_S.SHARED}),
    },
    # a peer's write/upgrade probe: every other copy dies
    "peer_write": {
        _S.MODIFIED: frozenset({_S.INVALID}),
        _S.EXCLUSIVE: frozenset({_S.INVALID}),
        _S.SHARED: frozenset({_S.INVALID}),
    },
    # capacity eviction from the tag array
    "evict": {
        _S.MODIFIED: frozenset({_S.INVALID}),
        _S.EXCLUSIVE: frozenset({_S.INVALID}),
        _S.SHARED: frozenset({_S.INVALID}),
    },
}
del _S


@dataclass
class CoherenceStats:
    """Probe traffic counters for one domain."""

    read_requests: int = 0
    write_requests: int = 0
    #: probes sent to peer caches (each peer probed counts once)
    probes_sent: int = 0
    invalidations: int = 0
    #: dirty-data transfers between caches (M -> requester)
    interventions: int = 0

    @property
    def probes_per_request(self) -> float:
        total = self.read_requests + self.write_requests
        return self.probes_sent / total if total else 0.0


@dataclass(frozen=True)
class SpanResult:
    """Outcome of one grouped coherent operation over consecutive lines.

    Produced by :meth:`CoherenceDomain.read_span` /
    :meth:`CoherenceDomain.write_span` so a core can charge the whole
    span's latency arithmetically instead of per line.
    """

    hits: int
    misses: int
    #: misses served cache-to-cache (a peer held the line Modified)
    interventions: int
    #: miss lines whose data comes from memory, in ascending line order
    #: (the requester coalesces contiguous runs into burst fetches)
    fetch_lines: list[int] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class CoherenceDomain:
    """A MESI directory over the caches of **one node**.

    ``broadcast`` selects between snoop-broadcast probing (every peer
    cache is probed on every miss — the Opteron's behaviour, whose cost
    grows with domain size) and precise directory probing (only actual
    sharers are probed).
    """

    def __init__(self, caches: list[Cache], broadcast: bool = True,
                 name: str = "domain",
                 debug: Optional[bool] = None) -> None:
        if not caches:
            raise CoherenceError("a coherence domain needs at least one cache")
        names = [c.name for c in caches]
        if len(set(names)) != len(names):
            raise CoherenceError(f"duplicate cache names in domain: {names}")
        self.name = name
        self.caches = list(caches)
        self.broadcast = broadcast
        #: line -> {cache index -> MESIState}; absent line == Invalid everywhere
        self._directory: dict[int, dict[int, MESIState]] = {}
        self.stats = CoherenceStats()
        if debug is None:
            debug = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        #: Sanitizer mode: every state change is checked against the
        #: MESI legality table and the touched line is SWMR-checked.
        self.debug: bool = debug

    @property
    def num_caches(self) -> int:
        return len(self.caches)

    # -- the two coherent operations ------------------------------------
    def read(self, cache_idx: int, line: int) -> bool:
        """Coherent read of *line* by cache *cache_idx*; True if cache hit."""
        self._check_idx(cache_idx)
        self.stats.read_requests += 1
        sharers = self._directory.setdefault(line, {})
        state = sharers.get(cache_idx, MESIState.INVALID)
        if state is not MESIState.INVALID:
            if self.debug:
                self._check_transition("local_read", line, state, state)
                self._check_line_swmr(line)
            self.caches[cache_idx].access(line, is_write=False)
            return True

        # Miss: probe peers. A peer in M must supply the data
        # (intervention) and drop to S; peers in E drop to S.
        probed = (
            self.num_caches - 1
            if self.broadcast
            else sum(1 for i in sharers if i != cache_idx)
        )
        self.stats.probes_sent += probed
        for i, st in list(sharers.items()):
            if i == cache_idx:
                continue
            if st is MESIState.MODIFIED:
                self.stats.interventions += 1
                if self.debug:
                    self._check_transition("peer_read", line, st,
                                           MESIState.SHARED)
                sharers[i] = MESIState.SHARED
            elif st is MESIState.EXCLUSIVE:
                if self.debug:
                    self._check_transition("peer_read", line, st,
                                           MESIState.SHARED)
                sharers[i] = MESIState.SHARED
            elif self.debug:
                # a probed peer must hold a real copy; a directory entry
                # in I (or worse) is corruption the table rejects
                self._check_transition("peer_read", line, st, st)
        newstate = (
            MESIState.SHARED
            if any(i != cache_idx for i in sharers)
            else MESIState.EXCLUSIVE
        )
        if self.debug:
            self._check_transition("local_read", line, state, newstate)
        sharers[cache_idx] = newstate
        self._install(cache_idx, line, is_write=False)
        if self.debug:
            self._check_line_swmr(line)
        return False

    def write(self, cache_idx: int, line: int) -> bool:
        """Coherent write of *line* by cache *cache_idx*; True if it
        already held the line in M/E (silent upgrade)."""
        self._check_idx(cache_idx)
        self.stats.write_requests += 1
        sharers = self._directory.setdefault(line, {})
        state = sharers.get(cache_idx, MESIState.INVALID)
        if state in (MESIState.MODIFIED, MESIState.EXCLUSIVE):
            if self.debug:
                self._check_transition("local_write", line, state,
                                       MESIState.MODIFIED)
            sharers[cache_idx] = MESIState.MODIFIED
            if self.debug:
                self._check_line_swmr(line)
            self.caches[cache_idx].access(line, is_write=True)
            return True

        # Upgrade or write-miss: invalidate every other copy.
        probed = (
            self.num_caches - 1
            if self.broadcast
            else sum(1 for i in sharers if i != cache_idx)
        )
        self.stats.probes_sent += probed
        for i, st in list(sharers.items()):
            if i == cache_idx:
                continue
            if st is MESIState.MODIFIED:
                self.stats.interventions += 1
            self.stats.invalidations += 1
            if self.debug:
                self._check_transition("peer_write", line, st,
                                       MESIState.INVALID)
            if self.caches[i].contains(line):
                self.caches[i].invalidate(line)
            del sharers[i]
        hit = state is MESIState.SHARED
        if self.debug:
            self._check_transition("local_write", line, state,
                                   MESIState.MODIFIED)
        sharers[cache_idx] = MESIState.MODIFIED
        self._install(cache_idx, line, is_write=True)
        if self.debug:
            self._check_line_swmr(line)
        return hit

    # -- grouped span operations -------------------------------------------
    def read_span(self, cache_idx: int, first_line: int, count: int) -> SpanResult:
        """Coherent read of *count* consecutive lines by *cache_idx*.

        Semantically identical to *count* ascending :meth:`read` calls
        (same final directory/cache state, same stats), but a span that
        is cold in the whole domain is classified and installed in bulk.
        """
        return self._span(cache_idx, first_line, count, is_write=False)

    def write_span(self, cache_idx: int, first_line: int, count: int) -> SpanResult:
        """Coherent write of *count* consecutive lines by *cache_idx*;
        the grouped counterpart of ascending :meth:`write` calls."""
        return self._span(cache_idx, first_line, count, is_write=True)

    def _span(
        self, cache_idx: int, first_line: int, count: int, is_write: bool
    ) -> SpanResult:
        self._check_idx(cache_idx)
        if count <= 0:
            return SpanResult(0, 0, 0, [])
        directory = self._directory
        lines = range(first_line, first_line + count)
        if all(line not in directory for line in lines):
            # Cold span: no cache anywhere holds any of these lines, so
            # every line is a miss served from memory, probes fan out
            # only under broadcast, and the requester installs the whole
            # run in one span access.
            st = self.stats
            if is_write:
                st.write_requests += count
            else:
                st.read_requests += count
            if self.broadcast:
                st.probes_sent += (self.num_caches - 1) * count
            newstate = MESIState.MODIFIED if is_write else MESIState.EXCLUSIVE
            if self.debug:
                event = "local_write" if is_write else "local_read"
                for line in lines:
                    self._check_transition(
                        event, line, MESIState.INVALID, newstate
                    )
            result = self.caches[cache_idx].access_span(
                first_line, count, is_write
            )
            for line in lines:
                directory[line] = {cache_idx: newstate}
            # Drop victims after installing every span state: a span
            # line evicted by a later install within the same span must
            # end up absent, exactly as the scalar order leaves it.
            for victim in result.evicted_lines:
                sharers = directory.get(victim)
                if sharers is not None:
                    sharers.pop(cache_idx, None)
                    if not sharers:
                        del directory[victim]
            return SpanResult(0, count, 0, list(lines))
        # Warm span: replay through the scalar reference operations.
        op = self.write if is_write else self.read
        interventions0 = self.stats.interventions
        hits = 0
        fetch: list[int] = []
        for line in lines:
            before = self.stats.interventions
            if op(cache_idx, line):
                hits += 1
            elif self.stats.interventions == before:
                fetch.append(line)
        return SpanResult(
            hits=hits,
            misses=count - hits,
            interventions=self.stats.interventions - interventions0,
            fetch_lines=fetch,
        )

    # -- queries used by tests and the fast model -------------------------
    def state_of(self, cache_idx: int, line: int) -> MESIState:
        self._check_idx(cache_idx)
        return self._directory.get(line, {}).get(cache_idx, MESIState.INVALID)

    def sharers_of(self, line: int) -> list[int]:
        return sorted(self._directory.get(line, {}))

    def check_invariants(self) -> None:
        """SWMR: a line in M has exactly one holder; M never coexists
        with S/E. Raises :class:`CoherenceError` on violation."""
        for line, sharers in self._directory.items():
            states = list(sharers.values())
            if MESIState.MODIFIED in states and len(states) > 1:
                raise CoherenceError(
                    f"line {line:#x}: M coexists with other copies: {sharers}"
                )
            if states.count(MESIState.EXCLUSIVE) > 1:
                raise CoherenceError(
                    f"line {line:#x}: multiple E copies: {sharers}"
                )
            if MESIState.EXCLUSIVE in states and len(states) > 1:
                raise CoherenceError(
                    f"line {line:#x}: E coexists with other copies: {sharers}"
                )

    # -- internals ----------------------------------------------------------
    def _install(self, cache_idx: int, line: int, is_write: bool) -> None:
        """Install the line into the tag array, handling LRU eviction."""
        result = self.caches[cache_idx].access(line, is_write=is_write)
        if result.evicted is not None:
            sharers = self._directory.get(result.evicted)
            if sharers is not None:
                if self.debug and cache_idx in sharers:
                    self._check_transition(
                        "evict", result.evicted, sharers[cache_idx],
                        MESIState.INVALID,
                    )
                sharers.pop(cache_idx, None)
                if not sharers:
                    del self._directory[result.evicted]

    def _check_transition(
        self, event: str, line: int, old: MESIState, new: MESIState
    ) -> None:
        """Sanitizer: assert *old* -> *new* is legal for *event*."""
        allowed = _LEGAL_TRANSITIONS[event].get(old)
        if allowed is None or new not in allowed:
            raise SanitizeError(
                f"{self.name}: illegal MESI transition on {event}: "
                f"line {line:#x} {old.value} -> {new.value}"
            )

    def _check_line_swmr(self, line: int) -> None:
        """Sanitizer: single-writer/multiple-reader check for one line
        (the O(1) per-operation slice of :meth:`check_invariants`)."""
        sharers = self._directory.get(line)
        if not sharers or len(sharers) == 1:
            return
        states = list(sharers.values())
        if MESIState.MODIFIED in states or MESIState.EXCLUSIVE in states:
            raise SanitizeError(
                f"{self.name}: SWMR violated: line {line:#x} held as "
                f"{ {i: s.value for i, s in sharers.items()} }"
            )

    def _check_idx(self, idx: int) -> None:
        if not 0 <= idx < self.num_caches:
            raise CoherenceError(
                f"cache index {idx} outside domain of {self.num_caches}"
            )
