"""Per-node full-map directory with an occupancy-based contention model."""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..types import AccessKind, DirState

#: Legal directory state machine of the base coherence protocol, as the
#: access kinds allowed to drive each (prev -> new) transition.  An
#: empty set marks maintenance transitions (victim writeback, clean
#: drop) that no data request may produce.  Same-state "transitions"
#: are never emitted as events.  The invariant monitors
#: (``repro.obs.monitor``) check the ``DirTransitionEvent`` stream
#: against this table.
LEGAL_DIR_TRANSITIONS: Dict[Tuple[DirState, DirState], FrozenSet[AccessKind]] = {
    (DirState.UNCACHED, DirState.SHARED): frozenset({AccessKind.READ}),
    (DirState.UNCACHED, DirState.DIRTY): frozenset({AccessKind.WRITE}),
    (DirState.SHARED, DirState.DIRTY): frozenset({AccessKind.WRITE}),
    (DirState.DIRTY, DirState.SHARED): frozenset({AccessKind.READ}),
    (DirState.DIRTY, DirState.UNCACHED): frozenset(),
    (DirState.SHARED, DirState.UNCACHED): frozenset(),
}


def legal_transition(
    prev: DirState, new: DirState, kind: Optional[AccessKind] = None
) -> bool:
    """Whether ``prev -> new`` under request ``kind`` obeys the base
    protocol.  ``kind=None`` (maintenance traffic) is allowed on every
    legal edge."""
    kinds = LEGAL_DIR_TRANSITIONS.get((prev, new))
    if kinds is None:
        return False
    return kind is None or kind in kinds


def next_dir_state(prev: DirState, kind: AccessKind) -> DirState:
    """The directory state a data request of ``kind`` drives ``prev``
    to under the base protocol: reads end SHARED, writes end DIRTY.

    A pure transition function (no Directory instance, no occupancy)
    for external drivers such as the model checker
    (:mod:`repro.modelcheck`); it validates the move against
    :data:`LEGAL_DIR_TRANSITIONS` so an illegal request raises instead
    of silently producing an unreachable state.
    """
    new = DirState.SHARED if kind is AccessKind.READ else DirState.DIRTY
    if new is prev:
        return prev
    if not legal_transition(prev, new, kind):
        raise ValueError(f"illegal directory transition {prev} -> {new} on {kind}")
    return new


@dataclasses.dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one memory line.

    The sharers are a full-map presence bit vector: bit ``p`` of
    ``sharer_mask`` is set while processor ``p`` holds a CLEAN copy.
    """

    state: DirState = DirState.UNCACHED
    owner: Optional[int] = None
    sharer_mask: int = 0

    @property
    def sharers(self) -> Set[int]:
        """The processors whose presence bit is set (a fresh set)."""
        mask = self.sharer_mask
        return {p for p in range(mask.bit_length()) if mask >> p & 1}

    def reset(self) -> None:
        self.state = DirState.UNCACHED
        self.owner = None
        self.sharer_mask = 0


class Directory:
    """The directory (plus memory module) of one NUMA node.

    All transactions touching a line homed here serialize at this
    object, matching the paper's protocol argument ("all transactions
    directed to the same cache line are serialized in the corresponding
    directory").  Serialization is provided by the simulation engine's
    global time order; this class additionally models *occupancy*: each
    transaction holds the directory for a fixed window, and overlapping
    transactions queue, producing contention delay.
    """

    def __init__(self, node_id: int, occupancy_cycles: int, enabled: bool = True):
        self.node_id = node_id
        self.occupancy_cycles = occupancy_cycles
        self.contention_enabled = enabled
        self._entries: Dict[int, DirectoryEntry] = {}
        self._busy_until: float = 0
        # Statistics
        self.transactions = 0
        self.queueing_cycles = 0

    # ------------------------------------------------------------------
    def entry(self, line_addr: int) -> DirectoryEntry:
        ent = self._entries.get(line_addr)
        if ent is None:
            ent = DirectoryEntry()
            self._entries[line_addr] = ent
        return ent

    def peek(self, line_addr: int) -> Optional[DirectoryEntry]:
        return self._entries.get(line_addr)

    def known_lines(self) -> "List[int]":
        """Line addresses this directory has entries for (any state).
        Used by the differential conformance harness to snapshot the
        coherence end-state."""
        return list(self._entries.keys())

    # ------------------------------------------------------------------
    def occupy(self, arrival_time: float, cycles: "int | None" = None) -> int:
        """Reserve the directory for one transaction.

        Returns the queueing delay suffered (0 when the directory was
        idle at ``arrival_time``).  The transaction then holds the
        directory for ``cycles`` (default: the configured occupancy).
        """
        self.transactions += 1
        if not self.contention_enabled:
            return 0
        hold = self.occupancy_cycles if cycles is None else cycles
        if arrival_time >= self._busy_until:
            # Idle directory: no queueing, just reserve the window.
            self._busy_until = arrival_time + hold
            return 0
        start = self._busy_until
        delay = int(start - arrival_time)
        self._busy_until = start + hold
        self.queueing_cycles += delay
        return delay

    def reset_contention(self) -> None:
        self._busy_until = 0

    def reset_all(self) -> None:
        """Forget all sharing state (used when caches are flushed)."""
        self._entries.clear()
        self._busy_until = 0
