"""Direct-mapped caches and the two-level per-processor hierarchy."""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, Iterator, List, Optional, Tuple

from ..params import CacheGeometry
from ..types import LineState
from .line import CacheLine


class HitLevel(enum.Enum):
    """Where an access was satisfied."""

    L1 = "l1"
    L2 = "l2"
    MEMORY = "memory"


class DirectMappedCache:
    """A set-associative cache indexed by line address (LRU per set).

    The name is historical: with the default ``ways=1`` geometry this
    is exactly the paper's direct-mapped cache.  Each set keeps its
    lines in LRU order (index 0 = most recently used).
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        # Geometry-derived constants, hoisted out of the per-access path
        # (the dataclass properties recompute on every call).
        self._line_bytes = geometry.line_bytes
        self._num_sets = geometry.num_sets
        self._max_ways = geometry.ways
        # Sets are allocated lazily: large caches are mostly empty in
        # short simulations, and a fresh machine is built per run.
        self._sets: Dict[int, List[CacheLine]] = {}
        # Flat residency index (line address -> line).  The per-set LRU
        # lists stay authoritative for replacement; this dict makes the
        # lookup path — the simulator's single hottest operation — one
        # dictionary probe instead of a set scan.  It is cleared in
        # place, never rebound, so the bound probe below stays valid.
        self._where: Dict[int, CacheLine] = {}
        if self._max_ways == 1:
            # Direct-mapped (the paper's geometry): no LRU order to bump,
            # so a lookup is the bare residency probe.
            self.lookup = self._where.get  # type: ignore[method-assign]

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        line = self._where.get(line_addr)
        if line is not None:
            # LRU bump (set-associative geometries only: a direct-mapped
            # cache replaces this method with the bare probe).
            ways = self._sets[(line_addr // self._line_bytes) % self._num_sets]
            if ways[0] is not line:
                ways.remove(line)
                ways.insert(0, line)
        return line

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        """Install ``line``; return the evicted victim, if any."""
        line_addr = line.line_addr
        index = (line_addr // self._line_bytes) % self._num_sets
        ways = self._sets.get(index)
        if self._max_ways == 1:
            # Direct-mapped: the set's one slot holds the victim, if any.
            where = self._where
            where[line_addr] = line
            if not ways:
                self._sets[index] = [line]
                return None
            victim = ways[0]
            ways[0] = line
            if victim.line_addr == line_addr:
                return None
            del where[victim.line_addr]
            return victim
        if ways is None:
            ways = []
            self._sets[index] = ways
        resident = self._where.get(line_addr)
        if resident is not None:
            ways.remove(resident)
            ways.insert(0, line)
            self._where[line_addr] = line
            return None
        ways.insert(0, line)
        self._where[line_addr] = line
        if len(ways) > self._max_ways:
            victim = ways.pop()  # LRU victim
            del self._where[victim.line_addr]
            return victim
        return None

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        line = self._where.pop(line_addr, None)
        if line is None:
            return None
        self._sets[(line_addr // self._line_bytes) % self._num_sets].remove(line)
        return line

    def flush(self) -> List[CacheLine]:
        """Drop everything; return the dirty victims (for writeback)."""
        dirty = [
            line for ways in self._sets.values() for line in ways if line.dirty
        ]
        self._sets = {}
        self._where.clear()
        return dirty

    def resident_lines(self) -> Iterator[CacheLine]:
        for ways in self._sets.values():
            for line in ways:
                yield line


@dataclasses.dataclass(slots=True)
class FillResult:
    """Outcome of installing a line into the hierarchy."""

    line: CacheLine
    # Dirty line pushed out of the L2 (must be written back to its home).
    writeback: Optional[CacheLine] = None
    # Clean line silently dropped from the L2 (replacement hint).
    dropped: Optional[CacheLine] = None


class CacheHierarchy:
    """Inclusive L1 + L2 pair belonging to one processor.

    The L1 mirrors a subset of the L2; coherence state is kept
    consistent between the two (a write marks both levels DIRTY).  The
    directory tracks presence at the processor granularity, so an
    L1-only eviction is invisible outside this class.
    """

    def __init__(self, l1_geometry: CacheGeometry, l2_geometry: CacheGeometry) -> None:
        self.l1 = DirectMappedCache(l1_geometry)
        self.l2 = DirectMappedCache(l2_geometry)

    # ------------------------------------------------------------------
    def probe(self, line_addr: int) -> Tuple[HitLevel, Optional[CacheLine]]:
        """Find a line without changing any state."""
        line = self.l1.lookup(line_addr)
        if line is not None:
            return HitLevel.L1, line
        line = self.l2.lookup(line_addr)
        if line is not None:
            return HitLevel.L2, line
        return HitLevel.MEMORY, None

    def promote_to_l1(self, line: CacheLine) -> None:
        """After an L2 hit, install the (shared) line object in the L1.

        The same :class:`CacheLine` object lives in both levels, which
        keeps their state and access bits trivially coherent — a
        modeling convenience standing in for the real write-through of
        tag state between levels (paper §4.2).
        """
        victim = self.l1.insert(line)
        # Inclusive: the victim still lives in the L2 (same object), so
        # nothing else to do even if it was dirty.
        del victim

    def fill(self, line: CacheLine) -> FillResult:
        """Install a freshly fetched line in both levels."""
        result = FillResult(line=line)
        l2_victim = self.l2.insert(line)
        if l2_victim is not None:
            # Inclusion: purge from L1 as well.
            self.l1.remove(l2_victim.line_addr)
            if l2_victim.dirty:
                result.writeback = l2_victim
            else:
                result.dropped = l2_victim
        self.l1.insert(line)
        return result

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove a line at both levels; return it if it was present."""
        self.l1.remove(line_addr)
        return self.l2.remove(line_addr)

    def flush(self) -> List[CacheLine]:
        """Empty both levels; return dirty lines needing writeback."""
        self.l1.flush()
        return self.l2.flush()
