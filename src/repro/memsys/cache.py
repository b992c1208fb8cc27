"""Direct-mapped caches and the two-level per-processor hierarchy."""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional, Tuple, Union

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
    is exactly the paper's direct-mapped cache, and each set holds its
    one resident line directly (``None`` once emptied).  A set of a
    wider geometry keeps its lines in LRU order (index 0 = most
    recently used).
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._max_ways = geometry.ways
        # Bytes one way spans (sets x line size).  A line's set is keyed
        # by its address modulo the span -- set index x line size, so no
        # division -- and ``MemorySystem`` probes the L1 and L2 sets
        # inline with the same key.
        self._span = geometry.size_bytes // geometry.ways
        # The only residency structure: set key -> line (``None`` once
        # emptied), or -> LRU list of lines when ways > 1.  A lookup
        # probes the line's set and compares the tag.  Sets are
        # allocated lazily: large caches are mostly empty in short
        # simulations, and a fresh machine is built per run.  The dict
        # keeps the sets in the order they were first filled; an
        # emptied set keeps its key, so that order survives ``remove``
        # (``SpeculationEngine.commit`` walks ``resident_lines`` and
        # reports the first FAIL it meets).
        self._sets: Dict[int, Union[Optional[CacheLine], List[CacheLine]]] = {}

    def lookup(self, line_addr: int) -> Optional[CacheLine]:
        slot = self._sets.get(line_addr % self._span)
        if self._max_ways == 1:
            if slot is not None and slot.line_addr == line_addr:
                return slot
            return None
        if slot:
            for i, line in enumerate(slot):
                if line.line_addr == line_addr:
                    if i:  # LRU bump
                        del slot[i]
                        slot.insert(0, line)
                    return line
        return None

    def insert(self, line: CacheLine) -> Optional[CacheLine]:
        """Install ``line``; return the evicted victim, if any."""
        line_addr = line.line_addr
        key = line_addr % self._span
        sets = self._sets
        if self._max_ways == 1:
            # Direct-mapped: the set's one slot holds the victim, if any.
            victim = sets.get(key)
            sets[key] = line
            if victim is None or victim.line_addr == line_addr:
                return None
            return victim
        ways = sets.get(key)
        if ways is None:
            ways = sets[key] = []
        for i, resident in enumerate(ways):
            if resident.line_addr == line_addr:
                del ways[i]
                ways.insert(0, line)
                return None
        ways.insert(0, line)
        if len(ways) > self._max_ways:
            return ways.pop()  # LRU victim
        return None

    def remove(self, line_addr: int) -> Optional[CacheLine]:
        key = line_addr % self._span
        sets = self._sets
        slot = sets.get(key)
        if self._max_ways == 1:
            if slot is None or slot.line_addr != line_addr:
                return None
            sets[key] = None
            return slot
        if slot:
            for i, line in enumerate(slot):
                if line.line_addr == line_addr:
                    del slot[i]
                    return line
        return None

    def flush(self) -> List[CacheLine]:
        """Drop everything; return the dirty victims (for writeback)."""
        dirty = [line for line in self.resident_lines() if line.dirty]
        self._sets.clear()
        return dirty

    def resident_lines(self) -> Iterator[CacheLine]:
        """Every resident line: sets in first-fill order, each set's
        lines most recently used first."""
        if self._max_ways == 1:
            for line in self._sets.values():
                if line is not None:
                    yield line
        else:
            for ways in self._sets.values():
                yield from ways


class CacheHierarchy:
    """Inclusive L1 + L2 pair belonging to one processor.

    The L1 mirrors a subset of the L2; coherence state is kept
    consistent between the two (a write marks both levels DIRTY).  The
    directory tracks presence at the processor granularity, so an
    L1-only eviction is invisible outside this class.

    :class:`~repro.memsys.system.MemorySystem` installs lines itself: a
    fill puts one :class:`CacheLine` object in both levels, which keeps
    their state and access bits trivially coherent — a modeling
    convenience standing in for the real write-through of tag state
    between levels (paper §4.2).
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

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove a line at both levels; return it if it was present."""
        self.l1.remove(line_addr)
        return self.l2.remove(line_addr)

    def flush(self) -> List[CacheLine]:
        """Empty both levels; return dirty lines needing writeback."""
        self.l1.flush()
        return self.l2.flush()
