"""Tests for the direct-mapped caches and the two-level hierarchy."""

import copy
import random

import pytest

from repro.memsys.cache import DirectMappedCache, HitLevel
from repro.memsys.line import CacheLine
from repro.params import CacheGeometry, MachineParams
from repro.sim.machine import Machine
from repro.types import DirState, LineState


def line(addr, state=LineState.CLEAN):
    return CacheLine(addr, state)


class TestDirectMappedCache:
    def setup_method(self):
        self.cache = DirectMappedCache(CacheGeometry(256, 64))  # 4 lines

    def test_miss_then_hit(self):
        assert self.cache.lookup(0) is None
        self.cache.insert(line(0))
        assert self.cache.lookup(0) is not None

    def test_conflict_eviction(self):
        self.cache.insert(line(0))
        victim = self.cache.insert(line(256))  # maps to the same slot
        assert victim is not None and victim.line_addr == 0
        assert self.cache.lookup(0) is None
        assert self.cache.lookup(256) is not None

    def test_reinsert_same_line_no_victim(self):
        self.cache.insert(line(64))
        assert self.cache.insert(line(64)) is None

    def test_remove(self):
        self.cache.insert(line(128))
        removed = self.cache.remove(128)
        assert removed is not None
        assert self.cache.lookup(128) is None
        assert self.cache.remove(128) is None

    def test_flush_returns_dirty_only(self):
        self.cache.insert(line(0, LineState.DIRTY))
        self.cache.insert(line(64, LineState.CLEAN))
        dirty = self.cache.flush()
        assert [l.line_addr for l in dirty] == [0]
        assert self.cache.lookup(64) is None


class TestCacheHierarchy:
    """The two-level install path, driven through ``MemorySystem``
    accesses on a tiny geometry: a 2-line L1 over a 4-line L2, so line
    2 conflicts with line 0 in the L1 only and line 4 in both levels."""

    def setup_method(self):
        params = MachineParams(
            num_processors=2,
            l1=CacheGeometry(128, 64),
            l2=CacheGeometry(256, 64),
            page_bytes=256,
        )
        self.m = Machine(params, with_speculation=False)
        self.m.space.allocate("A", 64, elem_bytes=8)
        self.h = self.m.memsys.caches[0]

    def addr(self, line_no):
        return self.m.space.array("A").addr_of(8 * line_no)

    def read(self, line_no, now=0.0):
        return self.m.memsys.read(0, self.addr(line_no), now).hit_level

    def write(self, line_no, now=0.0):
        return self.m.memsys.write(0, self.addr(line_no), now).hit_level

    def entry(self, line_no):
        line_addr = self.addr(line_no)
        return self.m.memsys.home_of(line_addr).peek(line_addr)

    def test_fill_installs_both_levels(self):
        assert self.read(0) is HitLevel.MEMORY
        level, found = self.h.probe(self.addr(0))
        assert level is HitLevel.L1 and found is not None
        assert self.h.l2.lookup(self.addr(0)) is found

    def test_l2_hit_after_l1_conflict(self):
        self.read(0)
        self.read(2, 500.0)  # conflicts in the L1, not in the L2
        level, found = self.h.probe(self.addr(0))
        assert level is HitLevel.L2 and found is not None
        assert self.read(0, 1000.0) is HitLevel.L2

    def test_promote_to_l1(self):
        self.read(0)
        self.read(2, 500.0)
        assert self.read(0, 1000.0) is HitLevel.L2
        level, found = self.h.probe(self.addr(0))
        assert level is HitLevel.L1
        assert self.h.l2.lookup(self.addr(0)) is found
        assert self.read(0, 1500.0) is HitLevel.L1

    def test_shared_object_keeps_state_coherent(self):
        self.read(0)
        assert self.write(0, 500.0) is HitLevel.L1  # upgrade on an L1 hit
        assert self.h.l1.lookup(self.addr(0)).state is LineState.DIRTY
        assert self.h.l2.lookup(self.addr(0)).state is LineState.DIRTY

    def test_l2_eviction_purges_l1(self):
        self.write(0)
        self.read(4, 500.0)  # L2 conflict with line 0
        assert self.m.memsys.stats.writebacks == 1
        assert self.h.probe(self.addr(0)) == (HitLevel.MEMORY, None)
        entry = self.entry(0)
        assert entry.state is DirState.UNCACHED and entry.sharer_mask == 0

    def test_clean_eviction_reported_as_dropped(self):
        self.read(0)
        self.read(4, 500.0)
        assert self.m.memsys.stats.writebacks == 0
        assert self.h.probe(self.addr(0)) == (HitLevel.MEMORY, None)
        assert self.entry(0).sharer_mask == 0

    def test_invalidate(self):
        self.read(1)
        removed = self.h.invalidate(self.addr(1))
        assert removed is not None
        assert self.h.probe(self.addr(1)) == (HitLevel.MEMORY, None)

    def test_flush_returns_dirty(self):
        self.write(0)
        self.read(1, 500.0)
        dirty = self.h.flush()
        assert [l.line_addr for l in dirty] == [self.addr(0)]
        assert self.h.probe(self.addr(1)) == (HitLevel.MEMORY, None)


class TestSetAssociativity:
    def test_two_way_holds_conflicting_pair(self):
        # 2 sets of 2 ways: lines 0 and 256 map to set 0 but coexist.
        cache = DirectMappedCache(CacheGeometry(256, 64, ways=2))
        assert cache.insert(line(0)) is None
        assert cache.insert(line(128)) is None   # set 0 (2 sets)
        assert cache.lookup(0) is not None
        assert cache.lookup(128) is not None

    def test_lru_eviction_order(self):
        cache = DirectMappedCache(CacheGeometry(256, 64, ways=2))
        cache.insert(line(0))
        cache.insert(line(128))
        cache.lookup(0)  # bump 0 to MRU
        victim = cache.insert(line(256))  # same set, must evict LRU=128
        assert victim is not None and victim.line_addr == 128
        assert cache.lookup(0) is not None

    def test_fully_associative(self):
        geometry = CacheGeometry(256, 64, ways=4)  # one set
        cache = DirectMappedCache(geometry)
        for addr in (0, 64, 128, 192):
            assert cache.insert(line(addr)) is None
        assert cache.insert(line(256)) is not None  # evicts LRU

    def test_geometry_validation(self):
        import pytest
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CacheGeometry(256, 64, ways=3)  # 4 lines not divisible by 3
        with pytest.raises(ConfigurationError):
            CacheGeometry(256, 64, ways=0)

    def test_num_sets(self):
        assert CacheGeometry(512, 64, ways=2).num_sets == 4


class _ReferenceCache:
    """Set-associative LRU cache as plain per-set lists (MRU first).

    A set exists from its first insert on, in first-insert order, and
    keeps its (possibly empty) list until a flush: the order
    ``resident_lines`` and ``flush`` report lines in."""

    def __init__(self, geometry):
        self.line_bytes = geometry.line_bytes
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways
        self.sets = {}

    def _set(self, line_addr):
        return self.sets.get((line_addr // self.line_bytes) % self.num_sets, [])

    def lookup(self, line_addr):
        ways = self._set(line_addr)
        for line in ways:
            if line.line_addr == line_addr:
                ways.remove(line)
                ways.insert(0, line)
                return line
        return None

    def insert(self, line):
        index = (line.line_addr // self.line_bytes) % self.num_sets
        ways = self.sets.setdefault(index, [])
        for old in ways:
            if old.line_addr == line.line_addr:
                ways.remove(old)
                ways.insert(0, line)
                return None
        ways.insert(0, line)
        return ways.pop() if len(ways) > self.ways else None

    def remove(self, line_addr):
        ways = self._set(line_addr)
        for line in ways:
            if line.line_addr == line_addr:
                ways.remove(line)
                return line
        return None

    def flush(self):
        dirty = [l for l in self.resident() if l.dirty]
        self.sets = {}
        return dirty

    def resident(self):
        return [l for ways in self.sets.values() for l in ways]


@pytest.mark.parametrize("ways", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_cache_matches_reference_model(ways, seed):
    """Random insert/lookup/remove/flush traffic over 8 lines' worth of
    sets: the cache (direct-mapped fast path for ways=1) returns the
    same victims, hits and dirty flush lists as the reference model,
    and reports its resident lines in the same order (sets in
    first-fill order, kept across a remove and a refill of the same
    set)."""
    rng = random.Random(seed)
    geometry = CacheGeometry(8 * 64, 64, ways)
    cache = DirectMappedCache(geometry)
    ref = _ReferenceCache(geometry)
    addrs = [64 * i for i in range(32)]  # four lines per set slot
    refills = 0
    for _ in range(2000):
        op = rng.random()
        addr = rng.choice(addrs)
        if op < 0.45:
            state = rng.choice([LineState.CLEAN, LineState.DIRTY])
            new = line(addr, state)
            assert cache.insert(new) is ref.insert(new)
        elif op < 0.8:
            assert cache.lookup(addr) is ref.lookup(addr)
        elif op < 0.97:
            removed = ref.remove(addr)
            assert cache.remove(addr) is removed
            if removed is not None and rng.random() < 0.5:
                # Refill the emptied set with another of its lines.
                other = line(rng.choice(addrs[addr // 64 % 8::8]), removed.state)
                assert cache.insert(other) is ref.insert(other)
                refills += 1
        else:
            got = cache.flush()
            want = ref.flush()
            assert [l.line_addr for l in got] == [l.line_addr for l in want]
            assert all(g is w for g, w in zip(got, want))
        resident = list(cache.resident_lines())
        expected = ref.resident()
        assert [l.line_addr for l in resident] == [l.line_addr for l in expected]
        assert all(r is e for r, e in zip(resident, expected))
        # Residency as ``lookup`` answers it, for every address, probed
        # on a copy so the cache's LRU order stays untouched.
        held = {l.line_addr: l for l in expected}
        probe = copy.deepcopy(cache)
        for addr in addrs:
            found = probe.lookup(addr)
            want = held.get(addr)
            if want is None:
                assert found is None
            else:
                assert found.line_addr == addr and found.state is want.state
    assert refills > 0
