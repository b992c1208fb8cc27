"""Tests for the direct-mapped caches and the two-level hierarchy."""

import random

import pytest

from repro.memsys.cache import CacheHierarchy, DirectMappedCache, HitLevel
from repro.memsys.line import CacheLine
from repro.params import CacheGeometry
from repro.types import LineState


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
    def setup_method(self):
        self.h = CacheHierarchy(CacheGeometry(128, 64), CacheGeometry(256, 64))

    def test_fill_installs_both_levels(self):
        self.h.fill(line(0))
        level, found = self.h.probe(0)
        assert level is HitLevel.L1 and found is not None

    def test_l2_hit_after_l1_conflict(self):
        self.h.fill(line(0))
        self.h.fill(line(128))  # conflicts in L1 (2 lines), not L2 (4 lines)
        level, found = self.h.probe(0)
        assert level is HitLevel.L2

    def test_promote_to_l1(self):
        self.h.fill(line(0))
        self.h.fill(line(128))
        _, l2line = self.h.probe(0)
        self.h.promote_to_l1(l2line)
        level, _ = self.h.probe(0)
        assert level is HitLevel.L1

    def test_shared_object_keeps_state_coherent(self):
        self.h.fill(line(0))
        _, l1line = self.h.probe(0)
        l1line.state = LineState.DIRTY
        assert self.h.l2.lookup(0).state is LineState.DIRTY

    def test_l2_eviction_purges_l1(self):
        self.h.fill(line(0, LineState.DIRTY))
        result = self.h.fill(line(256))  # L2 conflict with 0
        assert result.writeback is not None
        assert result.writeback.line_addr == 0
        assert self.h.probe(0)[1] is None

    def test_clean_eviction_reported_as_dropped(self):
        self.h.fill(line(0, LineState.CLEAN))
        result = self.h.fill(line(256))
        assert result.dropped is not None and result.writeback is None

    def test_invalidate(self):
        self.h.fill(line(64))
        removed = self.h.invalidate(64)
        assert removed is not None
        assert self.h.probe(64) == (HitLevel.MEMORY, None)

    def test_flush_returns_dirty(self):
        self.h.fill(line(0, LineState.DIRTY))
        self.h.fill(line(64, LineState.CLEAN))
        dirty = self.h.flush()
        assert [l.line_addr for l in dirty] == [0]


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
    """Set-associative LRU cache as plain per-set lists (MRU first)."""

    def __init__(self, geometry):
        self.line_bytes = geometry.line_bytes
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways
        self.sets = {}

    def _set(self, line_addr):
        return self.sets.setdefault((line_addr // self.line_bytes) % self.num_sets, [])

    def lookup(self, line_addr):
        ways = self._set(line_addr)
        for line in ways:
            if line.line_addr == line_addr:
                ways.remove(line)
                ways.insert(0, line)
                return line
        return None

    def insert(self, line):
        ways = self._set(line.line_addr)
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
        dirty = [l for ways in self.sets.values() for l in ways if l.dirty]
        self.sets = {}
        return dirty

    def resident(self):
        return {l.line_addr: l for ways in self.sets.values() for l in ways}


@pytest.mark.parametrize("ways", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_cache_matches_reference_model(ways, seed):
    """Random insert/lookup/remove/flush traffic over 8 lines' worth of
    sets: the cache (direct-mapped fast path for ways=1) returns the
    same victims, hits and dirty flush lists as the reference model."""
    rng = random.Random(seed)
    geometry = CacheGeometry(8 * 64, 64, ways)
    cache = DirectMappedCache(geometry)
    ref = _ReferenceCache(geometry)
    addrs = [64 * i for i in range(32)]  # four lines per set slot
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
            assert cache.remove(addr) is ref.remove(addr)
        else:
            got = cache.flush()
            want = ref.flush()
            assert sorted(l.line_addr for l in got) == sorted(l.line_addr for l in want)
        resident = {l.line_addr: l for l in cache.resident_lines()}
        assert resident.keys() == ref.resident().keys()
        assert all(resident[a] is l for a, l in ref.resident().items())
        for addr in addrs:
            assert (cache._where.get(addr) is not None) == (addr in resident)
