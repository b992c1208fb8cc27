"""Tests for the coherence protocol and its timing model."""

import copy
import dataclasses

import pytest

from repro.memsys.cache import HitLevel
from repro.params import CacheGeometry, small_test_params
from repro.sim.machine import Machine
from repro.types import DirState, LineState


@pytest.fixture
def m():
    machine = Machine(small_test_params(2), with_speculation=False)
    machine.space.allocate("A", 512, elem_bytes=8)
    return machine


def addr(m, i):
    return m.space.array("A").addr_of(i)


class TestLatencies:
    def test_l1_hit_costs_one_cycle(self, m):
        m.memsys.read(0, addr(m, 0), 0.0)
        res = m.memsys.read(0, addr(m, 0), 300.0)
        assert res.hit_level is HitLevel.L1 and res.total == 1

    def test_miss_latency_matches_table(self, m):
        res = m.memsys.read(0, addr(m, 0), 0.0)
        lat = m.params.latency
        assert res.total in (lat.local_mem, lat.remote_2hop)

    def test_remote_dirty_is_three_hop(self, m):
        a = addr(m, 0)
        m.memsys.write(0, a, 0.0)
        res = m.memsys.read(1, a, 1000.0)
        lat = m.params.latency
        # The dirty third party adds the forward cost on top of the base
        # (exact total depends on whether the home is local to p1).
        assert res.total >= lat.local_mem + lat.dirty_forward
        assert m.memsys.stats.remote_3hop == 1

    def test_l2_hit_after_l1_conflict(self, m):
        # Two lines conflicting in the tiny L1 but not in the L2.
        a0 = addr(m, 0)
        l1_lines = m.params.l1.num_lines
        a1 = addr(m, l1_lines * 8)  # 8 elements per line -> L1 conflict
        m.memsys.read(0, a0, 0.0)
        m.memsys.read(0, a1, 500.0)
        res = m.memsys.read(0, a0, 1000.0)
        assert res.hit_level is HitLevel.L2
        assert res.total == m.params.latency.l2_hit


class TestCoherence:
    def test_write_invalidates_sharers(self, m):
        a = addr(m, 0)
        m.memsys.read(0, a, 0.0)
        m.memsys.read(1, a, 100.0)
        m.memsys.write(0, a, 200.0)
        # Proc 1 lost its copy.
        level, _ = m.memsys.caches[1].probe(m.space.line_addr(a))
        assert level is HitLevel.MEMORY
        assert m.memsys.stats.invalidations == 1

    def test_read_downgrades_dirty_owner(self, m):
        a = addr(m, 0)
        m.memsys.write(0, a, 0.0)
        m.memsys.read(1, a, 500.0)
        _, line = m.memsys.caches[0].probe(m.space.line_addr(a))
        assert line is not None and line.state is LineState.CLEAN
        entry = m.memsys.home_of(m.space.line_addr(a)).entry(m.space.line_addr(a))
        assert entry.state is DirState.SHARED
        assert entry.sharers == {0, 1}

    def test_write_after_write_transfers_ownership(self, m):
        a = addr(m, 0)
        m.memsys.write(0, a, 0.0)
        m.memsys.write(1, a, 500.0)
        line_addr = m.space.line_addr(a)
        assert m.memsys.caches[0].probe(line_addr)[1] is None
        entry = m.memsys.home_of(line_addr).entry(line_addr)
        assert entry.state is DirState.DIRTY and entry.owner == 1

    def test_upgrade_on_clean_hit(self, m):
        a = addr(m, 0)
        m.memsys.read(0, a, 0.0)
        res = m.memsys.write(0, a, 300.0)
        _, line = m.memsys.caches[0].probe(m.space.line_addr(a))
        assert line.state is LineState.DIRTY
        assert res.issue_cycles == 1

    def test_dirty_write_hit_is_local(self, m):
        a = addr(m, 0)
        m.memsys.write(0, a, 0.0)
        res = m.memsys.write(0, a, 500.0)
        assert res.total <= m.params.latency.l2_hit


class TestWriteBuffer:
    def test_read_after_write_same_line_stalls(self, m):
        a = addr(m, 0)
        m.memsys.write(0, a, 0.0)  # completion some time later
        res = m.memsys.read(0, a, 1.0)
        assert res.stall_cycles > 0

    def test_buffer_capacity_stall(self, m):
        cap = m.params.write_buffer_entries
        line_bytes = m.params.line_bytes
        t = 0.0
        stalls = []
        for i in range(cap + 2):
            res = m.memsys.write(0, addr(m, i * (line_bytes // 8)), t)
            stalls.append(res.stall_cycles)
            t += 2
        assert stalls[-1] > 0  # buffer filled up

    def test_drain_time(self, m):
        m.memsys.write(0, addr(m, 0), 0.0)
        assert m.memsys.drain_write_buffer(0, 1.0) > 0
        assert m.memsys.drain_write_buffer(0, 100000.0) == 0


class TestContention:
    def test_queueing_under_contention(self):
        machine = Machine(small_test_params(4), with_speculation=False)
        machine.space.allocate("A", 4096, elem_bytes=8)
        a = machine.space.array("A")
        # Many processors hammer lines homed at the same node at once
        # (elements 0/8/16/24 are distinct lines of one 256-byte page).
        base = machine.memsys.read(0, a.addr_of(0), 0.0).total
        for p in range(1, 4):
            machine.memsys.read(p, a.addr_of(p * 8), 0.0)
        res = machine.memsys.read(0, a.addr_of(16), 0.5)
        assert machine.space.home_node(a.addr_of(0)) == machine.space.home_node(
            a.addr_of(16)
        )
        assert res.total > base

    def test_contention_disable(self):
        params = small_test_params(2)
        params = dataclasses.replace(
            params, contention=dataclasses.replace(params.contention, enabled=False)
        )
        machine = Machine(params, with_speculation=False)
        machine.space.allocate("A", 64, elem_bytes=8)
        a = machine.space.array("A")
        r1 = machine.memsys.read(0, a.addr_of(0), 0.0)
        r2 = machine.memsys.read(1, a.addr_of(8), 0.0)
        lat = machine.params.latency
        assert r1.total in (lat.local_mem, lat.remote_2hop)
        assert r2.total in (lat.local_mem, lat.remote_2hop)


class TestFlush:
    def test_flush_empties_everything(self, m):
        a = addr(m, 0)
        m.memsys.write(0, a, 0.0)
        m.memsys.flush_caches()
        assert m.memsys.caches[0].probe(m.space.line_addr(a))[1] is None
        res = m.memsys.read(0, a, 10.0)
        assert res.hit_level is HitLevel.MEMORY


def _install(hierarchy, line):
    """A fetch's install into both levels: the L2 victim leaves the L1
    too (inclusion) before the line takes its L1 slot."""
    victim = hierarchy.l2.insert(line)
    if victim is not None:
        hierarchy.l1.remove(victim.line_addr)
    hierarchy.l1.insert(line)


def _layout(cache):
    """Resident lines of one cache level, set by set in LRU order."""
    return [(line.line_addr, line.state) for line in cache.resident_lines()]


class TestDowngradeInPlace:
    """A 3-hop read downgrades the dirty owner's line in place.  The
    owner's caches must end exactly as invalidating the line and
    refilling it CLEAN leaves them."""

    @pytest.fixture
    def m2way(self):
        params = dataclasses.replace(
            small_test_params(2),
            l1=CacheGeometry(1024, 64, ways=2),
            l2=CacheGeometry(4096, 64, ways=2),
        )
        machine = Machine(params, with_speculation=False)
        machine.space.allocate("A", 512, elem_bytes=8)
        return machine

    def _check(self, m, owner_lines_in_l1):
        line_addr = m.space.line_addr(addr(m, 0))
        owner = m.memsys.caches[0]
        in_l1 = line_addr in {line.line_addr for line in owner.l1.resident_lines()}
        assert in_l1 is owner_lines_in_l1
        expected = copy.deepcopy(owner)
        line = expected.invalidate(line_addr)
        line.state = LineState.CLEAN
        _install(expected, line)
        writebacks = m.memsys.stats.writebacks
        m.memsys.read(1, addr(m, 0), 1000.0)
        assert m.memsys.stats.writebacks == writebacks + 1  # recalled
        assert _layout(owner.l1) == _layout(expected.l1)
        assert _layout(owner.l2) == _layout(expected.l2)

    def test_line_in_l1_and_l2(self, m2way):
        # Lines 0 and 32 share an L1 set and an L2 set; line 0 is LRU
        # in both when proc 1 reads it.
        m2way.memsys.write(0, addr(m2way, 0), 0.0)
        m2way.memsys.read(0, addr(m2way, 32 * 8), 100.0)
        self._check(m2way, owner_lines_in_l1=True)

    def test_line_in_l2_only(self, m2way):
        # Line 8 shares line 0's L1 set but not its L2 set: reading it
        # pushes line 0 out of the L1 only, and the downgrade's L1
        # insert then displaces line 32 from the L1.
        m2way.memsys.write(0, addr(m2way, 0), 0.0)
        m2way.memsys.read(0, addr(m2way, 32 * 8), 100.0)
        m2way.memsys.read(0, addr(m2way, 8 * 8), 200.0)
        self._check(m2way, owner_lines_in_l1=False)


READERS = (0, 3, 7, 17, 31)


class TestSharerMask:
    """The directory's presence bit vector at 32 processors."""

    @pytest.fixture
    def m32(self):
        machine = Machine(small_test_params(32), with_speculation=False)
        machine.space.allocate("A", 512, elem_bytes=8)
        return machine

    def _entry(self, m):
        line_addr = m.space.line_addr(addr(m, 0))
        return m.memsys.home_of(line_addr).entry(line_addr)

    def _holds(self, m, proc):
        return m.memsys.caches[proc].probe(m.space.line_addr(addr(m, 0)))[1]

    def _share(self, m):
        for i, proc in enumerate(READERS):
            m.memsys.read(proc, addr(m, 0), 100.0 * i)
        entry = self._entry(m)
        assert entry.state is DirState.SHARED
        assert entry.sharer_mask == sum(1 << p for p in READERS)
        assert entry.sharers == set(READERS)
        return entry

    def _check_exclusive(self, m, writer, invalidated):
        entry = self._entry(m)
        assert m.memsys.stats.invalidations == invalidated
        assert entry.state is DirState.DIRTY and entry.owner == writer
        assert entry.sharer_mask == 0 and entry.sharers == set()
        assert self._holds(m, writer).state is LineState.DIRTY
        assert [p for p in READERS if p != writer and self._holds(m, p)] == []

    def test_write_fetch_invalidates_every_sharer(self, m32):
        self._share(m32)
        assert m32.memsys.write(5, addr(m32, 0), 1000.0).hit_level is HitLevel.MEMORY
        self._check_exclusive(m32, 5, invalidated=len(READERS))

    def test_write_fetch_leaves_out_the_requester(self, m32):
        # Proc 17's presence bit is still set when it misses: its copy
        # was dropped without a replacement hint.
        self._share(m32)
        m32.memsys.caches[17].invalidate(m32.space.line_addr(addr(m32, 0)))
        assert m32.memsys.write(17, addr(m32, 0), 1000.0).hit_level is HitLevel.MEMORY
        self._check_exclusive(m32, 17, invalidated=len(READERS) - 1)

    def test_upgrade_invalidates_the_other_sharers(self, m32):
        self._share(m32)
        assert m32.memsys.write(17, addr(m32, 0), 1000.0).hit_level is HitLevel.L1
        self._check_exclusive(m32, 17, invalidated=len(READERS) - 1)

    def test_read_downgrade_leaves_owner_and_reader(self, m32):
        m32.memsys.write(31, addr(m32, 0), 0.0)
        m32.memsys.read(2, addr(m32, 0), 1000.0)
        entry = self._entry(m32)
        assert entry.state is DirState.SHARED and entry.owner is None
        assert entry.sharer_mask == (1 << 31) | (1 << 2)
        assert entry.sharers == {2, 31}
