"""Tests for the non-privatization algorithm (Figures 4, 6, 7).

Accesses are driven directly through the memory system with the
speculation engine attached; deferred protocol messages ride the
machine's event heap and are delivered with :meth:`Engine.drain`.
"""

import dataclasses

import pytest

from repro.params import CacheGeometry, small_test_params
from repro.sim.machine import Machine
from repro.types import FirstState, ProtocolKind


def make(n=2, length=64):
    m = Machine(small_test_params(n))
    a = m.space.allocate("A", length, elem_bytes=8, protocol=ProtocolKind.NONPRIV)
    m.spec.register_nonpriv(a)
    m.spec.arm()
    return m, a


def run(m, trace):
    """trace: list of (time, proc, 'r'|'w', index)."""
    a = m.space.array("A")
    for t, p, kind, i in trace:
        if kind == "r":
            m.memsys.read(p, a.addr_of(i), t)
        else:
            m.memsys.write(p, a.addr_of(i), t)
    m.engine.drain()
    return m.spec.controller


class TestPassingPatterns:
    def test_single_processor_everything(self):
        m, _ = make()
        c = run(m, [(0, 0, "w", 1), (10, 0, "r", 1), (20, 0, "w", 1)])
        assert not c.failed

    def test_read_only_many_processors(self):
        m, _ = make(4)
        c = run(m, [(t * 100, p, "r", 7) for t, p in enumerate([0, 1, 2, 3, 0, 2])])
        assert not c.failed

    def test_disjoint_elements_same_line(self):
        m, _ = make()
        c = run(m, [(0, 0, "w", 0), (50, 1, "w", 1), (100, 0, "r", 0), (900, 1, "r", 1)])
        assert not c.failed

    def test_not_shared_partition(self):
        m, _ = make(2, 128)
        trace = []
        for i in range(8):
            trace.append((i * 50, 0, "w", i))
            trace.append((i * 50 + 10, 1, "w", 64 + i))
        c = run(m, trace)
        assert not c.failed


class TestFailingPatterns:
    def test_write_after_remote_read(self):
        m, _ = make()
        c = run(m, [(0, 1, "r", 5), (100, 0, "w", 5)])
        assert c.failed

    def test_read_after_remote_write(self):
        m, _ = make()
        c = run(m, [(0, 0, "w", 5), (100, 1, "r", 5)])
        assert c.failed

    def test_write_after_remote_write(self):
        m, _ = make()
        c = run(m, [(0, 0, "w", 5), (100, 1, "w", 5)])
        assert c.failed

    def test_write_to_read_only_element(self):
        m, _ = make(4)
        c = run(m, [(0, 1, "r", 5), (100, 2, "r", 5), (200, 1, "w", 5)])
        assert c.failed

    def test_failure_records_element_and_processor(self):
        m, _ = make()
        c = run(m, [(0, 0, "w", 9), (100, 1, "r", 9)])
        assert c.failure.element == ("A", 9)
        assert c.failure.processor == 1
        assert c.failure.detected_at >= 100


class TestDirectoryState:
    def test_ronly_set_after_two_readers(self):
        m, _ = make()
        run(m, [(0, 0, "r", 3), (100, 1, "r", 3)])
        table = m.spec.nonpriv.table("A")
        assert bool(table.ronly[3])

    def test_noshr_set_after_write(self):
        m, _ = make()
        run(m, [(0, 0, "w", 3)])
        # State is in the dirty line's tags; force it to the directory.
        m.memsys.flush_caches(merge_spec_state=True, now=100.0)
        table = m.spec.nonpriv.table("A")
        assert bool(table.priv[3]) and int(table.first[3]) == 0

    def test_first_tracks_first_toucher(self):
        m, _ = make()
        run(m, [(0, 1, "r", 3)])
        table = m.spec.nonpriv.table("A")
        assert int(table.first[3]) == 1


class TestWritebackMerge:
    def test_dirty_eviction_merges_state(self):
        # Small L1/L2 force conflict evictions of dirty lines.
        m, a = make(1, length=4096)
        l2_lines = m.params.l2.num_lines
        elems_per_line = 8
        conflict_stride = l2_lines * elems_per_line
        run(m, [(0, 0, "w", 0), (100, 0, "w", conflict_stride)])
        table = m.spec.nonpriv.table("A")
        assert bool(table.priv[0])  # merged on eviction

    def test_writeback_of_inherited_bits_is_benign(self):
        m, _ = make()
        # P0 writes e0; P1 writes e1 (recalls P0's line, inherits e0 bits
        # as OTHER/priv); P0 then writes e0 again (recalls P1's line).
        c = run(m, [(0, 0, "w", 0), (100, 1, "w", 1), (1000, 0, "w", 0)])
        assert not c.failed


class TestRaceTransactions:
    def test_first_update_race_sets_ronly(self):
        """Two processors read the same untouched element from cached
        lines; the loser's First_update bounces (Fig 6-(f)/(g))."""
        m, a = make()
        # Prime both caches with the line via reads of another element.
        run(m, [(0, 0, "r", 1), (10, 1, "r", 1)])
        assert not m.spec.controller.failed
        # Both read element 0 at (nearly) the same time: cache hits with
        # tag.First == NONE, two in-flight First_updates.
        m.memsys.read(0, a.addr_of(0), 1000.0)
        m.memsys.read(1, a.addr_of(0), 1000.5)
        m.engine.drain()
        assert not m.spec.controller.failed
        table = m.spec.nonpriv.table("A")
        assert bool(table.ronly[0])

    def test_first_update_fail_keeps_set_associative_lru_order(self):
        """The loser's cache applies a First_update_fail to the line's
        tag without touching replacement state: on a 2-way L1 the raced
        line stays least recently used."""
        params = dataclasses.replace(
            small_test_params(2), l1=CacheGeometry(256, 64, ways=2)
        )
        m = Machine(params)
        a = m.space.allocate("A", 64, elem_bytes=8, protocol=ProtocolKind.NONPRIV)
        m.spec.register_nonpriv(a)
        m.spec.arm()
        run(m, [(0, 0, "r", 1), (10, 1, "r", 1)])
        m.memsys.read(0, a.addr_of(0), 1000.0)
        m.memsys.read(1, a.addr_of(0), 1000.5)
        # Element 16 is two lines on: same 2-way L1 set, another L2 set.
        # Reading it makes the raced line the set's LRU way.
        m.memsys.read(0, a.addr_of(16), 1001.0)
        m.memsys.read(1, a.addr_of(16), 1001.0)

        def l1_order():
            return [
                [line.line_addr for line in hier.l1.resident_lines()]
                for hier in m.memsys.caches
            ]

        before = l1_order()
        m.engine.drain()
        assert m.spec.stats.first_update_fails == 1
        assert l1_order() == before

    def test_stale_own_update_after_own_write_benign(self):
        """A processor's own First_update arriving after its own write
        request must not fail (in-order delivery assumption)."""
        m, a = make()
        run(m, [(0, 0, "r", 1)])  # line cached clean
        m.memsys.read(0, a.addr_of(0), 500.0)  # hit: First_update in flight
        m.memsys.write(0, a.addr_of(0), 501.0)  # upgrade processed inline
        m.engine.drain()
        assert not m.spec.controller.failed

    def test_read_then_write_racing_remote_first_update(self):
        """Fig 6-(g) FAIL: the slower processor read and wrote the
        element before learning it lost the First race."""
        m, a = make()
        # Both procs cache the line cleanly.
        run(m, [(0, 0, "r", 1), (10, 1, "r", 1)])
        # P1 reads e0 first (its update will win), P0 reads e0 just
        # after (update in flight), then P0 upgrades the line by writing
        # ANOTHER element, and writes e0 while still believing First=OWN.
        m.memsys.read(1, a.addr_of(0), 1000.0)
        m.memsys.read(0, a.addr_of(0), 1000.5)
        m.memsys.write(0, a.addr_of(2), 1001.0)
        m.memsys.write(0, a.addr_of(0), 1002.0)
        m.engine.drain()
        assert m.spec.controller.failed

    def test_dirty_write_racing_remote_first_update_fails_at_commit(self):
        """A write that stays tag-local on a dirty line while the
        remote reader's First_update is in flight escapes every
        directory check; the loop-end commit must catch it.

        Found by test_nonpriv_sound_under_races: P0 read-first of e1 on
        a clean cached line (First_update in flight), P1 takes the line
        DIRTY by writing e0 (dir still shows e1 untouched, so P1's tags
        inherit First=NONE), then P1's write of e1 is an L1 hit on the
        dirty line — local tag update only, no message.  The update
        then lands on a directory with priv unset: no FAIL anywhere.
        """
        m, a = make()
        run(m, [(0, 0, "r", 2)])  # P0 caches the line clean
        m.memsys.read(0, a.addr_of(1), 40.0)  # hit: First_update in flight
        m.memsys.write(1, a.addr_of(0), 80.0)  # P1 takes the line dirty
        m.memsys.write(1, a.addr_of(1), 120.0)  # dirty hit: tag-local
        m.engine.drain()
        assert not m.spec.controller.failed  # the hole: nothing fired
        m.spec.commit(m.engine.now)
        assert m.spec.controller.failed  # commit reveals the write
        failure = m.spec.controller.failure
        assert failure.element == ("A", 1)

    def test_commit_is_benign_on_clean_runs(self):
        m, a = make()
        run(m, [(0, 0, "r", 1), (10, 1, "r", 1), (20, 0, "w", 40)])
        m.spec.commit(m.engine.now)
        assert not m.spec.controller.failed
        # Idempotent: a second sweep changes nothing.
        m.spec.commit(m.engine.now)
        assert not m.spec.controller.failed


class TestArmDisarm:
    def test_not_armed_is_transparent(self):
        m, a = make()
        m.spec.disarm()
        m.memsys.write(0, a.addr_of(0), 0.0)
        m.memsys.read(1, a.addr_of(0), 100.0)
        m.engine.drain()
        assert not m.spec.controller.failed

    def test_rearm_clears_state(self):
        m, a = make()
        run(m, [(0, 0, "w", 5)])
        m.memsys.flush_caches()
        m.spec.arm()
        table = m.spec.nonpriv.table("A")
        assert not table.priv[5]
        c = run(m, [(10000, 1, "r", 5)])
        assert not c.failed


class TestPerLineBits:
    """The §4.1 per-line access-bit mode (space-saving ablation)."""

    def make_line_mode(self, n=2):
        m = Machine(small_test_params(n))
        a = m.space.allocate("A", 64, elem_bytes=8, protocol=ProtocolKind.NONPRIV)
        m.spec.register_nonpriv(a, per_line_bits=True)
        m.spec.arm()
        return m, a

    def test_false_sharing_fails_spuriously(self):
        m, a = self.make_line_mode()
        m.memsys.write(0, a.addr_of(0), 0.0)
        m.memsys.write(1, a.addr_of(1), 100.0)  # same line, other element
        m.engine.drain()
        assert m.spec.controller.failed

    def test_line_aligned_ownership_passes(self):
        m, a = self.make_line_mode()
        # Each processor owns whole lines (8 elements of 8 bytes).
        for k in range(8):
            m.memsys.write(0, a.addr_of(k), 10.0 * k)
            m.memsys.write(1, a.addr_of(8 + k), 10.0 * k + 5)
        m.engine.drain()
        assert not m.spec.controller.failed

    def test_real_dependence_still_detected(self):
        m, a = self.make_line_mode()
        m.memsys.write(0, a.addr_of(3), 0.0)
        m.memsys.read(1, a.addr_of(3), 500.0)
        m.engine.drain()
        assert m.spec.controller.failed

    def test_table_sized_per_line(self):
        m, a = self.make_line_mode()
        # 64 elements x 8 bytes = 512 bytes = 8 lines.
        assert m.spec.nonpriv.table("A").length == 8

    def test_read_only_line_sharing_passes(self):
        m, a = self.make_line_mode()
        m.memsys.read(0, a.addr_of(0), 0.0)
        m.memsys.read(1, a.addr_of(5), 100.0)
        m.engine.drain()
        assert not m.spec.controller.failed
