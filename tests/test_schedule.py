"""Tests for the iteration schedulers."""

import pytest

from repro.errors import SchedulingError
from repro.runtime.schedule import (
    Block,
    ChunkQueue,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    cyclic_blocks,
    plan_static,
    static_chunks,
    virtual_of,
)


class TestStaticChunks:
    def test_even_split(self):
        blocks = static_chunks(8, 4)
        assert [(b.first, b.last) for b in blocks] == [
            (1, 2), (3, 4), (5, 6), (7, 8),
        ]

    def test_remainder_goes_to_early_processors(self):
        blocks = static_chunks(10, 4)
        assert [len(b) for b in blocks] == [3, 3, 2, 2]
        assert blocks[0].first == 1 and blocks[-1].last == 10

    def test_fewer_iterations_than_processors(self):
        blocks = static_chunks(2, 4)
        assert len(blocks) == 2
        assert all(len(b) == 1 for b in blocks)

    def test_coverage_is_exact(self):
        blocks = static_chunks(17, 5)
        seen = sorted(i for b in blocks for i in b.iterations())
        assert seen == list(range(1, 18))


class TestCyclicBlocks:
    def test_block_boundaries(self):
        blocks = cyclic_blocks(10, 4)
        assert [(b.first, b.last) for b in blocks] == [(1, 4), (5, 8), (9, 10)]
        assert [b.ordinal for b in blocks] == [1, 2, 3]

    def test_single_iteration_blocks(self):
        blocks = cyclic_blocks(3, 1)
        assert len(blocks) == 3


class TestChunkQueue:
    def test_pop_in_order(self):
        q = ChunkQueue(cyclic_blocks(8, 2))
        firsts = [q.pop(p).first for p in (1, 0, 1, 0)]
        assert firsts == [1, 3, 5, 7]
        assert q.pop(0) is None

    def test_grab_log(self):
        q = ChunkQueue(cyclic_blocks(4, 2))
        q.pop(1)
        q.pop(0)
        assert q.grab_log == [(1, 1), (2, 0)]

    def test_remaining(self):
        q = ChunkQueue(cyclic_blocks(4, 2))
        assert q.remaining == 2
        q.pop(0)
        assert q.remaining == 1


class TestVirtualNumbering:
    def test_iteration_mode(self):
        block = Block(5, 8, ordinal=2)
        assert virtual_of(block, 6, VirtualMode.ITERATION, proc=3) == 6

    def test_chunk_mode(self):
        block = Block(5, 8, ordinal=2)
        assert virtual_of(block, 6, VirtualMode.CHUNK, proc=3) == 2

    def test_processor_mode(self):
        block = Block(5, 8, ordinal=2)
        assert virtual_of(block, 6, VirtualMode.PROCESSOR, proc=3) == 4


class TestScheduleSpec:
    def test_processor_mode_requires_static(self):
        with pytest.raises(SchedulingError):
            ScheduleSpec(SchedulePolicy.DYNAMIC, 4, VirtualMode.PROCESSOR)

    def test_chunk_must_be_positive(self):
        with pytest.raises(SchedulingError):
            ScheduleSpec(SchedulePolicy.DYNAMIC, 0)

    @pytest.mark.parametrize("chunk", [2.0, True])
    def test_chunk_must_be_an_int(self, chunk):
        # A float chunk once built and then raised TypeError inside a
        # dynamic run.
        with pytest.raises(SchedulingError):
            ScheduleSpec(SchedulePolicy.DYNAMIC, chunk)

    def test_plan_static_block_cyclic_round_robin(self):
        spec = ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 2, VirtualMode.CHUNK)
        per_proc = plan_static(spec, 12, 3)
        assert [b.first for b in per_proc[0]] == [1, 7]
        assert [b.first for b in per_proc[1]] == [3, 9]
        assert [b.first for b in per_proc[2]] == [5, 11]

    def test_plan_static_rejects_dynamic(self):
        with pytest.raises(SchedulingError):
            plan_static(ScheduleSpec(SchedulePolicy.DYNAMIC), 8, 2)
