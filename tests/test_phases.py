"""Tests for the bulk phase op-stream builders."""

from repro.runtime.phases import (
    copy_ops,
    gather_line_starts,
    merge_analysis_ops,
    segment_of,
    sparse_copy_ops,
    zero_ops,
)
from repro.trace.ops import AccessOp, ComputeOp


class TestSegments:
    def test_even(self):
        segs = [segment_of(100, p, 4) for p in range(4)]
        assert segs == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_remainder(self):
        segs = [segment_of(10, p, 4) for p in range(4)]
        assert segs == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_covers_everything(self):
        marks = set()
        for p in range(7):
            lo, hi = segment_of(23, p, 7)
            marks.update(range(lo, hi))
        assert marks == set(range(23))


def line_indices(start, end, elems_per_line):
    """(first element, count) per cache line covering [start, end), as
    the bulk builders walk them: one write and one element-count compute
    op per line from ``zero_ops``."""
    ops = list(zero_ops("S", start, end, elems_per_line, 1))
    assert len(ops) % 2 == 0
    return [(w.index, c.cycles) for w, c in zip(ops[::2], ops[1::2])]


class TestLineIndices:
    def test_aligned(self):
        assert line_indices(0, 16, 8) == [(0, 8), (8, 8)]

    def test_unaligned_start(self):
        assert line_indices(3, 16, 8) == [(3, 5), (8, 8)]

    def test_partial_tail(self):
        assert line_indices(0, 10, 8) == [(0, 8), (8, 2)]

    def test_empty(self):
        assert line_indices(5, 5, 8) == []
        assert line_indices(9, 5, 8) == []

    def test_one_line_inside(self):
        assert line_indices(2, 5, 8) == [(2, 3)]

    def test_builders_walk_the_same_lines(self):
        """Every range builder starts each line at the same element and
        charges the same cycles; full lines share one compute op."""
        for start, end in ((0, 16), (3, 16), (0, 10), (3, 5), (7, 25)):
            want = line_indices(start, end, 8)
            copy = list(copy_ops("A", "B", start, end, 8, 1))
            assert [(r.index, c.cycles) for r, c in zip(copy[::3], copy[2::3])] == want
            assert [w.index for w in copy[1::3]] == [f for f, _ in want]
            merge = list(merge_analysis_ops(["P0", "P1"], ["G"], start, end, 8, 1))
            assert [(a.index, c.cycles) for a, c in zip(merge[::4], merge[3::4])] == want
        full = [o for o in zero_ops("S", 0, 32, 8, 2) if isinstance(o, ComputeOp)]
        assert len(full) == 4 and all(o is full[0] for o in full)

    def test_no_compute_without_per_element_cycles(self):
        ops = list(copy_ops("A", "B", 3, 20, 8, 0))
        assert all(isinstance(o, AccessOp) for o in ops)
        assert [o.index for o in ops[::2]] == [3, 8, 16]


class TestCopyOps:
    def test_one_access_pair_per_line(self):
        ops = list(copy_ops("A", "B", 0, 16, 8, per_element_cycles=2))
        accesses = [o for o in ops if isinstance(o, AccessOp)]
        assert len(accesses) == 4  # 2 lines x (read + write)
        reads = [o for o in accesses if o.is_read]
        assert all(o.array == "A" for o in reads)

    def test_compute_proportional_to_elements(self):
        ops = list(copy_ops("A", "B", 0, 10, 8, per_element_cycles=3))
        total = sum(o.cycles for o in ops if isinstance(o, ComputeOp))
        assert total == 30


class TestZeroAndSparse:
    def test_zero_ops_write_only(self):
        ops = list(zero_ops("S", 0, 16, 8, 1))
        accesses = [o for o in ops if isinstance(o, AccessOp)]
        assert all(o.is_write for o in accesses)
        assert len(accesses) == 2

    def test_gather_line_starts(self):
        assert gather_line_starts([0, 1, 9, 17], 8) == [0, 8, 16]

    def test_sparse_copy_dedups_lines(self):
        ops = list(sparse_copy_ops("A", "B", [0, 1, 2, 3], 8, 1))
        accesses = [o for o in ops if isinstance(o, AccessOp)]
        assert len(accesses) == 2  # one line -> read+write


class TestMergeAnalysis:
    def test_reads_every_private_copy(self):
        ops = list(
            merge_analysis_ops(
                ["A#Ar@p0", "A#Ar@p1"], ["A#Ar"], 0, 8, 8, 1
            )
        )
        reads = [o for o in ops if isinstance(o, AccessOp) and o.is_read]
        writes = [o for o in ops if isinstance(o, AccessOp) and o.is_write]
        assert {o.array for o in reads} == {"A#Ar@p0", "A#Ar@p1"}
        assert {o.array for o in writes} == {"A#Ar"}
