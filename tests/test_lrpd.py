"""Unit tests for the software LRPD test (shadow marking + analysis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lrpd.analysis import analyze, analyze_array
from repro.lrpd.shadow import ArrayShadow, LRPDState


def dense(marks, length):
    """A sparse shadow map as the dense array it stands for (0 = unmarked)."""
    return [marks.get(i, 0) for i in range(length)]


class TestMarking:
    def test_markwrite_counts_once_per_iteration(self):
        s = ArrayShadow(8)
        s.markwrite(3, 1)
        s.markwrite(3, 1)
        s.markwrite(3, 2)
        assert s.atw == 2

    def test_markread_sets_ar_and_anp(self):
        s = ArrayShadow(8)
        s.markread(3, 1)
        assert int(s.ar[3]) == 1 and int(s.anp[3]) == 1

    def test_covered_read_not_marked(self):
        s = ArrayShadow(8)
        s.markwrite(3, 1)
        s.markread(3, 1)
        assert s.ar.get(3, 0) == 0 and s.anp.get(3, 0) == 0

    def test_write_after_read_clears_tentative_ar(self):
        s = ArrayShadow(8)
        s.markread(3, 2)
        s.markwrite(3, 2)
        assert s.ar.get(3, 0) == 0
        assert s.anp.get(3, 0) == 2  # read-before-write stays marked

    def test_older_ar_mark_survives_later_covered_iteration(self):
        # Regression: iteration 1 reads (uncovered); iteration 2 reads
        # then writes.  The iteration-1 evidence must survive.
        s = ArrayShadow(8)
        s.markread(3, 1)
        s.markread(3, 2)
        s.markwrite(3, 2)
        assert int(s.ar[3]) == 1

    def test_written_in_and_ever_written(self):
        s = ArrayShadow(8)
        assert not s.ever_written(3)
        s.markwrite(3, 4)
        assert s.written_in(3, 4) and not s.written_in(3, 5)
        assert s.ever_written(3)

    def test_clear(self):
        s = ArrayShadow(8)
        s.markwrite(1, 1)
        s.markread(2, 1)
        s.clear()
        assert s.atw == 0
        assert dense(s.aw, 8) == dense(s.ar, 8) == dense(s.anp, 8) == [0] * 8


class TestMerge:
    def test_merge_across_processors(self):
        state = LRPDState(2)
        state.register("A", 8, privatized=False)
        state.shadow("A", 0).markwrite(1, 1)
        state.shadow("A", 1).markread(1, 2)
        merged = state.merge("A")
        assert merged.aw[1] and merged.ar[1]
        assert merged.atw == 1 and merged.atm == 1

    def test_atw_sums_across_processors(self):
        state = LRPDState(2)
        state.register("A", 8, privatized=False)
        state.shadow("A", 0).markwrite(1, 1)
        state.shadow("A", 1).markwrite(1, 2)
        merged = state.merge("A")
        assert merged.atw == 2 and merged.atm == 1


class TestAnalysis:
    def test_doall_pass(self):
        state = LRPDState(1)
        state.register("A", 8, privatized=False)
        for i in range(4):
            state.shadow("A", 0).markwrite(i, i + 1)
        outcome = analyze(state)
        assert outcome.passed
        assert outcome.arrays["A"].decided_by == "doall"

    def test_aw_and_ar_fail(self):
        state = LRPDState(1)
        state.register("A", 8, privatized=True)
        state.shadow("A", 0).markwrite(0, 1)
        state.shadow("A", 0).markread(0, 2)
        outcome = analyze(state)
        assert not outcome.passed
        assert outcome.arrays["A"].decided_by == "aw-and-ar"
        assert outcome.failed_array == "A"

    def test_privatized_pass(self):
        state = LRPDState(1)
        state.register("A", 8, privatized=True)
        for it in (1, 2):
            state.shadow("A", 0).markwrite(0, it)
            state.shadow("A", 0).markread(0, it)
        outcome = analyze(state)
        assert outcome.passed
        assert outcome.arrays["A"].decided_by == "privatized"

    def test_multiple_writers_without_privatization_fail(self):
        state = LRPDState(1)
        state.register("A", 8, privatized=False)
        state.shadow("A", 0).markwrite(0, 1)
        state.shadow("A", 0).markwrite(0, 2)
        outcome = analyze(state)
        assert not outcome.passed
        assert outcome.arrays["A"].decided_by == "not-privatizable"

    def test_anp_blocks_privatization(self):
        state = LRPDState(1)
        state.register("A", 8, privatized=True)
        # Read before write within iteration 1; write again in iter 2.
        state.shadow("A", 0).markread(0, 1)
        state.shadow("A", 0).markwrite(0, 1)
        state.shadow("A", 0).markwrite(0, 2)
        outcome = analyze(state)
        assert not outcome.passed
        assert outcome.arrays["A"].decided_by == "not-privatizable"

    def test_paper_figure_2_example(self):
        """The worked example of Figure 2: K = [1,2,3,4,1], L = [2,2,4,4,2],
        B1 = [T,F,T,F,T]; the test fails."""
        K = [1, 2, 3, 4, 1]
        L = [2, 2, 4, 4, 2]
        B1 = [True, False, True, False, True]
        state = LRPDState(1)
        state.register("A", 5, privatized=True)
        shadow = state.shadow("A", 0)
        for it in range(1, 6):
            shadow.markread(K[it - 1] - 1, it)
            if B1[it - 1]:
                shadow.markwrite(L[it - 1] - 1, it)
        merged = state.merge("A")
        # Paper's chart (c): Aw marked at elements 2 and 4 (1-based),
        # Ar at all of 1..4, Atw == 3, Atm == 2.
        assert [int(v != 0) for v in dense(merged.aw, 4)] == [0, 1, 0, 1]
        assert [int(v != 0) for v in dense(merged.ar, 4)] == [1, 1, 1, 1]
        assert merged.atw == 3
        assert merged.atm == 2
        outcome = analyze(state)
        assert not outcome.passed

    def test_loop_with_two_arrays_one_failing(self):
        state = LRPDState(1)
        state.register("A", 4, privatized=False)
        state.register("B", 4, privatized=False)
        state.shadow("A", 0).markwrite(0, 1)
        state.shadow("B", 0).markwrite(0, 1)
        state.shadow("B", 0).markread(0, 2)
        outcome = analyze(state)
        assert not outcome.passed
        assert outcome.failed_array == "B"
        assert outcome.arrays["A"].passed


class TestAwminExtension:
    """The §2.2.3 read-in/copy-out extension (extra Awmin shadow)."""

    def _rico_state(self):
        state = LRPDState(1, with_awmin=True)
        state.register("A", 8, privatized=True)
        return state

    def test_read_first_before_writes_passes_with_awmin(self):
        # Figure 3 pattern: iter 1 reads, iters 2,3 write.
        state = self._rico_state()
        s = state.shadow("A", 0)
        s.markread(0, 1)
        s.markwrite(0, 2)
        s.markwrite(0, 3)
        outcome = analyze(state)
        assert outcome.passed
        assert outcome.arrays["A"].decided_by == "read-in-copy-out"

    def test_same_pattern_fails_without_awmin(self):
        state = LRPDState(1, with_awmin=False)
        state.register("A", 8, privatized=True)
        s = state.shadow("A", 0)
        s.markread(0, 1)
        s.markwrite(0, 2)
        s.markwrite(0, 3)
        assert not analyze(state).passed

    def test_read_first_after_write_still_fails(self):
        state = self._rico_state()
        s = state.shadow("A", 0)
        s.markwrite(0, 1)
        s.markread(0, 2)
        assert not analyze(state).passed

    def test_awmin_tracks_minimum(self):
        state = self._rico_state()
        s = state.shadow("A", 0)
        s.markwrite(0, 5)
        s.markwrite(0, 3)  # out of order across... still takes the min
        assert int(s.awmin[0]) == 3

    def test_awmin_merge_takes_cross_processor_min(self):
        state = LRPDState(2, with_awmin=True)
        state.register("A", 8, privatized=True)
        state.shadow("A", 0).markwrite(0, 7)
        state.shadow("A", 1).markwrite(0, 4)
        merged = state.merge("A")
        assert int(merged.awmin[0]) == 4

    def test_rescue_not_applied_to_unprivatized(self):
        state = LRPDState(1, with_awmin=True)
        state.register("A", 8, privatized=False)
        s = state.shadow("A", 0)
        s.markread(0, 1)
        s.markwrite(0, 2)
        assert not analyze(state).passed


# ----------------------------------------------------------------------
# Sparse shadows vs a dense reference with the array semantics
# ----------------------------------------------------------------------
class DenseShadow:
    """One processor's shadows as dense lists (0 = unmarked): the
    reference the sparse :class:`ArrayShadow` must agree with."""

    def __init__(self, length, with_awmin):
        self.aw = [0] * length
        self.ar = [0] * length
        self.anp = [0] * length
        self.awmin = [0] * length if with_awmin else None
        self.atw = 0

    def markwrite(self, index, iteration):
        if self.aw[index] != iteration:
            self.atw += 1
            self.aw[index] = iteration
            if self.awmin is not None and (
                self.awmin[index] == 0 or iteration < self.awmin[index]
            ):
                self.awmin[index] = iteration
        if self.ar[index] == iteration:
            self.ar[index] = 0

    def markread(self, index, iteration):
        if self.aw[index] != iteration:
            if self.ar[index] == 0:
                self.ar[index] = iteration
            self.anp[index] = iteration


def dense_analysis(shadows, length, with_awmin, privatized):
    """Merge (elementwise max, ``Awmin`` min over marks) and steps (a)-(f)
    over dense arrays; returns ``(passed, decided_by, atw, atm)``."""
    aw = [max(s.aw[i] for s in shadows) for i in range(length)]
    ar = [max(s.ar[i] for s in shadows) for i in range(length)]
    anp = [max(s.anp[i] for s in shadows) for i in range(length)]
    awmin = None
    if with_awmin:
        awmin = [
            min([s.awmin[i] for s in shadows if s.awmin[i]] or [0])
            for i in range(length)
        ]
    atw = sum(s.atw for s in shadows)
    atm = sum(1 for v in aw if v)

    def rescue(decided_by):
        if privatized and awmin is not None and not any(
            aw[i] and anp[i] and anp[i] > awmin[i] for i in range(length)
        ):
            return True, "read-in-copy-out", atw, atm
        return False, decided_by, atw, atm

    if any(aw[i] and ar[i] for i in range(length)):
        return rescue("aw-and-ar")
    if atw == atm:
        return True, "doall", atw, atm
    if not privatized:
        return False, "not-privatizable", atw, atm
    if any(aw[i] and anp[i] for i in range(length)):
        return rescue("not-privatizable")
    return True, "privatized", atw, atm


@st.composite
def marking_runs(draw):
    procs = draw(st.integers(1, 4))
    length = draw(st.integers(1, 8))
    marks = draw(st.lists(
        st.tuples(
            st.integers(0, procs - 1),   # processor
            st.booleans(),               # write?
            st.integers(0, length - 1),  # element
            st.integers(1, 5),           # iteration stamp
        ),
        max_size=40,
    ))
    return procs, length, marks, draw(st.booleans()), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(marking_runs())
def test_sparse_shadows_match_dense_reference(run):
    procs, length, marks, with_awmin, privatized = run
    state = LRPDState(procs, with_awmin=with_awmin)
    state.register("A", length, privatized)
    ref = [DenseShadow(length, with_awmin) for _ in range(procs)]
    for proc, is_write, index, iteration in marks:
        for shadow in (state.shadow("A", proc), ref[proc]):
            if is_write:
                shadow.markwrite(index, iteration)
            else:
                shadow.markread(index, iteration)
    for proc in range(procs):
        got = state.shadow("A", proc)
        for field in ("aw", "ar", "anp") + (("awmin",) if with_awmin else ()):
            assert dense(getattr(got, field), length) == getattr(ref[proc], field)
        assert got.atw == ref[proc].atw
    result = analyze_array("A", state.merge("A"), privatized)
    got = (result.passed, result.decided_by, result.atw, result.atm)
    assert got == dense_analysis(ref, length, with_awmin, privatized)
