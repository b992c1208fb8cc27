"""Tests for the workload surrogates against their §5.2 characteristics."""

import pytest

from repro.trace.oracle import DependenceOracle
from repro.workloads import (
    AdmWorkload,
    OceanWorkload,
    P3mWorkload,
    TrackWorkload,
    workload_by_name,
)
from repro.types import ProtocolKind


class TestOcean:
    def test_paper_characteristics(self):
        w = OceanWorkload()
        assert w.num_processors == 8
        assert w.paper_executions == 4129
        loop = next(w.executions(1))
        assert loop.num_iterations == 32
        ft = loop.array("FT")
        assert ft.elem_bytes == 16 and ft.protocol is ProtocolKind.NONPRIV

    def test_every_execution_is_doall(self):
        w = OceanWorkload(scale=0.2)
        for loop in w.executions(len(w.STRIDES)):
            assert DependenceOracle(loop).analyze().is_doall, loop.name

    def test_strides_vary_across_executions(self):
        w = OceanWorkload(scale=0.2)
        loops = list(w.executions(3))
        # First data accesses of iteration 2 differ between executions.
        firsts = []
        for loop in loops:
            ops = [op for op in loop.iterations[1] if hasattr(op, "array") and op.array == "FT"]
            firsts.append((ops[0].index, ops[2].index))
        assert len(set(firsts)) > 1

    def test_full_coverage(self):
        w = OceanWorkload(scale=0.1)
        loop = next(w.executions(1))
        touched = set()
        for ops in loop.iterations:
            for op in ops:
                if getattr(op, "array", None) == "FT":
                    touched.add(op.index)
        assert touched == set(range(w.array_elems()))

    def test_scale_shrinks_array(self):
        assert OceanWorkload(scale=0.1).array_elems() < OceanWorkload(
            scale=1.0
        ).array_elems()


class TestP3m:
    def test_paper_characteristics(self):
        w = P3mWorkload(scale=0.1)
        assert w.num_processors == 16
        loop = next(w.executions(1))
        assert loop.array("XI").protocol is ProtocolKind.PRIV_SIMPLE
        assert loop.array("POS").modified is False
        assert loop.array("XI").elem_bytes == 4

    def test_privatizable_not_doall(self):
        w = P3mWorkload(scale=0.1)
        report = DependenceOracle(next(w.executions(1))).analyze()
        assert not report.is_doall
        assert report.is_privatizable

    def test_load_imbalance(self):
        w = P3mWorkload(scale=0.1)
        loop = next(w.executions(1))
        weights = loop.iteration_weights
        assert max(weights) > 4 * (sum(weights) / len(weights))

    def test_no_backup_needed(self):
        # POS is read-only and the scratch arrays are privatized: the
        # paper's rule says nothing needs saving.
        w = P3mWorkload(scale=0.1)
        assert next(w.executions(1)).modified_arrays() == []


class TestAdm:
    def test_alternating_iteration_counts(self):
        w = AdmWorkload()
        loops = list(w.executions(2))
        assert {l.num_iterations for l in loops} == {32, 64}

    def test_mixed_algorithms(self):
        w = AdmWorkload()
        loop = next(w.executions(1))
        protos = {a.name: a.protocol for a in loop.arrays_under_test()}
        assert protos["Q"] is ProtocolKind.NONPRIV
        assert protos["TMP"] is ProtocolKind.PRIV_SIMPLE

    def test_parallel_after_privatization(self):
        w = AdmWorkload(scale=0.5)
        report = DependenceOracle(next(w.executions(1))).analyze()
        assert report.is_privatizable
        assert report.arrays["Q"].is_doall


class TestTrack:
    def test_four_arrays_under_test(self):
        w = TrackWorkload()
        loop = next(w.executions(1))
        tested = loop.arrays_under_test()
        assert len(tested) == 4
        assert {a.elem_bytes for a in tested} == {4, 8}
        assert all(a.protocol is ProtocolKind.NONPRIV for a in tested)

    def test_marked_fraction_varies(self):
        w = TrackWorkload()
        fracs = [loop.stats().marked_fraction for loop in w.executions(6)]
        assert min(fracs) == 0.0
        assert max(fracs) > 0.25

    def test_dependent_executions_exist_and_are_detected(self):
        w = TrackWorkload()
        for index, loop in enumerate(w.executions(6)):
            report = DependenceOracle(loop).analyze()
            assert report.is_doall == (not w.is_dependent_execution(index))

    def test_dependent_execution_passes_chunked(self):
        """The §5.2 property: dependences land inside blocks/chunks."""
        w = TrackWorkload()
        dep_index = next(i for i in range(8) if w.is_dependent_execution(i))
        loop = list(w.executions(dep_index + 1))[dep_index]
        # Block-of-4 grouping (the HW dynamic block size).
        block_map = {
            it: 1 + (it - 1) // w.BLOCK for it in range(1, loop.num_iterations + 1)
        }
        report = DependenceOracle(loop, iteration_map=block_map).analyze()
        assert report.is_doall


class TestRegistry:
    def test_lookup_by_name(self):
        assert workload_by_name("ocean").name == "Ocean"
        assert workload_by_name("TRACK").name == "Track"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            workload_by_name("spice")

    @pytest.mark.parametrize(
        "cls", [OceanWorkload, P3mWorkload, AdmWorkload, TrackWorkload]
    )
    def test_execution_equals_the_enumerated_one(self, cls):
        w = cls(seed=5, scale=0.25)
        for index, loop in enumerate(w.executions(3)):
            alone = w.execution(index)
            assert alone.arrays == loop.arrays
            assert alone.iterations == loop.iterations

    def test_deterministic_generation(self):
        a = list(TrackWorkload(seed=5).executions(2))
        b = list(TrackWorkload(seed=5).executions(2))
        for la, lb in zip(a, b):
            assert la.iterations == lb.iterations
