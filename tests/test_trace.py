"""Tests for the loop/trace representation and validation."""

import pytest

from repro.errors import ConfigurationError
from repro.trace import ArraySpec, Loop, compute, local, read, write
from repro.trace.ops import AccessOp
from repro.types import AccessKind, ProtocolKind


def simple_loop(**kwargs):
    arrays = [ArraySpec("A", 16, 8, ProtocolKind.NONPRIV)]
    iters = [[read("A", i), write("A", i)] for i in range(4)]
    return Loop("l", arrays, iters, **kwargs)


class TestOps:
    def test_read_write_helpers(self):
        r = read("A", 3)
        assert r.is_read and not r.is_write and r.array == "A" and r.index == 3
        w = write("A", 3)
        assert w.is_write and w.kind is AccessKind.WRITE

    def test_compute_rejects_negative(self):
        with pytest.raises(ValueError):
            compute(-1)

    def test_ops_stay_frozen_value_objects(self):
        import dataclasses
        import pickle

        from repro.trace.ops import AccessOp, ComputeOp

        r = read("A", 3)
        assert r == AccessOp(kind=AccessKind.READ, array="A", index=3)
        assert hash(r) == hash(read("A", 3)) and r != write("A", 3)
        assert repr(r) == "AccessOp(kind=<AccessKind.READ: 'read'>, array='A', index=3)"
        assert dataclasses.replace(r, index=4) == read("A", 4)
        assert [f.name for f in dataclasses.fields(r)] == ["kind", "array", "index"]
        assert pickle.loads(pickle.dumps(r)) == r
        assert compute(5) == ComputeOp(cycles=5) and dataclasses.astuple(compute(5)) == (5,)
        for op, field in ((r, "index"), (compute(5), "cycles")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(op, field, 0)

    def test_local_default_kind(self):
        assert local().kind is AccessKind.READ


class TestArraySpec:
    def test_privatized_flags(self):
        assert ArraySpec("A", 4, protocol=ProtocolKind.PRIV).privatized
        assert ArraySpec("A", 4, protocol=ProtocolKind.PRIV_SIMPLE).privatized
        assert not ArraySpec("A", 4, protocol=ProtocolKind.NONPRIV).privatized

    def test_under_test(self):
        assert ArraySpec("A", 4, protocol=ProtocolKind.NONPRIV).under_test
        assert not ArraySpec("A", 4).under_test

    def test_bad_length(self):
        with pytest.raises(ConfigurationError):
            ArraySpec("A", 0)

    def test_bad_elem_size(self):
        with pytest.raises(ConfigurationError):
            ArraySpec("A", 4, elem_bytes=3)


class TestLoopValidation:
    def test_valid_loop(self):
        loop = simple_loop()
        assert loop.num_iterations == 4

    def test_undeclared_array(self):
        with pytest.raises(ConfigurationError):
            Loop("l", [ArraySpec("A", 4)], [[read("B", 0)]])

    def test_out_of_bounds_index(self):
        with pytest.raises(ConfigurationError):
            Loop("l", [ArraySpec("A", 4)], [[read("A", 4)]])

    def test_write_to_readonly(self):
        with pytest.raises(ConfigurationError):
            Loop("l", [ArraySpec("A", 4, modified=False)], [[write("A", 0)]])

    def test_empty_loop_rejected(self):
        with pytest.raises(ConfigurationError):
            Loop("l", [ArraySpec("A", 4)], [])

    def test_duplicate_array_names(self):
        with pytest.raises(ConfigurationError):
            Loop("l", [ArraySpec("A", 4), ArraySpec("A", 8)], [[read("A", 0)]])

    def test_weights_length_checked(self):
        with pytest.raises(ConfigurationError):
            simple_loop(iteration_weights=[1, 2])

    def test_access_op_subclass_rejected(self):
        # The processor dispatches on exact op class, so a subclass
        # would build here and raise TypeError mid-run.
        class TracedAccess(AccessOp):
            __slots__ = ()

        op = TracedAccess(AccessKind.READ, "A", 0)
        with pytest.raises(ConfigurationError, match="TracedAccess"):
            Loop("l", [ArraySpec("A", 4)], [[op]])

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1"])
    def test_non_int_index_rejected(self, index):
        # A float index used to build and then fail with a numpy
        # IndexError deep inside run_hw.
        with pytest.raises(ConfigurationError, match="not an int"):
            Loop("l", [ArraySpec("A", 4)], [[read("A", index)]])


class TestLoopQueries:
    def test_modified_arrays_excludes_privatized(self):
        arrays = [
            ArraySpec("A", 8, protocol=ProtocolKind.NONPRIV),
            ArraySpec("P", 8, protocol=ProtocolKind.PRIV),
            ArraySpec("R", 8, modified=False),
        ]
        loop = Loop("l", arrays, [[write("A", 0), write("P", 0), read("R", 0)]])
        assert [a.name for a in loop.modified_arrays()] == ["A"]

    def test_written_elements(self):
        loop = simple_loop()
        assert loop.written_elements("A") == {0, 1, 2, 3}

    def test_stats(self):
        arrays = [ArraySpec("A", 8, protocol=ProtocolKind.NONPRIV), ArraySpec("B", 8)]
        iters = [[read("A", 0), write("B", 1), compute(10), local()]]
        s = Loop("l", arrays, iters).stats()
        assert s.reads == 1 and s.writes == 1
        assert s.marked_reads == 1 and s.marked_writes == 0
        assert s.compute_cycles == 10 and s.local_accesses == 1
        assert s.footprint_bytes == 2 * 8 * 8
        assert 0 < s.marked_fraction <= 1
