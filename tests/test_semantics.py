"""Value-level tests: speculative execution must match serial results."""

import array
import copy
import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.params import MachineParams
from repro.runtime import RunConfig, SchedulePolicy, ScheduleSpec, VirtualMode
from repro.semantics import ConcreteLoop, speculative_run
from repro.semantics.arrays import ArrayProxy, TraceRecorder, make_proxies
from repro.types import ProtocolKind

PARAMS = MachineParams(num_processors=4)
DYN = RunConfig(schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK))


def serial_reference(body, iterations, arrays):
    ref = {k: copy.copy(v) for k, v in arrays.items()}
    recorder = TraceRecorder()
    proxies = make_proxies(ref, recorder)
    for i in range(iterations):
        body(i, proxies)
        recorder.take()
    return ref


class TestProxies:
    def test_get_set_and_recording(self):
        rec = TraceRecorder()
        a = ArrayProxy("A", [0.0] * 4, rec)
        a[1] = 5.0
        assert a[1] == 5.0
        ops = rec.take()
        assert [o.kind.value for o in ops] == ["write", "read"]
        assert rec.take() == []

    def test_bounds_checked(self):
        a = ArrayProxy("A", [0.0] * 4, TraceRecorder())
        with pytest.raises(IndexError):
            a[4]
        with pytest.raises(IndexError):
            a[-1] = 0


class TestTracing:
    def test_trace_marks_modified(self):
        def body(i, arrs):
            arrs["A"][i] = arrs["B"][i]

        loop = ConcreteLoop(
            body, 4, {"A": [0.0] * 8, "B": [1.0] * 8},
            {"A": ProtocolKind.NONPRIV},
        )
        traced = loop.trace()
        assert traced.array("A").modified
        assert not traced.array("B").modified

    def test_trace_does_not_mutate(self):
        data = [0.0] * 8

        def body(i, arrs):
            arrs["A"][i] = 42.0

        ConcreteLoop(body, 4, {"A": data}, {"A": ProtocolKind.NONPRIV}).trace()
        assert data == [0.0] * 8

    def test_elem_bytes_follow_itemsize(self):
        def body(i, arrs):
            arrs["L"][i] = arrs["F"][i] + arrs["I"][i]

        traced = ConcreteLoop(
            body, 4,
            {
                "L": [0.0] * 4,
                "F": array.array("f", [1.0] * 4),
                "I": array.array("h", [1] * 4),
            },
        ).trace()
        # A sequence without ``itemsize`` (a list) simulates as doubles.
        assert [traced.array(n).elem_bytes for n in "LFI"] == [8, 4, 2]


class TestSpeculativeRun:
    def test_parallel_loop_commits_speculative_results(self, seeded_rng):
        f = seeded_rng.sample(range(64), 64)
        a0 = [seeded_rng.random() for _ in range(64)]

        def body(i, arrs):
            j = f[i]
            arrs["A"][j] = arrs["A"][j] * 2.0 + 1.0

        ref = serial_reference(body, 32, {"A": a0})
        loop = ConcreteLoop(body, 32, {"A": list(a0)}, {"A": ProtocolKind.NONPRIV})
        out = speculative_run(loop, PARAMS, DYN)
        assert out.passed and not out.reexecuted_serially
        assert out.arrays["A"] == ref["A"]

    def test_dependent_loop_recovers_serially(self):
        a0 = [float(i) for i in range(32)]

        def body(i, arrs):
            arrs["A"][(i + 1) % 16] = arrs["A"][i % 16] + 1

        ref = serial_reference(body, 16, {"A": a0})
        loop = ConcreteLoop(body, 16, {"A": list(a0)}, {"A": ProtocolKind.NONPRIV})
        out = speculative_run(loop, PARAMS, DYN)
        assert not out.passed and out.reexecuted_serially
        assert out.arrays["A"] == ref["A"]

    def test_privatized_scratch_with_copy_out(self, seeded_rng):
        a0 = [seeded_rng.random() for _ in range(16)]

        def body(i, arrs):
            arrs["W"][0] = float(i)
            arrs["W"][1] = arrs["W"][0] * 2
            _ = arrs["W"][1]

        ref = serial_reference(body, 12, {"W": a0})
        loop = ConcreteLoop(
            body, 12, {"W": list(a0)}, {"W": ProtocolKind.PRIV},
            live_out=("W",),
        )
        out = speculative_run(loop, PARAMS, DYN)
        assert out.passed
        assert out.arrays["W"] == ref["W"]


class TestSequenceKinds:
    """Lists, ``array.array`` and numpy arrays run to the same values."""

    @staticmethod
    def _sequence(kind):
        if kind == "list":
            return list
        if kind == "array":
            return lambda values: array.array("d", values)
        np = pytest.importorskip("numpy")
        return lambda values: np.array(values, dtype=float)

    @pytest.mark.parametrize("kind", ["list", "array", "numpy"])
    @pytest.mark.parametrize("parallel", [True, False])
    def test_values_equal_serial_for_every_sequence(self, kind, parallel):
        make = self._sequence(kind)
        f = random.Random(7).sample(range(24), 16)
        if not parallel:
            f[9] = f[2]  # iterations 2 and 9 now collide on one element

        def body(i, arrs):
            arrs["W"][i % 4] = arrs["A"][f[i]] * 0.5 + i
            arrs["A"][f[i]] = arrs["W"][i % 4] + 1.0

        initial = {"A": [float(k) for k in range(24)], "W": [0.0] * 4}
        ref = serial_reference(body, 16, initial)
        loop = ConcreteLoop(
            body, 16, {name: make(v) for name, v in initial.items()},
            {"A": ProtocolKind.NONPRIV, "W": ProtocolKind.PRIV},
            live_out=("W",),
        )
        out = speculative_run(loop, PARAMS, DYN)
        assert out.passed is parallel
        assert {name: list(v) for name, v in out.arrays.items()} == ref

    def test_numpy_int32_simulates_four_byte_elements(self):
        """An ``int32`` array is traced with 4-byte elements, and its
        simulated timing is pinned (recorded when the value layer was
        numpy-backed)."""
        np = pytest.importorskip("numpy")

        def body(i, arrs):
            j = (i * 5) % 48
            arrs["A"][j] = arrs["A"][j] + i

        loop = ConcreteLoop(
            body, 32, {"A": np.arange(48, dtype=np.int32)},
            {"A": ProtocolKind.NONPRIV},
        )
        assert loop.trace().array("A").elem_bytes == 4
        out = speculative_run(loop, PARAMS, DYN)
        sim = out.simulation
        assert out.passed and out.arrays["A"].dtype == np.int32
        assert sim.wall == 3769.0
        assert sim.phases == {"backup": 592.0, "loop": 3177.0}
        assert dataclasses.asdict(sim.mem) == {
            "reads": 38, "writes": 38, "l1_hits": 40, "l2_hits": 0,
            "local_misses": 3, "remote_2hop": 10, "remote_3hop": 23,
            "invalidations": 17, "writebacks": 23, "write_stall_cycles": 0,
            "read_stall_cycles": 7360,
        }
        assert out.arrays["A"].tolist() == [
            (k + sum(i for i in range(32) if (i * 5) % 48 == k))
            for k in range(48)
        ]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(  # per iteration: list of (is_write, index)
        st.lists(st.tuples(st.booleans(), st.integers(0, 7)), min_size=1, max_size=4),
        min_size=1,
        max_size=8,
    )
)
def test_results_always_equal_serial(trace):
    """The correctness contract: pass or fail, speculative_run's output
    matches serial execution."""

    def body(i, arrs):
        for is_write, idx in trace[i]:
            if is_write:
                arrs["A"][idx] = arrs["A"][idx] + i + 1
            else:
                _ = arrs["A"][idx]

    a0 = [float(i) for i in range(8)]
    ref = serial_reference(body, len(trace), {"A": a0})
    loop = ConcreteLoop(
        body, len(trace), {"A": list(a0)}, {"A": ProtocolKind.NONPRIV}
    )
    out = speculative_run(loop, PARAMS, DYN)
    assert out.arrays["A"] == ref["A"]


class TestExceptionHandling:
    """§2.2: an exception during speculation aborts and restarts serially."""

    def test_genuine_exception_propagates_after_serial_retry(self):
        calls = []

        def body(i, arrs):
            calls.append(i)
            if i == 5:
                raise ZeroDivisionError("genuine bug")
            arrs["A"][i % 8] = i

        loop = ConcreteLoop(
            body, 8, {"A": [0] * 8}, {"A": ProtocolKind.NONPRIV}
        )
        with pytest.raises(ZeroDivisionError):
            speculative_run(loop, PARAMS, DYN)
        # The body ran speculatively (tracing) and then serially again.
        assert calls.count(5) == 2

    def test_arrays_reflect_serial_prefix_on_genuine_exception(self):
        def body(i, arrs):
            arrs["A"][i % 8] = float(i + 1)
            if i == 3:
                raise ValueError("boom")

        a0 = [0.0] * 8
        loop = ConcreteLoop(
            body, 8, {"A": a0}, {"A": ProtocolKind.NONPRIV}
        )
        with pytest.raises(ValueError):
            speculative_run(loop, PARAMS, DYN)
        # Iterations 0..3 executed serially before the fault; nothing
        # from the aborted speculation leaked in.
        assert a0 == [1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]

    def test_transient_exception_absorbed(self):
        """An exception only the speculative attempt sees (here: state
        poisoned by the first pass) is absorbed by the serial retry."""
        state = {"armed": True}

        def body(i, arrs):
            if i == 2 and state.pop("armed", None):
                raise RuntimeError("speculation hazard")
            arrs["A"][i % 8] = i

        loop = ConcreteLoop(
            body, 8, {"A": [0] * 8}, {"A": ProtocolKind.NONPRIV}
        )
        out = speculative_run(loop, PARAMS, DYN)
        assert not out.passed and out.reexecuted_serially
        assert isinstance(out.speculative_exception, RuntimeError)
        assert out.simulation is None
        assert out.arrays["A"] == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_out_of_bounds_subscript_treated_as_hazard(self):
        flaky = {"first": True}

        def body(i, arrs):
            idx = 99 if (i == 1 and flaky.pop("first", None)) else i % 8
            arrs["A"][idx] = i

        loop = ConcreteLoop(
            body, 4, {"A": [0] * 8}, {"A": ProtocolKind.NONPRIV}
        )
        out = speculative_run(loop, PARAMS, DYN)
        assert isinstance(out.speculative_exception, IndexError)
        assert out.reexecuted_serially
