"""Tests for the §3.3 time-stamp overflow handling (epoch sync)."""

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.params import MachineParams
from repro.runtime import (
    RunConfig,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    run_hw,
)
from repro.runtime.executor import loop_streams
from repro.trace import ArraySpec, Loop, compute, read, write
from repro.types import ProtocolKind

PARAMS = MachineParams(num_processors=4)


def priv_scratch_loop(iterations=32, name="epoch-priv"):
    """Privatizable (write-then-read scratch) every iteration."""
    body = []
    for i in range(iterations):
        body.append([write("W", i % 8), compute(40), read("W", i % 8)])
    return Loop(name, [ArraySpec("W", 64, 8, ProtocolKind.PRIV)], body)


def flow_dep_loop(src=5, dst=20, iterations=32):
    """Write in iteration ``src``, read-first in iteration ``dst``."""
    body = []
    for i in range(iterations):
        # Background: each iteration writes its own scratch element.
        ops = [write("W", 32 + (i % 32)), compute(40)]
        body.append(ops)
    body[src - 1].append(write("W", 0))
    body[dst - 1].insert(0, read("W", 0))
    return Loop("epoch-dep", [ArraySpec("W", 64, 8, ProtocolKind.PRIV)], body)


def cfg(bits, chunk=1):
    return RunConfig(
        schedule=ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, chunk, VirtualMode.CHUNK),
        timestamp_bits=bits,
    )


class TestEpochExecution:
    def test_parallel_loop_passes_with_tiny_stamps(self):
        # 2-bit stamps: capacity 3 virtual iterations per epoch -> many
        # synchronizations, but a doall-after-privatization still passes.
        r = run_hw(priv_scratch_loop(), PARAMS, cfg(bits=2))
        assert r.passed

    def test_epoch_sync_costs_time(self):
        loop = priv_scratch_loop()
        small = run_hw(loop, PARAMS, cfg(bits=2))
        big = run_hw(priv_scratch_loop(name="epoch-priv-2"), PARAMS, cfg(bits=16))
        # Frequent barriers make the small-stamp run slower.
        assert small.wall > big.wall

    def test_unbounded_stamps_equal_big_stamps(self):
        loop = priv_scratch_loop()
        bounded = run_hw(loop, PARAMS, cfg(bits=16))
        unbounded = run_hw(
            priv_scratch_loop(name="epoch-priv-3"), PARAMS,
            RunConfig(schedule=ScheduleSpec(
                SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK)),
        )
        # 32 blocks < 2^16 - 1: no epoch boundary is ever reached.
        assert bounded.wall == unbounded.wall
        assert bounded.passed and unbounded.passed

    def test_cross_epoch_dependence_still_detected(self):
        # Write in iteration 5, read-first in iteration 20; with 3-bit
        # stamps (capacity 7) they are in different epochs, so detection
        # must come from the sticky written_past bit.
        loop = flow_dep_loop(src=5, dst=20)
        r = run_hw(loop, PARAMS, cfg(bits=3))
        assert not r.passed
        assert "epoch" in r.failure.reason or "earlier iteration" in r.failure.reason

    def test_same_dependence_detected_without_epochs(self):
        r = run_hw(flow_dep_loop(src=5, dst=20), PARAMS, cfg(bits=16))
        assert not r.passed


class TestEpochValidation:
    """Epochs need a static, chunk-numbered schedule: the config is
    rejected when it is built, before any run."""

    def test_dynamic_schedule_rejected(self):
        with pytest.raises(SchedulingError, match="timestamp_bits"):
            RunConfig(
                schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK),
                timestamp_bits=4,
            )

    def test_iteration_numbering_rejected(self):
        with pytest.raises(SchedulingError, match="timestamp_bits"):
            RunConfig(
                schedule=ScheduleSpec(
                    SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION
                ),
                timestamp_bits=4,
            )

    @pytest.mark.parametrize(
        "schedule",
        [
            ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK),
            ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION),
        ],
    )
    def test_direct_loop_streams_callers_get_the_same_error(self, schedule):
        """``loop_streams`` makes the same check as ``RunConfig``."""
        with pytest.raises(SchedulingError, match="timestamp_bits"):
            loop_streams(
                priv_scratch_loop(), schedule, 4, PARAMS.cost, timestamp_bits=4
            )

    @pytest.mark.parametrize("bits", [0, 65, 2.0])
    def test_out_of_range_width_rejected(self, bits):
        chunked = ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK)
        with pytest.raises(ConfigurationError, match="timestamp_bits"):
            RunConfig(schedule=chunked, timestamp_bits=bits)
        with pytest.raises(ConfigurationError, match="timestamp_bits"):
            loop_streams(
                priv_scratch_loop(), chunked, 4, PARAMS.cost, timestamp_bits=bits
            )


class TestAbortAcrossEpochBarriers:
    def test_failed_run_with_pending_epoch_barrier_restores_cleanly(self):
        """Regression (found by the model checker): a processor aborted
        while holding a deferred epoch BarrierOp as its pending op must
        not replay it into the restore phase — that barrier has lost
        its other participants and deadlocks the run."""
        from repro.params import small_test_params

        loop = Loop(
            "abort-epoch",
            [ArraySpec("A", 2, 8, ProtocolKind.PRIV)],
            # it3 reads element 0 written in the earlier epoch of it2:
            # FAIL mid-run while the trailing empty iterations still owe
            # epoch barriers.
            [[read("A", 0)], [write("A", 0)], [read("A", 0)], [], [], []],
        )
        config = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK),
            timestamp_bits=1,
        )
        result = run_hw(loop, small_test_params(2), config)
        assert not result.passed
        assert "earlier time-stamp epoch" in result.failure.reason
        assert "restore" in result.phases


class TestEpochStateReset:
    def test_epoch_reset_preserves_written_past(self):
        from repro.core.accessbits import PrivSharedDirTable

        t = PrivSharedDirTable(4)
        t.note_write(1, 5, proc=0)
        t.note_read_first(2, 3)
        t.epoch_reset()
        assert bool(t.written_past[1])
        assert not bool(t.written_past[2])
        assert t.min_w_of(1) is None
        assert int(t.max_r1st[2]) == 0

    def test_last_write_ordering_across_epochs(self):
        from repro.core.accessbits import PrivSharedDirTable

        t = PrivSharedDirTable(4)
        t.note_write(0, 6, proc=1, epoch=0)
        t.note_write(0, 2, proc=2, epoch=1)  # later epoch, smaller stamp
        assert int(t.last_w_proc[0]) == 2
