"""End-to-end value checks of the paper's loop patterns."""

import pytest

from repro.params import MachineParams
from repro.runtime import RunConfig, SchedulePolicy, ScheduleSpec, VirtualMode
from repro.semantics import speculative_run
from repro.workloads.concrete import ocean_like, p3m_like, track_like

PARAMS = MachineParams(num_processors=4)
DYN = RunConfig(schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK))
FINE = RunConfig(schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 1, VirtualMode.CHUNK))


class TestOceanPattern:
    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_parallel_and_correct(self, stride):
        loop, expected = ocean_like(stride=stride)
        out = speculative_run(loop, PARAMS, DYN)
        assert out.passed
        assert out.arrays["FT"] == expected


class TestP3mPattern:
    def test_privatized_scratch_correct(self):
        loop, expected = p3m_like()
        out = speculative_run(loop, PARAMS, DYN)
        assert out.passed
        assert out.arrays["FORCE"] == expected


class TestTrackPattern:
    def test_clean_execution_passes(self):
        loop, expected = track_like(dependent=False)
        out = speculative_run(loop, PARAMS, FINE)
        assert out.passed
        assert out.arrays["T"] == expected

    def test_dependent_execution_recovers(self):
        # Fine-grained dynamic blocks split the dependent pairs, so the
        # speculation fails and the serial retry still yields the right
        # values.
        loop, expected = track_like(dependent=True)
        out = speculative_run(loop, PARAMS, FINE)
        assert out.arrays["T"] == expected
        assert not out.passed and out.reexecuted_serially

    def test_dependent_execution_passes_with_blocks(self):
        # Blocks of 4 keep each dependent pair on one processor — the
        # §5.2 observation that block scheduling lets Track pass.
        loop, expected = track_like(dependent=True)
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 4, VirtualMode.CHUNK)
        )
        out = speculative_run(loop, PARAMS, cfg)
        assert out.passed
        assert out.arrays["T"] == expected
