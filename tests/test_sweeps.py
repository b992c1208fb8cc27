"""Tests for the generic parameter-sweep API."""

import json

import pytest

from repro.experiments import sweeps
from repro.experiments.serialize import run_result_to_dict
from repro.experiments.sweeps import (
    SweepPoint,
    _replace_path,
    format_sweep,
    sweep_config,
    sweep_machine,
)
from repro.params import MachineParams, default_params
from repro.runtime import RunConfig, SchedulePolicy, ScheduleSpec, VirtualMode
from repro.types import Scenario
from repro.workloads.synthetic import parallel_nonpriv_loop


@pytest.fixture
def loop():
    return parallel_nonpriv_loop(iterations=16, work_cycles=60)


class TestReplacePath:
    def test_top_level(self):
        p = _replace_path(default_params(4), "num_processors", 8)
        assert p.num_processors == 8

    def test_nested(self):
        p = _replace_path(default_params(4), "contention.directory_occupancy", 99)
        assert p.contention.directory_occupancy == 99
        assert p.num_processors == 4  # untouched

    def test_unknown_field(self):
        with pytest.raises(AttributeError):
            _replace_path(default_params(4), "bogus.field", 1)

    def test_unknown_nested_field(self):
        with pytest.raises(AttributeError, match="no field 'bogus'"):
            _replace_path(default_params(4), "contention.bogus", 1)

    def test_non_dataclass_leaf(self):
        # Descending *through* a plain-int leaf cannot work.
        with pytest.raises(AttributeError, match="has no field"):
            _replace_path(default_params(4), "num_processors.bits", 1)


class TestSweepMachine:
    def test_processor_sweep(self, loop):
        points = sweep_machine(
            loop, "num_processors", [2, 4], scenario=Scenario.HW,
            base_params=default_params(2),
        )
        assert [p.value for p in points] == [2, 4]
        assert all(p.result.passed for p in points)
        assert all(p.speedup is not None for p in points)

    def test_occupancy_sweep_monotone(self, loop):
        points = sweep_machine(
            loop, "contention.directory_occupancy", [0, 64],
            scenario=Scenario.IDEAL, base_params=default_params(8),
        )
        assert points[0].result.wall <= points[1].result.wall

    def test_serial_scenario_skips_reference(self, loop):
        points = sweep_machine(
            loop, "num_processors", [2], scenario=Scenario.SERIAL,
            base_params=default_params(2),
        )
        assert points[0].speedup is None


class TestSerialBaseline:
    """The memoized, config-forwarding serial reference (ISSUE 5)."""

    @staticmethod
    def _counting_run_serial(monkeypatch):
        calls = []
        real = sweeps.run_serial

        def counting(loop, params, config=None):
            calls.append((params, config))
            return real(loop, params, config)

        monkeypatch.setattr(sweeps, "run_serial", counting)
        return calls

    def test_baseline_memoized_when_swept_field_is_serial_invisible(
        self, loop, monkeypatch
    ):
        calls = self._counting_run_serial(monkeypatch)
        points = sweep_machine(
            loop, "num_processors", [2, 4, 8], scenario=Scenario.HW,
            base_params=default_params(2),
        )
        # Serial execution collapses to one processor: one baseline run
        # serves all three points.
        assert len(calls) == 1
        assert len({p.serial_wall for p in points}) == 1

    def test_baseline_not_shared_when_swept_field_changes_serial(
        self, loop, monkeypatch
    ):
        calls = self._counting_run_serial(monkeypatch)
        points = sweep_machine(
            loop, "cost.loop_iter_overhead", [2, 8], scenario=Scenario.HW,
            base_params=default_params(2),
        )
        assert len(calls) == 2
        assert points[0].serial_wall != points[1].serial_wall

    def test_baseline_receives_the_sweep_config(self, loop, monkeypatch):
        calls = self._counting_run_serial(monkeypatch)
        config = RunConfig(sparse_backup=True)
        sweep_machine(
            loop, "num_processors", [2, 4], scenario=Scenario.HW,
            base_params=default_params(2), config=config,
        )
        assert [c for _, c in calls] == [config]

    def test_configured_baseline_matches_direct_serial_run(self, loop):
        """The speedup reference must be the *configured* serial run,
        not a default-config one (the dropped-RunConfig bug)."""
        from repro.runtime.driver import run_serial

        config = RunConfig(sparse_backup=True)
        points = sweep_machine(
            loop, "num_processors", [2], scenario=Scenario.HW,
            base_params=default_params(2), config=config,
        )
        expected = run_serial(loop, default_params(2), config).wall
        assert points[0].serial_wall == expected


class TestParallelConformance:
    """jobs=4 must be bit-identical to jobs=1 (acceptance criterion)."""

    @staticmethod
    def _serialized(points):
        return [
            (
                p.value,
                p.serial_wall,
                json.dumps(run_result_to_dict(p.result), sort_keys=True),
            )
            for p in points
        ]

    def test_sweep_machine_parallel_bit_identical(self, loop):
        kwargs = dict(
            scenario=Scenario.HW, base_params=default_params(2),
        )
        serial = sweep_machine(loop, "num_processors", [2, 4], jobs=1, **kwargs)
        pooled = sweep_machine(loop, "num_processors", [2, 4], jobs=4, **kwargs)
        assert self._serialized(serial) == self._serialized(pooled)

    def test_sweep_config_parallel_bit_identical(self, loop):
        def cfg(chunk):
            return RunConfig(
                schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, chunk, VirtualMode.CHUNK)
            )

        serial = sweep_config(
            loop, cfg, [1, 2], scenario=Scenario.HW,
            params=default_params(4), jobs=1,
        )
        pooled = sweep_config(
            loop, cfg, [1, 2], scenario=Scenario.HW,
            params=default_params(4), jobs=4,
        )
        assert self._serialized(serial) == self._serialized(pooled)


class TestSweepConfig:
    def test_chunk_sweep(self, loop):
        def cfg(chunk):
            return RunConfig(
                schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, chunk, VirtualMode.CHUNK)
            )

        points = sweep_config(
            loop, cfg, [1, 4], scenario=Scenario.HW, params=default_params(4)
        )
        assert len(points) == 2
        assert all(p.result.passed for p in points)
        # Shared serial reference across points.
        assert points[0].serial_wall == points[1].serial_wall


class TestFormat:
    def test_format_sweep(self, loop):
        points = sweep_machine(
            loop, "num_processors", [2], scenario=Scenario.HW,
            base_params=default_params(2),
        )
        text = format_sweep(points, label="procs")
        assert "procs" in text and "speedup" in text

    def test_format_sweep_renders_missing_serial_wall(self, loop):
        points = sweep_machine(
            loop, "num_processors", [2], scenario=Scenario.HW,
            base_params=default_params(2), relative_to_serial=False,
        )
        assert points[0].serial_wall is None
        row = format_sweep(points, label="procs").splitlines()[-1]
        assert row.split()[2] == "-"  # speedup column degrades to "-"
