"""Reproducibility: identical inputs must give identical simulations."""

import pytest

from repro.experiments.scenarios import run_workload
from repro.params import MachineParams
from repro.runtime import RunConfig, SchedulePolicy, ScheduleSpec, VirtualMode
from repro.runtime.driver import run_hw, run_serial, run_sw
from repro.types import Scenario
from repro.workloads import TrackWorkload
from repro.workloads.synthetic import parallel_nonpriv_loop

PARAMS = MachineParams(num_processors=4)


def _results_equal(a, b):
    assert a.wall == b.wall
    assert a.passed == b.passed
    assert a.phases == b.phases
    assert a.breakdown.busy == b.breakdown.busy
    assert a.breakdown.sync == b.breakdown.sync
    assert a.breakdown.mem == b.breakdown.mem


class TestDeterminism:
    def test_hw_run_bitwise_repeatable(self):
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK)
        )
        runs = [
            run_hw(parallel_nonpriv_loop(iterations=24), PARAMS, cfg)
            for _ in range(2)
        ]
        _results_equal(*runs)

    def test_sw_run_repeatable(self):
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.PROCESSOR)
        )
        runs = [
            run_sw(parallel_nonpriv_loop(iterations=24), PARAMS, cfg)
            for _ in range(2)
        ]
        _results_equal(*runs)

    def test_serial_repeatable(self):
        runs = [
            run_serial(parallel_nonpriv_loop(iterations=24), PARAMS)
            for _ in range(2)
        ]
        _results_equal(*runs)

    def test_workload_results_repeatable(self):
        results = [
            run_workload(TrackWorkload(seed=9, scale=0.5), executions=2)
            for _ in range(2)
        ]
        for scenario in (Scenario.SERIAL, Scenario.HW):
            assert (
                results[0].scenarios[scenario].wall
                == results[1].scenarios[scenario].wall
            )

    def test_different_seeds_differ(self):
        a = run_workload(
            TrackWorkload(seed=1, scale=0.5), executions=1,
            scenarios=[Scenario.SERIAL],
        )
        b = run_workload(
            TrackWorkload(seed=2, scale=0.5), executions=1,
            scenarios=[Scenario.SERIAL],
        )
        assert a.scenarios[Scenario.SERIAL].wall != b.scenarios[Scenario.SERIAL].wall

    def test_runs_stable_across_hash_seeds(self):
        # Allocation order fixes every array's address, so it must not
        # follow set iteration order, which changes with the interpreter's
        # string hash seed.  Two privatized arrays expose it in Ideal.
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "from repro.params import small_test_params\n"
            "from repro.runtime import RunConfig, SchedulePolicy, ScheduleSpec\n"
            "from repro.runtime.driver import run_hw, run_ideal, run_serial, run_sw\n"
            "from repro.trace.loop import ArraySpec, Loop\n"
            "from repro.trace.ops import compute, read, write\n"
            "from repro.types import ProtocolKind\n"
            "body = [[write('PP', i % 24), write('QQQ', 3 * i % 70), compute(20),\n"
            "         read('PP', i % 24), read('QQQ', 3 * i % 70),\n"
            "         read('A', 6 * i), write('A', 6 * i)] for i in range(32)]\n"
            "loop = Loop('hash-seeded', [\n"
            "    ArraySpec('A', 200, 8, ProtocolKind.NONPRIV),\n"
            "    ArraySpec('PP', 24, 8, ProtocolKind.PRIV),\n"
            "    ArraySpec('QQQ', 70, 8, ProtocolKind.PRIV)], body)\n"
            "config = RunConfig(schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK))\n"
            "for run in (run_serial, run_ideal, run_sw, run_hw):\n"
            "    result = run(loop, small_test_params(4), config)\n"
            "    print(result.scenario.value, result.wall, result.mem)\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in range(8)
        }
        assert len(outputs) == 1, outputs
