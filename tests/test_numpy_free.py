"""The reproduction path never imports numpy.

The simulator keeps its per-element protocol state in plain Python
(list-backed access-bit tables, dict-backed LRPD shadows), so the
experiments CLI and every run the figures make stay numpy-free.  The
kernel oracle computes its failing-element sets with plain dicts and
sets, so diffcheck, its CLI and its pool tasks are numpy-free too.
numpy is needed only by the value-level semantics (``repro.semantics``)
and ``workloads/concrete.py``.  Each test runs in a fresh interpreter,
since this test session has numpy loaded already.
"""

import os
import subprocess
import sys
import textwrap

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _run_clean(script: str) -> str:
    """Run ``script`` in a fresh interpreter; return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_and_simulated_runs_never_import_numpy():
    out = _run_clean(
        """
        import sys

        import repro.experiments.cli
        from repro.experiments.figures import fig13_failure
        from repro.params import MachineParams
        from repro.runtime import (
            RunConfig, SchedulePolicy, ScheduleSpec, VirtualMode, run_hw, run_sw,
        )
        from repro.trace.loop import ArraySpec, Loop
        from repro.trace.ops import compute, read, write
        from repro.types import ProtocolKind

        # Quick-preset Track: Serial, a failing SW run and a failing
        # NONPRIV HW run.
        assert len(fig13_failure("quick", workloads=["Track"])) == 3
        params = MachineParams(num_processors=4)
        dyn = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK)
        )
        # A passing NONPRIV HW run: disjoint elements per iteration.
        disjoint = Loop(
            "disjoint",
            [ArraySpec("A", 64, 8, ProtocolKind.NONPRIV)],
            [[read("A", i), compute(10), write("A", i)] for i in range(32)],
        )
        assert run_hw(disjoint, params, dyn).passed
        # Passing PRIV and PRIV_SIMPLE HW runs and a SW run, all with
        # copy-out of a live-out privatized array.
        for protocol in (ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE):
            scratch = Loop(
                "scratch",
                [ArraySpec("A", 64, 8, protocol, live_out=True)],
                [[write("A", i % 8), compute(10), read("A", i % 8)]
                 for i in range(32)],
            )
            hw = run_hw(scratch, params, dyn)
            assert hw.passed and hw.phases.get("copy-out", 0) > 0, hw.phases
            sw = run_sw(scratch, params, dyn)
            assert sw.passed and sw.phases.get("copy-out", 0) > 0, sw.phases
        print("numpy" in sys.modules)
        """
    )
    assert out.strip() == "False"


def test_seeded_pool_task_leaves_numpy_unimported():
    out = _run_clean(
        """
        import sys

        from repro.experiments.figures import fig13_failure
        from repro.experiments.pool import PoolTask, run_tasks

        task = PoolTask(
            fig13_failure, ("quick",), {"workloads": ["Track"]}, seed=11
        )
        (rows,) = run_tasks([task], jobs=1)
        assert [row.scenario.value for row in rows] == ["Serial", "SW", "HW"]
        print("numpy" in sys.modules)
        """
    )
    assert out.strip() == "False"


def test_diffcheck_sweep_and_kernel_oracle_never_import_numpy():
    out = _run_clean(
        """
        import sys

        from repro.runtime.schedule import SchedulePolicy
        from repro.testing import diffcheck, vector_oracle
        from repro.types import ProtocolKind

        # Seed -> (protocol, static, timestamp_bits set, per_line_bits):
        # NONPRIV with and without per-line bits, PRIV with time-stamp
        # epochs, PRIV_SIMPLE and a dynamic schedule the oracle declines.
        cover = {
            1: (ProtocolKind.NONPRIV, True, False, False),
            49: (ProtocolKind.NONPRIV, True, True, True),
            0: (ProtocolKind.PRIV, True, True, False),
            5: (ProtocolKind.PRIV_SIMPLE, True, False, False),
            2: (ProtocolKind.PRIV, False, False, False),
        }
        for seed, want in cover.items():
            case = diffcheck.build_case(seed)
            static = case.schedule.policy is not SchedulePolicy.DYNAMIC
            got = (case.protocol, static, case.timestamp_bits is not None,
                   case.per_line_bits)
            assert got == want, (seed, got)
            failing = vector_oracle.failing_elements(
                case.loop, case.params, diffcheck.case_config(case)
            )
            assert (failing is not None) is static, (seed, failing)
            assert diffcheck.seed_verdict(seed)["conforms"], seed
        assert diffcheck.main(["--count", "8", "--jobs", "1"]) == 0
        print("numpy" in sys.modules)
        """
    )
    assert out.strip().splitlines()[-1] == "False"
