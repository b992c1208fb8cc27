"""The ``profile`` subcommand: a profiled pooled sweep of HW runs.

Runs a few repetitions of one speculative execution through the process
pool with per-task profiling capture enabled, then writes:

* one merged multi-track Chrome trace (``pid`` = worker process,
  ``tid`` 0 = that process's spans, ``tid`` ``proc + 1`` = simulated
  processors) — open in https://ui.perfetto.dev, and
* a rollup JSON next to it (p50/p95 per-task wall, queue wait, worker
  utilization, per-tier phase breakdown),

and prints the rollup as text.  The same capture machinery is available
on ``sweep`` / ``diffsweep`` / ``trace`` via
``--profile-out``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from ..obs.export import _ensure_parent
from ..obs.spans import ProfileSession
from .pool import PoolTask, derive_seed, run_tasks

#: profiled runs — few by design: the verb is a smoke-profile, not a
#: benchmark
PROFILE_REPS = 4


def _profile_point(
    workload_name: str, preset: str, seed: int, rep: int
) -> Dict[str, Any]:
    """One profiled simulation run (module-level: pool-picklable).

    The workload is rebuilt inside the worker from its name so the task
    payload stays plain data.
    """
    from ..params import default_params
    from ..runtime.driver import run_hw
    from .figures import make_workload

    w = make_workload(workload_name, preset, seed)
    loop = next(iter(w.executions(1)))
    params = default_params(w.num_processors)
    result = run_hw(loop, params, w.hw_config())
    return {
        "rep": rep,
        "passed": result.passed,
        "wall": result.wall,
    }


def write_profile_outputs(
    session: ProfileSession,
    out: str,
    metadata: Optional[Dict[str, Any]] = None,
) -> str:
    """Write the merged trace + rollup JSON; return a text summary."""
    from .report import render_profile_rollup

    doc = session.merged_trace(metadata=metadata)
    _ensure_parent(out)
    with open(out, "w") as fp:
        json.dump(doc, fp)
    rollup = session.rollup()
    rollup_path = os.path.splitext(out)[0] + "-rollup.json"
    with open(rollup_path, "w") as fp:
        json.dump(rollup, fp, indent=2, sort_keys=True)
    return "\n".join(
        [
            render_profile_rollup(rollup),
            "",
            f"wrote {out} ({len(doc['traceEvents'])} trace events) — open in "
            "https://ui.perfetto.dev",
            f"wrote {rollup_path}",
        ]
    )


def run_profile(
    preset: str = "quick",
    seed: int = 2026,
    workload: str = "Adm",
    out: str = "repro-profile.json",
    jobs: Optional[int] = 4,
    reps: int = PROFILE_REPS,
) -> str:
    """Profile a small pooled sweep and write the merged trace + rollup."""
    session = ProfileSession(label=f"profile:{workload}")
    tasks = [
        PoolTask(
            _profile_point,
            (workload, preset, seed, rep),
            seed=derive_seed(seed, rep),
            label=f"run#{rep}",
        )
        for rep in range(reps)
    ]
    results = run_tasks(tasks, jobs=jobs, profile=session)
    ok = sum(1 for r in results if r and r["passed"])
    header = (
        f"profile: {workload} ({preset}) x {reps} reps, "
        f"jobs={jobs} — {ok}/{len(results)} passed"
    )
    metadata = {"workload": workload, "preset": preset, "seed": seed}
    return header + "\n" + write_profile_outputs(session, out, metadata=metadata)
