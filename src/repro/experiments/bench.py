"""The ``bench`` subcommand: the simulator-throughput microbench.

Measures host wall-clock time of one representative speculative run
under three instrumentation levels: bare (no bus attached), telemetry
(full event recording) and monitors (invariant monitors + forensics
recorder).  Every level runs under the same static-chunk schedule.
Repetitions are interleaved so host-load drift hits every cell
equally, and the result is a machine-readable JSON document::

    {
      "benchmark": "simulator-throughput",
      "workload": {...},
      "reps": 7,
      "engines": {
        "scalar": {"bare": {"best_s": ..., "iters_per_s": ...},
                   "telemetry": {"best_s": ..., "overhead_pct": ...},
                   "monitors":  {"best_s": ..., "overhead_pct": ...}},
        "scalar-fail":    {"bare": {...}},   # scenario rows, bare only
        "scalar-dynamic": {"bare": {...}}
      },
      "provenance": {"config_hash": ..., "code_version": ...}
    }

Beyond the matrix, two *scenario* rows time runs off the static PASS
path: ``fail`` (the same workload with one injected cross-processor
flow dependence, so every run aborts and re-executes serially) and
``dynamic`` (dynamic self-scheduling on a contention-free machine).
Scenario rows are bare-level only and keyed as pseudo-engines
(``scalar-fail`` etc.) beside ``scalar`` under ``engines``.

The CI ``bench`` job runs this, checks the document's shape and
uploads it (non-gating).  The gates on the null paths — telemetry
attached but idle, an ambient span profiler, a ledger-enabled run,
each within 3% of bare — live in
``benchmarks/bench_simulator_throughput.py``; the reproduction's own
wall time, memory and start-up are what ``perfbench/`` measures.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time
from typing import Callable, Dict

from ..obs import MonitorSuite, Telemetry
from ..params import ContentionModel, small_test_params
from ..runtime.driver import RunConfig, run_hw
from ..runtime.schedule import SchedulePolicy, ScheduleSpec
from ..workloads.synthetic import failing_loop, parallel_nonpriv_loop

BENCH_ITERATIONS = 48
BENCH_ELEMENTS = 1024
BENCH_PROCESSORS = 4
LEVELS = ("bare", "telemetry", "monitors")
#: Scenario rows off the static PASS path: every run FAILs, and
#: dynamic self-scheduling.
SCENARIOS = ("fail", "dynamic")


def _bench_config(**extra) -> RunConfig:
    # Static-chunk for every matrix cell (the scenario rows below cover
    # the dynamic schedule explicitly).
    return RunConfig(
        schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK), **extra
    )


def _measure(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _make_bench_workload():
    loop = parallel_nonpriv_loop(
        "bench-throughput", elements=BENCH_ELEMENTS, iterations=BENCH_ITERATIONS
    )
    return loop, small_test_params(BENCH_PROCESSORS)


def _run_cell(level: str, loop, params) -> None:
    if level == "bare":
        run_hw(loop, params, _bench_config())
    elif level == "telemetry":
        run_hw(loop, params, _bench_config(telemetry=Telemetry()))
    else:
        result = run_hw(loop, params, _bench_config(monitors=MonitorSuite()))
        assert result.violations == []


def _make_scenario_workload(scenario: str):
    """``(loop, params, config, expect_passed)`` for a scenario row."""
    if scenario == "fail":
        # Inject the flow dependence across the static-chunk boundary
        # between processors 1 and 2 (12 iterations per chunk on 4
        # procs), so every run aborts and re-executes serially.
        loop = failing_loop(
            BENCH_ITERATIONS // 2, "bench-fail",
            elements=BENCH_ELEMENTS, iterations=BENCH_ITERATIONS,
        )
        params = small_test_params(BENCH_PROCESSORS)
        schedule = ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK)
        expect_passed = False
    elif scenario == "dynamic":
        loop = parallel_nonpriv_loop(
            "bench-dynamic", elements=BENCH_ELEMENTS,
            iterations=BENCH_ITERATIONS,
        )
        # Contention off keeps the row comparable with the committed
        # baseline document.
        params = dataclasses.replace(
            small_test_params(BENCH_PROCESSORS),
            contention=ContentionModel(enabled=False),
        )
        schedule = ScheduleSpec(policy=SchedulePolicy.DYNAMIC)
        expect_passed = True
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return loop, params, RunConfig(schedule=schedule), expect_passed


def _run_scenario_cell(scenario, loop, params, config, expect_passed):
    result = run_hw(loop, params, config)
    # A wrong verdict means the cell is not measuring the path it
    # claims to (e.g. the FAIL row silently passing).
    assert result.passed is expect_passed, scenario


def run_bench(out: str = "BENCH_BASELINE.json", reps: int = 7) -> str:
    """Measure the matrix in this process and write ``out``."""
    loop, params = _make_bench_workload()
    times = {cell: [] for cell in LEVELS + SCENARIOS}
    scenarios = {s: _make_scenario_workload(s) for s in SCENARIOS}
    for level in LEVELS:  # warmup round, not measured
        _run_cell(level, loop, params)
    for scenario in SCENARIOS:
        _run_scenario_cell(scenario, *scenarios[scenario])
    # Collector pauses land randomly inside the short timed runs and
    # dominate rep-to-rep variance; pause collection while measuring
    # (the simulator allocates heavily but builds no cycles).
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        # Repetitions interleave across cells so host-load drift hits
        # every cell equally.
        for _ in range(reps):
            for level in LEVELS:
                times[level].append(
                    _measure(lambda: _run_cell(level, loop, params))
                )
            for scenario in SCENARIOS:
                times[scenario].append(
                    _measure(
                        lambda: _run_scenario_cell(
                            scenario, *scenarios[scenario]
                        )
                    )
                )
    finally:
        if was_enabled:
            gc.enable()

    best = {cell: min(ts) for cell, ts in times.items()}

    def _cell_doc(level: str) -> Dict[str, float]:
        cell = {"best_s": best[level]}
        if level == "bare":
            cell["iters_per_s"] = BENCH_ITERATIONS / best[level]
        else:
            cell["overhead_pct"] = 100.0 * (best[level] / best["bare"] - 1.0)
        return cell

    scalar = {level: _cell_doc(level) for level in LEVELS}
    engines_doc = {"scalar": scalar}
    for scenario in SCENARIOS:
        engines_doc[f"scalar-{scenario}"] = {
            "bare": {
                "best_s": best[scenario],
                "iters_per_s": BENCH_ITERATIONS / best[scenario],
            }
        }
    provenance = run_hw(loop, params, _bench_config()).provenance
    doc = {
        "benchmark": "simulator-throughput",
        "workload": {
            "loop": loop.name,
            "iterations": BENCH_ITERATIONS,
            "elements": BENCH_ELEMENTS,
            "num_processors": BENCH_PROCESSORS,
        },
        "reps": reps,
        "engines": engines_doc,
        "provenance": provenance.as_dict() if provenance is not None else None,
    }
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    lines = [
        f"bench: {loop.name} on {BENCH_PROCESSORS} procs, best of {reps}",
        f"  bare: {scalar['bare']['best_s'] * 1e3:8.1f} ms "
        f"({scalar['bare']['iters_per_s']:,.0f} loop iterations/s)  "
        f"telemetry {scalar['telemetry']['overhead_pct']:+.1f}%  "
        f"monitors {scalar['monitors']['overhead_pct']:+.1f}%",
    ]
    for scenario in SCENARIOS:
        lines.append(f"  {scenario:7s} {best[scenario] * 1e3:8.1f} ms")
    lines.append(f"wrote {out}")
    return "\n".join(lines)
