"""The ``bench`` subcommand: simulator-throughput regression harness.

Measures host wall-clock time of one representative speculative run
across the full engine x instrumentation matrix — both execution
tiers (``scalar``, the reference; ``vector``, the whole-phase numpy
kernel tier) under three
instrumentation levels: bare (no bus attached), telemetry (full
event recording) and monitors (invariant monitors + forensics
recorder).  Every matrix cell runs under the same static-chunk
schedule so the scalar/vector columns compare like for like.
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
        "vector": {...},
        "scalar-fail":    {"bare": {...}},   # scenario rows, bare only
        "vector-fail":    {"bare": {...}},
        "scalar-dynamic": {"bare": {...}},
        "vector-dynamic": {"bare": {...}}
      },
      "bare": {...}, "telemetry": {...}, "monitors": {...},   # scalar
      "provenance": {"config_hash": ..., "code_version": ...}
    }

Beyond the matrix, two *scenario* rows time the vector tier against
scalar off its static PASS path: ``fail`` (the same workload with one
injected cross-processor flow dependence, so every run aborts and
re-executes serially; the vector tier localizes the FAIL natively) and
``dynamic`` (dynamic self-scheduling on a contention-free machine,
which the vector tier delegates to scalar).  Scenario rows are
bare-level only and keyed as pseudo-engines (``vector-fail`` etc.) so
``benchdiff`` picks them up without a schema change.

The top-level ``bare``/``telemetry``/``monitors`` keys mirror the
scalar engine for continuity with the PR3-era document shape.  The CI
perf job runs this, diffs ``iters_per_s`` per cell against the
committed baseline (``BENCH_BASELINE.json``) and warns — non-gating — on a
>15% drop; the hard <3% telemetry-off gate lives in
``benchmarks/bench_simulator_throughput.py`` and is unaffected.

With ``jobs > 1`` the matrix cells fan out across worker processes
(one task per cell, every repetition timed *inside* its worker, GC
paused there too).  Parallel cells contend for the host's cores, so
absolute numbers are noisier than the default interleaved serial
measurement — use ``jobs=1`` (the default) for baseline documents.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time
from typing import Callable, Dict, List, Tuple

from ..obs import MonitorSuite, Telemetry
from ..params import ContentionModel, small_test_params
from ..runtime.driver import RunConfig, run_hw
from ..runtime.schedule import SchedulePolicy, ScheduleSpec
from ..workloads.synthetic import failing_loop, parallel_nonpriv_loop
from .pool import PoolTask, run_tasks

BENCH_ITERATIONS = 48
BENCH_ELEMENTS = 1024
BENCH_PROCESSORS = 4
ENGINES = ("scalar", "vector")
LEVELS = ("bare", "telemetry", "monitors")
#: Scenario rows: scalar vs vector off the static PASS path —
#: every-run-FAILs (localized natively) and dynamic self-scheduling
#: (delegated to scalar).
SCENARIOS = ("fail", "dynamic")
SCENARIO_ENGINES = ENGINES


def _bench_config(engine: str, **extra) -> RunConfig:
    # Static-chunk for every matrix cell so the scalar/vector
    # columns measure the same schedule (the scenario rows below cover
    # the dynamic-schedule comparison explicitly).
    return RunConfig(
        engine=engine,
        schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK),
        **extra,
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


def _run_cell(engine: str, level: str, loop, params) -> None:
    if level == "bare":
        run_hw(loop, params, _bench_config(engine))
    elif level == "telemetry":
        run_hw(loop, params, _bench_config(engine, telemetry=Telemetry()))
    else:
        result = run_hw(
            loop, params, _bench_config(engine, monitors=MonitorSuite())
        )
        assert result.violations == []


def _bench_cell_times(engine: str, level: str, reps: int) -> List[float]:
    """Pool task: warm up and time one matrix cell, wholly in-worker."""
    loop, params = _make_bench_workload()
    _run_cell(engine, level, loop, params)  # warmup, not measured
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return [
            _measure(lambda: _run_cell(engine, level, loop, params))
            for _ in range(reps)
        ]
    finally:
        if was_enabled:
            gc.enable()


def _make_scenario_workload(scenario: str):
    """``(loop, params, config_factory, expect_passed)`` for a scenario row."""
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

    def config(engine: str) -> RunConfig:
        return RunConfig(engine=engine, schedule=schedule)

    return loop, params, config, expect_passed


def _run_scenario_cell(engine, scenario, loop, params, config, expect_passed):
    result = run_hw(loop, params, config(engine))
    # A wrong verdict means the cell is not measuring the path it
    # claims to (e.g. the FAIL row silently passing).
    assert result.passed is expect_passed, (engine, scenario)


def _bench_scenario_times(engine: str, scenario: str, reps: int) -> List[float]:
    """Pool task: warm up and time one scenario row, wholly in-worker."""
    loop, params, config, expect_passed = _make_scenario_workload(scenario)
    _run_scenario_cell(engine, scenario, loop, params, config, expect_passed)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return [
            _measure(
                lambda: _run_scenario_cell(
                    engine, scenario, loop, params, config, expect_passed
                )
            )
            for _ in range(reps)
        ]
    finally:
        if was_enabled:
            gc.enable()


def run_bench(
    out: str = "BENCH_BASELINE.json",
    reps: int = 7,
    jobs: int = 1,
    profile=None,
    ledger=None,
) -> str:
    """Measure the matrix and write ``out``.

    ``profile`` (a ``repro.obs.spans.ProfileSession``) routes every cell
    through the pool with per-task capture — even at ``jobs=1`` — so a
    merged trace shows where each cell's wall time goes.  Profiled cells
    carry the capture's event-bus overhead; never use a profiled run to
    regenerate a committed baseline document.

    ``ledger`` (a ``repro.obs.RunLedger``) archives the finished
    document as one bench history point — the timeline behind
    ``repro ledger trend`` and ``benchdiff --from-ledger``.
    """
    loop, params = _make_bench_workload()
    cells: List[Tuple[str, str]] = [
        (engine, level) for engine in ENGINES for level in LEVELS
    ]
    scenario_cells: List[Tuple[str, str]] = [
        (engine, scenario)
        for scenario in SCENARIOS
        for engine in SCENARIO_ENGINES
    ]
    if (jobs is not None and jobs != 1) or profile is not None:
        outputs = run_tasks(
            [
                PoolTask(_bench_cell_times, cell + (reps,),
                         label=f"bench:{cell[0]}/{cell[1]}")
                for cell in cells
            ]
            + [
                PoolTask(_bench_scenario_times, cell + (reps,),
                         label=f"bench:{cell[0]}-{cell[1]}")
                for cell in scenario_cells
            ],
            jobs=jobs,
            profile=profile,
        )
        times = dict(zip(cells + scenario_cells, outputs))
    else:
        times = {cell: [] for cell in cells + scenario_cells}
        scenarios = {s: _make_scenario_workload(s) for s in SCENARIOS}
        for engine, level in cells:  # warmup round, not measured
            _run_cell(engine, level, loop, params)
        for engine, scenario in scenario_cells:
            _run_scenario_cell(engine, scenario, *scenarios[scenario])
        # Collector pauses land randomly inside the short timed runs and
        # dominate rep-to-rep variance; pause collection while measuring
        # (the simulator allocates heavily but builds no cycles).
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            # Repetitions interleave across cells so host-load drift
            # hits every cell equally.
            for _ in range(reps):
                for engine, level in cells:
                    times[(engine, level)].append(
                        _measure(lambda: _run_cell(engine, level, loop, params))
                    )
                for engine, scenario in scenario_cells:
                    times[(engine, scenario)].append(
                        _measure(
                            lambda: _run_scenario_cell(
                                engine, scenario, *scenarios[scenario]
                            )
                        )
                    )
        finally:
            if was_enabled:
                gc.enable()

    best = {cell: min(ts) for cell, ts in times.items()}

    def _cell_doc(engine: str, level: str) -> Dict[str, float]:
        cell = {"best_s": best[(engine, level)]}
        if level == "bare":
            cell["iters_per_s"] = BENCH_ITERATIONS / best[(engine, level)]
        else:
            cell["overhead_pct"] = 100.0 * (
                best[(engine, level)] / best[(engine, "bare")] - 1.0
            )
        return cell

    engines_doc = {
        engine: {level: _cell_doc(engine, level) for level in LEVELS}
        for engine in ENGINES
    }
    for engine, scenario in scenario_cells:
        engines_doc[f"{engine}-{scenario}"] = {
            "bare": {
                "best_s": best[(engine, scenario)],
                "iters_per_s": BENCH_ITERATIONS / best[(engine, scenario)],
            }
        }
    provenance = run_hw(loop, params, _bench_config("scalar")).provenance
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
        # Scalar-engine mirror of the PR3-era top-level shape.
        "bare": engines_doc["scalar"]["bare"],
        "telemetry": engines_doc["scalar"]["telemetry"],
        "monitors": engines_doc["scalar"]["monitors"],
        "provenance": provenance.as_dict() if provenance is not None else None,
    }
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    lines = [
        f"bench: {loop.name} on {BENCH_PROCESSORS} procs, best of {reps}",
    ]
    for engine in ENGINES:
        e = engines_doc[engine]
        lines.append(
            f"  {engine:6s} bare: {e['bare']['best_s'] * 1e3:8.1f} ms "
            f"({e['bare']['iters_per_s']:,.0f} loop iterations/s)  "
            f"telemetry {e['telemetry']['overhead_pct']:+.1f}%  "
            f"monitors {e['monitors']['overhead_pct']:+.1f}%"
        )
    lines.append(
        "  bare speedup: "
        f"vector/scalar {best[('scalar', 'bare')] / best[('vector', 'bare')]:.2f}x"
    )
    for scenario in SCENARIOS:
        s, v = best[("scalar", scenario)], best[("vector", scenario)]
        lines.append(
            f"  {scenario:7s} scalar: {s * 1e3:8.1f} ms  "
            f"vector: {v * 1e3:8.1f} ms  (vector/scalar {s / v:.2f}x)"
        )
    if ledger is not None:
        key, deduped = ledger.record_bench(doc, label=out)
        lines.append(
            f"archived as ledger record {key[:12]}"
            + (" (already present)" if deduped else "")
        )
    lines.append(f"wrote {out}")
    return "\n".join(lines)
