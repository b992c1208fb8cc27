"""Scenario runner: a workload under Serial / Ideal / SW / HW.

Each workload is executed ``executions`` times (fresh machine per
execution, caches cold — §5.2 flushes caches between executions) and
results are averaged per execution, exactly as the paper reports.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..params import MachineParams, default_params
from ..runtime.driver import RunResult, run_hw, run_ideal, run_serial, run_sw
from ..sim.stats import TimeBreakdown
from ..types import Scenario
from ..workloads.base import Workload


@dataclasses.dataclass
class ScenarioAverages:
    """Per-execution averages of one scenario on one workload."""

    scenario: Scenario
    wall: float
    breakdown: TimeBreakdown
    executions: int
    failures: int
    runs: List[RunResult]


@dataclasses.dataclass
class WorkloadResults:
    """All four scenarios on one workload at one processor count."""

    workload: str
    num_processors: int
    scenarios: Dict[Scenario, ScenarioAverages]

    def speedup(self, scenario: Scenario) -> float:
        serial = self.scenarios[Scenario.SERIAL].wall
        return serial / self.scenarios[scenario].wall

    def normalized_breakdown(self, scenario: Scenario) -> TimeBreakdown:
        serial = self.scenarios[Scenario.SERIAL].wall
        return self.scenarios[scenario].breakdown.normalized_to(serial)

    def efficiency(self, scenario: Scenario) -> float:
        return self.speedup(scenario) / self.num_processors


def run_workload(
    workload: Workload,
    scenarios: Optional[List[Scenario]] = None,
    executions: Optional[int] = None,
    num_processors: Optional[int] = None,
    runs: Optional[Dict[tuple, RunResult]] = None,
    key: tuple = (),
) -> WorkloadResults:
    """Simulate ``workload`` under each scenario; average per execution.

    ``runs`` is a run store (``figures.RunStore``); ``key`` names the
    workload in it, and :func:`execution_runs` reads or fills each run."""
    chosen = scenarios or [Scenario.SERIAL, Scenario.IDEAL, Scenario.SW, Scenario.HW]
    procs = num_processors or workload.num_processors
    params = default_params(procs)
    count = workload.default_executions if executions is None else executions
    done = [
        execution_runs(workload, index, chosen, params, runs, key)
        for index in range(count)
    ]
    results: Dict[Scenario, ScenarioAverages] = {}
    for scenario in chosen:
        runs_of = [by_scenario[scenario] for by_scenario in done]
        n = len(runs_of)
        avg_breakdown = TimeBreakdown()
        for r in runs_of:
            avg_breakdown.add(r.breakdown.scaled(1.0 / n))
        results[scenario] = ScenarioAverages(
            scenario=scenario,
            wall=sum(r.wall for r in runs_of) / n,
            breakdown=avg_breakdown,
            executions=n,
            failures=sum(0 if r.passed else 1 for r in runs_of),
            runs=runs_of,
        )
    return WorkloadResults(
        workload=workload.name, num_processors=procs, scenarios=results
    )


def execution_runs(
    workload: Workload,
    index: int,
    scenarios: List[Scenario],
    params: MachineParams,
    runs: Optional[Dict[tuple, RunResult]] = None,
    key: tuple = (),
) -> Dict[Scenario, RunResult]:
    """Execution ``index`` of ``workload`` under Serial and ``scenarios``,
    each run read from ``runs`` under ``key + (index, scenario,
    processors)`` or simulated into it.  Serial is keyed at 1 processor
    (``run_serial`` collapses the machine) and is the SW/HW failure-path
    reference; the loop is built only when a run is missing."""
    runs = {} if runs is None else runs
    loop = None
    out: Dict[Scenario, RunResult] = {}
    for scenario in [Scenario.SERIAL] + [s for s in scenarios if s is not Scenario.SERIAL]:
        procs = 1 if scenario is Scenario.SERIAL else params.num_processors
        run_key = key + (index, scenario, procs)
        if run_key not in runs:
            loop = workload.execution(index) if loop is None else loop
            serial = out.get(Scenario.SERIAL)
            if scenario is Scenario.SERIAL:
                runs[run_key] = run_serial(loop, params)
            elif scenario is Scenario.IDEAL:
                runs[run_key] = run_ideal(loop, params, workload.ideal_config())
            elif scenario is Scenario.SW:
                runs[run_key] = run_sw(loop, params, workload.sw_config(), serial_result=serial)
            else:
                runs[run_key] = run_hw(loop, params, workload.hw_config(), serial_result=serial)
        out[scenario] = runs[run_key]
    return out
