"""Per-figure/table data generators for the paper's evaluation (§6).

Every public function returns plain dataclass rows so the report layer,
the benchmarks and the tests can share them.  ``preset`` selects the
simulation size: ``quick`` for benches/CI, ``default`` for the numbers
recorded in EXPERIMENTS.md, ``full`` for long runs closer to the
paper's iteration counts (the *shape* of the results is stable across
presets; only noise shrinks).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

from ..core.accessbits import state_bits_per_element
from ..params import default_params
from ..runtime.driver import RunConfig, RunResult, run_hw, run_serial, run_sw
from ..runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from ..sim.stats import TimeBreakdown
from ..trace.loop import ArraySpec, Loop
from ..trace.ops import AccessOp, read
from ..types import ProtocolKind, Scenario
from ..workloads import AdmWorkload, OceanWorkload, P3mWorkload, TrackWorkload
from ..workloads.base import Workload
from .scenarios import WorkloadResults, execution_runs, run_workload

#: per-preset (scale, executions) for each workload
PRESETS: Dict[str, Dict[str, Tuple[float, int]]] = {
    "quick": {"Ocean": (0.15, 2), "P3m": (0.05, 1), "Adm": (0.25, 2), "Track": (0.6, 3)},
    "default": {"Ocean": (0.4, 4), "P3m": (0.12, 1), "Adm": (0.75, 4), "Track": (1.0, 6)},
    "full": {"Ocean": (1.0, 16), "P3m": (1.0, 1), "Adm": (1.0, 12), "Track": (2.0, 12)},
}

WORKLOAD_CLASSES = {
    "Ocean": OceanWorkload,
    "P3m": P3mWorkload,
    "Adm": AdmWorkload,
    "Track": TrackWorkload,
}


def make_workload(name: str, preset: str = "quick", seed: int = 2026) -> Workload:
    scale, _ = PRESETS[preset][name]
    return WORKLOAD_CLASSES[name](seed=seed, scale=scale)


def preset_executions(name: str, preset: str) -> int:
    return PRESETS[preset][name][1]


#: A caller-owned memo of simulated runs, one ``RunResult`` per
#: generator coordinate ``(workload, preset, seed, execution, scenario,
#: num_processors)``: ``execution`` is an execution index or
#: :data:`FORCED_FAILURE`, and Serial keys use 1 processor.  Builders
#: handed one store simulate each distinct run once between them (Figs
#: 12 and 14 and Table 3 mostly re-read Fig 11's runs).  It holds no
#: loops: a missing run rebuilds its loop.
RunStore = Dict[Tuple[str, str, int, Union[int, str], Scenario, int], RunResult]

#: the ``execution`` coordinate of Fig 13's forced-failure runs
FORCED_FAILURE = "fail"


def _workload_results(
    name: str, preset: str, seed: int, procs: Optional[int] = None,
    runs: Optional[RunStore] = None,
) -> WorkloadResults:
    """All four scenarios of ``name`` on ``procs`` processors (default:
    the workload's own), each run read from ``runs`` or simulated into it."""
    return run_workload(
        make_workload(name, preset, seed), executions=preset_executions(name, preset),
        num_processors=procs, runs=runs, key=(name, preset, seed),
    )


# ----------------------------------------------------------------------
# Figure 11 — speedups of Ideal / SW / HW
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Fig11Row:
    workload: str
    num_processors: int
    ideal: float
    sw: float
    hw: float
    results: WorkloadResults


def fig11_speedups(
    preset: str = "quick",
    workloads: Optional[List[str]] = None,
    seed: int = 2026,
    runs: Optional[RunStore] = None,
) -> List[Fig11Row]:
    """Figure 11: loop speedups (Ocean on 8 processors, rest on 16).

    ``runs`` is a :data:`RunStore` shared with other builders; without
    one every workload is simulated afresh."""
    rows: List[Fig11Row] = []
    for name in workloads or ["Ocean", "P3m", "Adm", "Track"]:
        res = _workload_results(name, preset, seed, runs=runs)
        rows.append(
            Fig11Row(
                workload=name,
                num_processors=res.num_processors,
                ideal=res.speedup(Scenario.IDEAL),
                sw=res.speedup(Scenario.SW),
                hw=res.speedup(Scenario.HW),
                results=res,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 12 — execution time breakdown, normalized to Serial
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Fig12Row:
    workload: str
    scenario: Scenario
    num_processors: int
    busy: float
    sync: float
    mem: float

    @property
    def total(self) -> float:
        return self.busy + self.sync + self.mem


def fig12_breakdown(
    preset: str = "quick",
    workloads: Optional[List[str]] = None,
    seed: int = 2026,
    runs: Optional[RunStore] = None,
) -> List[Fig12Row]:
    """Figure 12: Busy/Sync/Mem per scenario, normalized to Serial.

    These are Fig 11's runs: pass the same :data:`RunStore` as
    ``runs`` to read them instead of simulating them again."""
    rows: List[Fig12Row] = []
    for name in workloads or ["Ocean", "P3m", "Adm", "Track"]:
        res = _workload_results(name, preset, seed, runs=runs)
        for scenario in (Scenario.SERIAL, Scenario.IDEAL, Scenario.SW, Scenario.HW):
            bd = res.normalized_breakdown(scenario)
            procs = 1 if scenario is Scenario.SERIAL else res.num_processors
            rows.append(
                Fig12Row(name, scenario, procs, bd.busy, bd.sync, bd.mem)
            )
    return rows


# ----------------------------------------------------------------------
# Figure 13 — slowdown when the test fails (forced failures, §6.2)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Fig13Row:
    workload: str
    scenario: Scenario
    normalized_time: float  # vs Serial
    breakdown: TimeBreakdown
    detection_cycle: Optional[float] = None


def _failure_execution(name: str, workload: Workload) -> Union[int, str]:
    """The ``execution`` coordinate of a forced-failure Serial run.
    Track fails on one of its own executions, unmodified, so its Serial
    run is that execution's; the other loops are altered."""
    if name != "Track":
        return FORCED_FAILURE
    return next(i for i in range(workload.paper_executions) if workload.is_dependent_execution(i))


def _forced_failure_loop(
    name: str, preset: str, seed: int
) -> Tuple[Loop, RunConfig, RunConfig]:
    """Build the §6.2 forced-failure instance of each loop and the
    (hw_config, sw_config) under which it must fail."""
    workload = make_workload(name, preset, seed)
    loop = next(workload.executions(1))
    if name == "Ocean":
        # "insert a cross-iteration dependence between iterations 1 and 2".
        # Iterations 1 and 2 must land on different processors for either
        # test to (correctly) fail, so both schemes run at iteration
        # granularity here: single-iteration cyclic blocks for HW, the
        # iteration-wise test for SW.
        victim = next(
            op for op in loop.iterations[0] if isinstance(op, AccessOp) and op.is_write
        )
        loop.iterations[1].insert(0, read(victim.array, victim.index))
        hw = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 1, VirtualMode.CHUNK)
        )
        sw = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION)
        )
        return loop, hw, sw
    if name in ("P3m", "Adm"):
        # "we do not privatize the arrays under test and run the
        # non-privatization algorithm" -> fails on the scratch arrays.
        arrays = [
            dataclasses.replace(a, protocol=ProtocolKind.NONPRIV)
            if a.privatized
            else a
            for a in loop.arrays
        ]
        downgraded = Loop(loop.name + ".nonpriv", arrays, loop.iterations)
        # The iteration-wise software test works under any scheduling, so
        # keep the workload's own policy (dynamic for the imbalanced P3m).
        base = workload.sw_config().schedule
        sw = RunConfig(
            schedule=ScheduleSpec(
                base.policy, base.chunk_iterations, VirtualMode.ITERATION
            )
        )
        return downgraded, workload.hw_config(), sw
    # Track: "run the iteration-wise tests on the loop instantiation
    # that needs processor-wise tests to pass".  For the hardware
    # scheme that means single-iteration cyclic blocks, which split the
    # dependent pairs across processors.
    loop = workload.execution(_failure_execution(name, workload))
    hw = RunConfig(schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 1, VirtualMode.CHUNK))
    sw = RunConfig(
        schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION)
    )
    return loop, hw, sw


def fig13_failure(
    preset: str = "quick",
    workloads: Optional[List[str]] = None,
    seed: int = 2026,
    runs: Optional[RunStore] = None,
) -> List[Fig13Row]:
    """Figure 13: execution time of one forced-failure instance of each
    loop under Serial, SW and HW, normalized to Serial.

    ``runs`` is a :data:`RunStore` shared with other builders; without
    one, no run outlives its loop's rows."""
    rows: List[Fig13Row] = []
    for name in workloads or ["Ocean", "P3m", "Adm", "Track"]:
        rows += _failure_rows(name, preset, seed, {} if runs is None else runs)
    return rows


def _failure_rows(name: str, preset: str, seed: int, runs: RunStore) -> List[Fig13Row]:
    """Fig 13's rows of one loop, its runs read from ``runs`` or
    simulated into it."""
    workload = make_workload(name, preset, seed)
    execution = _failure_execution(name, workload)
    serial_key = (name, preset, seed, execution, Scenario.SERIAL, 1)
    sw_key, hw_key = (
        (name, preset, seed, FORCED_FAILURE, s, workload.num_processors)
        for s in (Scenario.SW, Scenario.HW)
    )
    if hw_key not in runs:
        loop, hw_cfg, sw_cfg = _forced_failure_loop(name, preset, seed)
        params = default_params(workload.num_processors)
        if serial_key not in runs:
            runs[serial_key] = run_serial(loop, params)
        runs[sw_key] = run_sw(loop, params, sw_cfg, serial_result=runs[serial_key])
        runs[hw_key] = run_hw(loop, params, hw_cfg, serial_result=runs[serial_key])
    serial = runs[serial_key]
    return [Fig13Row(name, Scenario.SERIAL, 1.0, serial.breakdown.normalized_to(serial.wall))] + [
        Fig13Row(
            name,
            run.scenario,
            run.wall / serial.wall,
            run.breakdown.normalized_to(serial.wall),
            detection_cycle=run.detection_cycle,
        )
        for run in (runs[sw_key], runs[hw_key])
    ]


# ----------------------------------------------------------------------
# Figure 14 — scalability (8 vs 16 processors)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Fig14Row:
    workload: str
    num_processors: int
    ideal: float
    sw: float
    hw: float


def fig14_scalability(
    preset: str = "quick",
    workloads: Optional[List[str]] = None,
    processor_counts: Tuple[int, ...] = (8, 16),
    seed: int = 2026,
    runs: Optional[RunStore] = None,
) -> List[Fig14Row]:
    """Figure 14: speedups at 8 and 16 processors.  Ocean is excluded
    (too small to run on 16, §6.3).

    The 16-processor bars are Fig 11's runs: pass the same
    :data:`RunStore` as ``runs`` to read them from it."""
    rows: List[Fig14Row] = []
    for name in workloads or ["P3m", "Adm", "Track"]:
        for procs in processor_counts:
            res = _workload_results(name, preset, seed, procs, runs)
            rows.append(
                Fig14Row(
                    name,
                    procs,
                    res.speedup(Scenario.IDEAL),
                    res.speedup(Scenario.SW),
                    res.speedup(Scenario.HW),
                )
            )
    return rows


# ----------------------------------------------------------------------
# Table 1 — workload characteristics (§5.2)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Table1Row:
    name: str
    source_loop: str
    paper_executions: int
    typical_iterations: str
    working_set: str
    element_bytes: str
    algorithm: str
    num_processors: int
    measured_accesses: int
    measured_marked_fraction: float


def table1_workloads(preset: str = "quick", seed: int = 2026) -> List[Table1Row]:
    rows: List[Table1Row] = []
    for name in ("Ocean", "P3m", "Adm", "Track"):
        workload = make_workload(name, preset, seed)
        ch = workload.characteristics
        loops = list(workload.executions(min(2, preset_executions(name, preset))))
        stats = [loop.stats() for loop in loops]
        rows.append(
            Table1Row(
                name=ch.name,
                source_loop=ch.source_loop,
                paper_executions=ch.paper_executions,
                typical_iterations=ch.typical_iterations,
                working_set=ch.working_set,
                element_bytes=ch.element_bytes,
                algorithm=ch.algorithm,
                num_processors=ch.num_processors,
                measured_accesses=sum(s.accesses for s in stats) // len(stats),
                measured_marked_fraction=(
                    sum(s.marked_fraction for s in stats) / len(stats)
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 3 — protocol traffic (§3.2: "minimize the increase in traffic")
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Table3Row:
    workload: str
    marked_accesses: int
    hw_messages: int
    hw_messages_per_marked_access: float
    sw_shadow_accesses: int
    sw_shadow_per_marked_access: float


def table3_traffic(
    preset: str = "quick",
    workloads: Optional[List[str]] = None,
    seed: int = 2026,
    runs: Optional[RunStore] = None,
) -> List[Table3Row]:
    """Extra traffic each scheme adds per access to an array under test.

    The hardware scheme adds *messages* (First/ROnly updates, read-first
    and first-write signals, read-ins); the software scheme adds real
    *memory accesses* to the shadow arrays.  The paper's design goal is
    that the hardware extensions stay well below one extra transaction
    per marked access.  The runs are one execution's workload runs, so
    a :data:`RunStore` shared with Fig 11 (``runs``) holds most of them.
    """
    rows: List[Table3Row] = []
    for name in workloads or ["Ocean", "P3m", "Adm", "Track"]:
        workload = make_workload(name, preset, seed)
        # Pick the execution with the most marked accesses among the
        # first few (Track's fraction varies from 0% upward, §5.2).
        stats = [workload.execution(i).stats() for i in range(min(4, workload.paper_executions))]
        counts = [s.marked_reads + s.marked_writes for s in stats]
        marked = max(counts)
        done = execution_runs(
            workload, counts.index(marked), [Scenario.HW, Scenario.SW],
            default_params(workload.num_processors), runs, (name, preset, seed),
        )
        hw, sw = done[Scenario.HW], done[Scenario.SW]
        # SW shadow traffic = its total accesses minus the loop's own
        # and minus the HW run's (same data accesses + backup).
        sw_shadow = max(0, sw.mem.accesses - hw.mem.accesses)
        rows.append(
            Table3Row(
                workload=name,
                marked_accesses=marked,
                hw_messages=hw.spec_messages,
                hw_messages_per_marked_access=(
                    hw.spec_messages / marked if marked else 0.0
                ),
                sw_shadow_accesses=sw_shadow,
                sw_shadow_per_marked_access=(
                    sw_shadow / marked if marked else 0.0
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 2 — per-element state cost, HW vs SW (§3.4)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Table2Row:
    num_processors: int
    max_iterations: int
    read_in: bool
    hw_bits: int
    sw_bits: int


def table2_state(
    processor_counts: Tuple[int, ...] = (8, 16, 32, 64),
    max_iterations: int = 2 ** 16,
) -> List[Table2Row]:
    rows: List[Table2Row] = []
    for procs in processor_counts:
        for read_in in (False, True):
            bits = state_bits_per_element(procs, max_iterations, read_in)
            rows.append(
                Table2Row(
                    procs, max_iterations, read_in,
                    bits["hardware"], bits["software"],
                )
            )
    return rows
