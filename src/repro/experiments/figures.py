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
from typing import Dict, List, Optional, Tuple

from ..core.accessbits import state_bits_per_element
from ..params import default_params
from ..runtime.driver import RunConfig, run_hw, run_serial, run_sw
from ..runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from ..sim.stats import TimeBreakdown
from ..trace.loop import ArraySpec, Loop
from ..trace.ops import AccessOp, read
from ..types import ProtocolKind, Scenario
from ..workloads import AdmWorkload, OceanWorkload, P3mWorkload, TrackWorkload
from ..workloads.base import Workload
from .scenarios import WorkloadResults, run_workload

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


#: A caller-owned store of simulated workloads, keyed by
#: ``(name, preset, seed, num_processors)``.  Figs 11 and 12 plot the
#: same Serial/Ideal/SW/HW runs, and Fig 14's bars at a workload's own
#: processor count are those runs again, so builders handed one store
#: simulate each workload once between them.
RunStore = Dict[Tuple[str, str, int, int], WorkloadResults]


def _workload_results(
    name: str,
    preset: str,
    seed: int,
    num_processors: Optional[int] = None,
    runs: Optional[RunStore] = None,
) -> WorkloadResults:
    """All four scenarios of ``name`` at ``num_processors`` (default: the
    workload's own count), read from ``runs`` or simulated into it."""
    runs = {} if runs is None else runs
    workload = make_workload(name, preset, seed)
    procs = num_processors or workload.num_processors
    key = (name, preset, seed, procs)
    if key not in runs:
        runs[key] = run_workload(
            workload,
            executions=preset_executions(name, preset),
            num_processors=procs,
        )
    return runs[key]


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
    dep_index = next(
        i for i in range(workload.paper_executions)
        if workload.is_dependent_execution(i)
    )
    loop = workload.execution(dep_index)
    hw = RunConfig(schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 1, VirtualMode.CHUNK))
    sw = RunConfig(
        schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION)
    )
    return loop, hw, sw


def fig13_failure(
    preset: str = "quick", workloads: Optional[List[str]] = None, seed: int = 2026
) -> List[Fig13Row]:
    """Figure 13: execution time of one forced-failure instance of each
    loop under Serial, SW and HW, normalized to Serial."""
    rows: List[Fig13Row] = []
    for name in workloads or ["Ocean", "P3m", "Adm", "Track"]:
        workload = make_workload(name, preset, seed)
        loop, hw_cfg, sw_cfg = _forced_failure_loop(name, preset, seed)
        params = default_params(workload.num_processors)
        serial = run_serial(loop, params)
        sw = run_sw(loop, params, sw_cfg, serial_result=serial)
        hw = run_hw(loop, params, hw_cfg, serial_result=serial)
        rows.append(
            Fig13Row(
                name, Scenario.SERIAL, 1.0,
                serial.breakdown.normalized_to(serial.wall),
            )
        )
        for run in (sw, hw):
            rows.append(
                Fig13Row(
                    name,
                    run.scenario,
                    run.wall / serial.wall,
                    run.breakdown.normalized_to(serial.wall),
                    detection_cycle=run.detection_cycle,
                )
            )
    return rows


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
    preset: str = "quick", workloads: Optional[List[str]] = None, seed: int = 2026
) -> List[Table3Row]:
    """Extra traffic each scheme adds per access to an array under test.

    The hardware scheme adds *messages* (First/ROnly updates, read-first
    and first-write signals, read-ins); the software scheme adds real
    *memory accesses* to the shadow arrays.  The paper's design goal is
    that the hardware extensions stay well below one extra transaction
    per marked access.
    """
    from ..runtime.driver import run_serial

    rows: List[Table3Row] = []
    for name in workloads or ["Ocean", "P3m", "Adm", "Track"]:
        workload = make_workload(name, preset, seed)
        # Pick the execution with the most marked accesses among the
        # first few (Track's fraction varies from 0% upward, §5.2).
        candidates = list(workload.executions(min(4, workload.paper_executions)))
        loop = max(
            candidates,
            key=lambda l: l.stats().marked_reads + l.stats().marked_writes,
        )
        stats = loop.stats()
        marked = stats.marked_reads + stats.marked_writes
        params = default_params(workload.num_processors)
        serial = run_serial(loop, params)
        hw = run_hw(loop, params, workload.hw_config(), serial_result=serial)
        sw = run_sw(loop, params, workload.sw_config(), serial_result=serial)
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
