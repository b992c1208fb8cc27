"""Scenario drivers: Serial, Ideal, SW (LRPD) and HW (this paper).

Each ``run_*`` function simulates one complete execution of one loop
under one scenario and returns a :class:`RunResult` with the wall time,
the Busy/Sync/Mem breakdown (Figure 12), per-phase times, and the test
outcome.  The failure path follows the paper's accounting (§6.2): the
execution time of a failed speculation is the parallel execution up to
detection (including backup), plus the restore, plus the Serial time.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Dict, Iterator, List, Optional

from .. import obs
from ..errors import SpeculationFailure
from ..lrpd.analysis import LRPDOutcome, analyze
from ..lrpd.shadow import LRPDState
from ..memsys.system import MemStats
from ..obs import spans
from ..obs.provenance import RunProvenance, run_provenance
from ..params import MachineParams
from ..sim.machine import Machine
from ..sim.processor import Mutex
from ..sim.stats import TimeBreakdown
from ..trace.loop import Loop
from ..types import ProtocolKind, Scenario
from .executor import (
    SWInstrumenter,
    check_epoch_config,
    global_shadow_name,
    loop_streams,
    private_copy_name,
    serial_stream,
    shadow_name,
)
from .phases import (
    chain,
    copy_ops,
    merge_analysis_ops,
    segment_of,
    sparse_copy_ops,
    zero_ops,
)
from .schedule import (
    ChunkQueue,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    cyclic_blocks,
    static_assignment,
)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the parallel scenarios."""

    schedule: ScheduleSpec = dataclasses.field(default_factory=ScheduleSpec)
    #: dense backup copies whole arrays; sparse backs up only the lines
    #: that the loop will write (hash-table saves of §2.2.1).
    sparse_backup: bool = False
    #: software scheme: maintain the extra ``Awmin`` shadow array so the
    #: LRPD test also accepts loops needing read-in/copy-out (§2.2.3).
    sw_read_in: bool = False
    #: hardware scheme: width of the privatization time stamps.  When
    #: the chunk-numbered virtual iteration would overflow, processors
    #: synchronize and the effective numbering resets (§3.3).  ``None``
    #: models unbounded stamps (no synchronization ever needed).
    timestamp_bits: Optional[int] = None
    #: hardware scheme: keep one set of access bits per cache line
    #: instead of per word — the space saving §4.1 rejects because
    #: false sharing then fails the test spuriously (ablation knob).
    per_line_bits: bool = False
    #: called with the freshly built Machine before the run starts,
    #: after ``telemetry`` is attached — the hook point for subscribing
    #: more recorders (``repro.obs.EventRecorder``) to ``machine.bus``.
    machine_hook: Optional[Callable[[Machine], None]] = None
    #: telemetry sink attached to the machine before the run: anything
    #: with an ``attach(machine)`` method, typically ``repro.obs.Telemetry``
    #: or a bare ``repro.obs.EventBus``.
    telemetry: Optional[object] = None
    #: online invariant monitors armed for the run: anything with an
    #: ``attach(machine)`` method, typically ``repro.obs.MonitorSuite``.
    #: Monitors subscribe to the machine's event bus (sharing the
    #: telemetry bus when one is attached) and, via ``finalize``, stamp
    #: their violations — and on failures a forensic report — into the
    #: RunResult.  ``None`` (the default) keeps the zero-overhead null
    #: path: no bus, no event construction.
    monitors: Optional[object] = None
    #: provenance-keyed run archive: a ``repro.obs.RunLedger`` (or a
    #: directory path).  Every completed run is recorded — provenance,
    #: verdict, metrics, span rollup, host wall time — and a re-run
    #: whose content address matches an archived record is served
    #: bit-identically from the archive without re-simulating (skipped
    #: when ``monitors``/``machine_hook`` are set: those need a live
    #: machine).  Never enters the provenance hash; ``None`` (the
    #: default) keeps the zero-overhead null path — the ledger module
    #: is not even imported.
    ledger: Optional[object] = None

    def __post_init__(self) -> None:
        check_epoch_config(self.timestamp_bits, self.schedule)


def _apply_hook(config: "Optional[RunConfig]", machine: Machine) -> None:
    if config is not None and config.telemetry is not None:
        config.telemetry.attach(machine)
    else:
        # A profiling WorkerCapture installed around this task observes
        # the run only when no explicit telemetry claimed the machine's
        # bus — explicit telemetry always wins.
        capture = spans.capture_current()
        if capture is not None:
            capture.attach(machine)
    if config is not None and config.monitors is not None:
        config.monitors.attach(machine)
    if config is not None and config.machine_hook is not None:
        config.machine_hook(machine)
    if config is not None and config.ledger is not None:
        # Host-wall anchor for the ledger record, kept per machine.
        machine._ledger_t0 = time.perf_counter()


@dataclasses.dataclass
class RunResult:
    """Outcome and timing of one simulated loop execution."""

    scenario: Scenario
    loop_name: str
    num_processors: int
    passed: bool
    wall: float
    breakdown: TimeBreakdown
    phases: "Dict[str, float]"
    failure: Optional[SpeculationFailure] = None
    #: simulated cycle (within the loop phase) at which the failure was
    #: detected; None for passing runs and for non-speculative scenarios
    detection_cycle: Optional[float] = None
    lrpd: Optional[LRPDOutcome] = None
    spec_messages: int = 0
    #: memory-system counters for the whole run (hits, misses, traffic)
    mem: Optional[MemStats] = None
    #: manifest identifying the exact configuration that produced this
    #: result (repro.obs.provenance); stamped by every scenario driver
    provenance: Optional[RunProvenance] = None
    #: metrics-registry snapshot, when the run had telemetry attached
    metrics: Optional[dict] = None
    #: realized iteration-to-processor assignment: ``assignment[p]`` is
    #: the 1-based iterations processor ``p`` executed, in execution
    #: order.  For dynamic self-scheduling this is the *emergent* grab
    #: order from the simulation — the ground truth a value-level commit
    #: must replay.  ``None`` for non-parallel scenarios.
    assignment: Optional[List[List[int]]] = None
    #: invariant violations collected by armed monitors
    #: (``repro.obs.monitor.InvariantViolation``); None when no monitors
    violations: Optional[list] = None
    #: abort root-cause report (``repro.obs.forensics.ForensicReport``),
    #: built when monitors were armed and the speculation failed
    forensics: Optional[object] = None


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _allocate_loop_arrays(machine: Machine, loop: Loop, local: bool) -> None:
    for spec in loop.arrays:
        machine.space.allocate(
            spec.name,
            spec.length,
            spec.elem_bytes,
            protocol=spec.protocol,
            home_policy="local" if local else "round_robin",
            local_node=0,
        )


def _backup_name(array: str) -> str:
    return f"{array}#bak"


def _run_phase(
    machine: Machine,
    name: str,
    streams: Dict[int, Iterator[object]],
    phases: Dict[str, float],
    abort_on_failure: bool = False,
) -> TimeBreakdown:
    engine = machine.engine
    start = engine.now
    bus = machine.bus
    if bus is not None and bus.active:
        bus.emit(obs.PhaseBeginEvent(start, name))
    prof = spans.current()
    if prof is not None:
        events0 = engine.events_processed
        phase_span = prof.begin(
            f"phase:{name}", cat="phase", sample=True,
            phase=name, engine="scalar",
        )
    result = engine.run_phase(streams, start_time=start, abort_on_failure=abort_on_failure)
    finish = result.finish
    participants = result.participants()
    # End-of-phase load imbalance is synchronization time.
    for i in participants:
        result.per_proc[i].sync += max(0.0, finish - result.finish_times[i])
    breakdown = TimeBreakdown.from_procs([result.per_proc[i] for i in participants])
    phases[name] = finish - start
    engine.now = finish
    if prof is not None:
        prof.end(
            phase_span,
            **{"engine.events": engine.events_processed - events0,
               "sim.cycles": finish - start},
        )
    if bus is not None and bus.active:
        bus.emit(obs.PhaseEndEvent(finish, name, finish - start))
    return breakdown


def _backup_streams(
    machine: Machine, loop: Loop, sparse: bool
) -> Dict[int, Iterator[object]]:
    params = machine.params
    cost = params.cost
    num = params.num_processors
    streams: Dict[int, Iterator[object]] = {}
    arrays = loop.modified_arrays()
    for proc in range(num):
        pieces = []
        for spec in arrays:
            epl = params.elems_per_line(spec.elem_bytes)
            if sparse:
                written = sorted(loop.written_elements(spec.name))
                lo, hi = segment_of(len(written), proc, num)
                pieces.append(
                    sparse_copy_ops(
                        spec.name, _backup_name(spec.name), written[lo:hi],
                        epl, cost.backup_per_element,
                    )
                )
            else:
                lo, hi = segment_of(spec.length, proc, num)
                pieces.append(
                    copy_ops(
                        spec.name, _backup_name(spec.name), lo, hi,
                        epl, cost.backup_per_element,
                    )
                )
        streams[proc] = chain(*pieces)
    return streams


def _restore_streams(machine: Machine, loop: Loop) -> Dict[int, Iterator[object]]:
    params = machine.params
    cost = params.cost
    num = params.num_processors
    streams: Dict[int, Iterator[object]] = {}
    for proc in range(num):
        pieces = []
        for spec in loop.modified_arrays():
            epl = params.elems_per_line(spec.elem_bytes)
            lo, hi = segment_of(spec.length, proc, num)
            pieces.append(
                copy_ops(
                    _backup_name(spec.name), spec.name, lo, hi,
                    epl, cost.restore_per_element,
                )
            )
        streams[proc] = chain(*pieces)
    return streams


def _serial_params(params: MachineParams) -> MachineParams:
    return dataclasses.replace(params, num_processors=1, processors_per_node=1)


def _make_queue(schedule: ScheduleSpec, loop: Loop):
    """Work queue + mutex for dynamic self-scheduling, created here (not
    inside ``loop_streams``) so the realized block-to-processor grab log
    survives the run."""
    if schedule.policy is not SchedulePolicy.DYNAMIC:
        return None, None
    queue = ChunkQueue(cyclic_blocks(loop.num_iterations, schedule.chunk_iterations))
    return queue, Mutex()


def _realized_assignment(
    queue: Optional[ChunkQueue],
    schedule: ScheduleSpec,
    loop: Loop,
    num_procs: int,
) -> List[List[int]]:
    """Per-processor 1-based iteration lists actually executed: the
    emergent grab order for dynamic scheduling, the static plan
    otherwise."""
    if queue is not None:
        return queue.assignment(num_procs)
    return static_assignment(schedule, loop.num_iterations, num_procs)


def _append_failure_tail(
    machine: Machine,
    loop: Loop,
    phases: Dict[str, float],
    breakdown: TimeBreakdown,
    serial_result: Optional["RunResult"],
    params: MachineParams,
    reason: str = "speculation-failed",
    detection: Optional[float] = None,
) -> "TimeBreakdown":
    """Failure path: restore the arrays, then account the serial
    re-execution at the Serial scenario's cost (paper §6.2)."""
    bus = machine.bus
    if bus is not None and bus.active:
        bus.emit(obs.AbortEvent(machine.engine.now, reason, detection_cycle=detection))
    restore_bd = _run_phase(machine, "restore", _restore_streams(machine, loop), phases)
    breakdown.add(restore_bd)
    if bus is not None and bus.active:
        bus.emit(obs.RestoreEvent(machine.engine.now, phases.get("restore", 0.0)))
    if serial_result is None:
        serial_result = run_serial(loop, params)
    phases["serial-reexec"] = serial_result.wall
    breakdown.add(serial_result.breakdown)
    return breakdown


def _ambient_bus(config: "Optional[RunConfig]"):
    """Best event bus available before any machine exists: the config's
    telemetry bus, else the ambient pool-worker capture's bus."""
    telemetry = config.telemetry if config is not None else None
    bus = getattr(telemetry, "bus", None)
    if bus is None and telemetry is not None and hasattr(telemetry, "emit"):
        bus = telemetry  # a bare EventBus passed as telemetry
    if bus is None:
        capture = spans.capture_current()
        if capture is not None:
            bus = capture.bus
    return bus


def _ledger_serve(
    config: "Optional[RunConfig]",
    scenario: Scenario,
    loop: Loop,
    params: MachineParams,
) -> "Optional[RunResult]":
    """The cache-read path: an archived run with the same content
    address is returned bit-identically instead of re-simulating.

    Declines (returns None) when the ledger is disabled, when serving
    is turned off, when monitors or a machine hook are armed (both need
    a live machine the archive cannot provide), or on a plain miss.
    """
    if config is None or config.ledger is None:
        return None
    if config.monitors is not None or config.machine_hook is not None:
        return None
    from ..obs.ledger import as_ledger, ledger_key

    ledger = as_ledger(config.ledger)
    if not ledger.serve_hits:
        return None
    key = ledger_key(scenario, loop, params, config)
    result = ledger.serve(key)
    if result is None:
        return None
    bus = _ambient_bus(config)
    if bus is not None and bus.active:
        bus.emit(obs.LedgerHitEvent(0.0, key, scenario.value, loop.name))
    return result


def _ledger_commit(
    machine: Machine,
    config: "RunConfig",
    params: MachineParams,
    result: "RunResult",
    loop: Optional[Loop],
    prof,
    handles,
) -> None:
    """Archive a completed run (the tail of ``_finish_run``)."""
    if loop is None:
        return
    from ..obs.ledger import as_ledger, ledger_key, span_rollup

    ledger = as_ledger(config.ledger)
    # The result's provenance was stamped moments ago for exactly this
    # (params, config, scenario) — reuse it rather than rehashing.
    key = ledger_key(result.scenario, loop, params, config,
                     provenance=result.provenance)
    t0 = getattr(machine, "_ledger_t0", None)
    host_wall = time.perf_counter() - t0 if t0 is not None else None
    rollup = None
    if prof is not None and handles is not None:
        rollup = span_rollup(prof.spans, handles[0]["sid"])
    _, deduped = ledger.record_result(
        result, key=key, host_wall_s=host_wall, rollup=rollup, config=config
    )
    bus = machine.bus
    if bus is not None and bus.active:
        bus.emit(
            obs.LedgerWriteEvent(
                machine.engine.now, key, "run",
                passed=result.passed, deduped=deduped,
            )
        )


def _begin_run(machine: Machine, scenario: Scenario, loop: Loop) -> None:
    prof = spans.current()
    if prof is not None:
        # Hierarchy: run -> engine tier -> phase -> epoch.  The tier
        # span groups the phase spans under the engine that ran them;
        # _finish_run closes both (every driver exit goes through it).
        run_span = prof.begin(
            "run", cat="run", sample=True,
            scenario=scenario.value, loop=loop.name,
            engine="scalar",
            procs=machine.params.num_processors,
        )
        tier_span = prof.begin("engine:scalar", cat="tier")
        machine._prof_spans = (run_span, tier_span)
    bus = machine.bus
    if bus is not None and bus.active:
        bus.emit(
            obs.RunStartEvent(
                machine.engine.now,
                scenario.value,
                loop.name,
                machine.params.num_processors,
            )
        )


def _finish_run(
    machine: Machine,
    config: "Optional[RunConfig]",
    params: MachineParams,
    result: "RunResult",
    loop: Optional[Loop] = None,
) -> "RunResult":
    """Stamp provenance/metrics into a result, close out telemetry, and
    release the machine (its run is over)."""
    result.provenance = run_provenance(
        params,
        config,
        scenario=result.scenario.value,
        loop_name=result.loop_name,
    )
    telemetry = config.telemetry if config is not None else None
    if telemetry is not None and hasattr(telemetry, "metrics_snapshot"):
        result.metrics = telemetry.metrics_snapshot()
    bus = machine.bus
    if bus is not None and bus.active:
        bus.emit(obs.RunEndEvent(machine.engine.now, result.passed, result.wall))
    prof = spans.current()
    handles = getattr(machine, "_prof_spans", None)
    if prof is not None and handles is not None:
        run_span, tier_span = handles
        prof.end(tier_span)
        prof.end(run_span, **{"sim.wall_cycles": result.wall})
        machine._prof_spans = None
    monitors = config.monitors if config is not None else None
    if monitors is not None and hasattr(monitors, "finalize"):
        monitors.finalize(result, loop)
    # Archive last, after monitors stamped violations/forensics, so the
    # record holds the result exactly as the caller receives it.
    if config is not None and config.ledger is not None:
        _ledger_commit(machine, config, params, result, loop, prof, handles)
    machine.release()
    return result


# ----------------------------------------------------------------------
# Serial
# ----------------------------------------------------------------------
def run_serial(
    loop: Loop, params: MachineParams, config: Optional[RunConfig] = None
) -> RunResult:
    """Uniprocessor execution with all data local (§6)."""
    served = _ledger_serve(config, Scenario.SERIAL, loop, params)
    if served is not None:
        return served
    machine = Machine(_serial_params(params), with_speculation=False)
    _apply_hook(config, machine)
    _begin_run(machine, Scenario.SERIAL, loop)
    _allocate_loop_arrays(machine, loop, local=True)
    phases: Dict[str, float] = {}
    breakdown = _run_phase(
        machine, "loop", {0: serial_stream(loop, params.cost)}, phases
    )
    result = RunResult(
        scenario=Scenario.SERIAL,
        loop_name=loop.name,
        num_processors=1,
        passed=True,
        wall=machine.engine.now,
        breakdown=breakdown,
        phases=phases,
        mem=machine.memsys.stats,
    )
    return _finish_run(machine, config, params, result, loop)


# ----------------------------------------------------------------------
# Ideal
# ----------------------------------------------------------------------
def run_ideal(
    loop: Loop, params: MachineParams, config: Optional[RunConfig] = None
) -> RunResult:
    """Doall execution without any correctness tests (§6): scheduling
    overheads and load imbalance included, data distributed.

    Arrays the compiler would privatize are still privatized (that is
    part of making the loop a doall, not part of testing it): accesses
    to them are redirected to per-processor local copies.
    """
    config = config or RunConfig()
    served = _ledger_serve(config, Scenario.IDEAL, loop, params)
    if served is not None:
        return served
    machine = Machine(params, with_speculation=False)
    _apply_hook(config, machine)
    _begin_run(machine, Scenario.IDEAL, loop)
    _allocate_loop_arrays(machine, loop, local=False)
    privatized = {a.name for a in loop.arrays if a.privatized}
    for name in privatized:
        spec = loop.array(name)
        for proc in range(params.num_processors):
            machine.space.allocate(
                private_copy_name(name, proc), spec.length, spec.elem_bytes,
                home_policy="local", local_node=params.node_of_processor(proc),
            )

    def instrument(proc, op, virt):
        if op.array in privatized:
            return (type(op)(op.kind, private_copy_name(op.array, proc), op.index),)
        return (op,)

    phases: Dict[str, float] = {}
    streams = loop_streams(
        loop, config.schedule, params.num_processors, params.cost,
        instrument=instrument if privatized else None,
    )
    breakdown = _run_phase(machine, "loop", streams, phases)
    result = RunResult(
        scenario=Scenario.IDEAL,
        loop_name=loop.name,
        num_processors=params.num_processors,
        passed=True,
        wall=machine.engine.now,
        breakdown=breakdown,
        phases=phases,
        mem=machine.memsys.stats,
    )
    return _finish_run(machine, config, params, result, loop)


# ----------------------------------------------------------------------
# HW — the paper's scheme
# ----------------------------------------------------------------------
def run_hw(
    loop: Loop,
    params: MachineParams,
    config: Optional[RunConfig] = None,
    serial_result: Optional[RunResult] = None,
) -> RunResult:
    """Hardware speculative run-time parallelization (§3/§4)."""
    config = config or RunConfig()
    served = _ledger_serve(config, Scenario.HW, loop, params)
    if served is not None:
        return served
    machine = Machine(params, with_speculation=True)
    _apply_hook(config, machine)
    _begin_run(machine, Scenario.HW, loop)
    assert machine.spec is not None
    _allocate_loop_arrays(machine, loop, local=False)
    for spec in loop.modified_arrays():
        machine.space.allocate(
            _backup_name(spec.name), spec.length, spec.elem_bytes,
            home_policy="round_robin",
        )

    # Register everything under test with the speculation engine; the
    # privatization protocols add the per-iteration tag-clear overhead.
    has_priv = False
    for spec in loop.arrays_under_test():
        decl = machine.space.array(spec.name)
        if spec.protocol is ProtocolKind.NONPRIV:
            machine.spec.register_nonpriv(
                decl, per_line_bits=config.per_line_bits
            )
        else:
            has_priv = True
            privs = [
                machine.space.allocate(
                    private_copy_name(spec.name, p), spec.length, spec.elem_bytes,
                    protocol=spec.protocol,
                    home_policy="local",
                    local_node=params.node_of_processor(p),
                )
                for p in range(params.num_processors)
            ]
            machine.spec.register_priv(
                decl, privs, simple=(spec.protocol is ProtocolKind.PRIV_SIMPLE)
            )

    phases: Dict[str, float] = {}
    breakdown = TimeBreakdown()
    # Phase 1: checkpoint the modifiable shared arrays (§2.2.1).
    if loop.modified_arrays():
        breakdown.add(
            _run_phase(
                machine, "backup",
                _backup_streams(machine, loop, config.sparse_backup), phases,
            )
        )

    # Phase 2: the speculative doall, aborted on the first FAIL.
    machine.spec.arm()
    cost = params.cost
    iter_overhead = cost.loop_iter_overhead + (
        cost.hw_iter_tag_clear_cycles if has_priv else 0
    )
    queue, mutex = (
        _make_queue(config.schedule, loop)
        if config.timestamp_bits is None
        else (None, None)
    )
    streams = loop_streams(
        loop, config.schedule, params.num_processors, cost,
        iter_overhead=iter_overhead,
        setup_cycles=cost.hw_loop_setup_cycles,
        mutex=mutex,
        queue=queue,
        timestamp_bits=config.timestamp_bits,
    )
    loop_start = machine.engine.now
    breakdown.add(
        _run_phase(machine, "loop", streams, phases, abort_on_failure=True)
    )
    assignment = _realized_assignment(
        queue, config.schedule, loop, params.num_processors
    )

    # Loop-end commit: dirty lines may hold tag state (writes, read-
    # firsts) the directories never saw; merge it before the verdict.
    machine.spec.commit(machine.engine.now)

    failure = machine.spec.controller.failure
    if failure is not None:
        detection = None
        if failure.detected_at is not None:
            detection = failure.detected_at - loop_start
        machine.spec.disarm()
        breakdown = _append_failure_tail(
            machine, loop, phases, breakdown, serial_result, params,
            reason=failure.reason, detection=detection,
        )
        wall = machine.engine.now + phases.get("serial-reexec", 0.0)
        result = RunResult(
            scenario=Scenario.HW,
            loop_name=loop.name,
            num_processors=params.num_processors,
            passed=False,
            wall=wall,
            breakdown=breakdown,
            phases=phases,
            failure=failure,
            detection_cycle=detection,
            spec_messages=machine.spec.stats.messages,
            mem=machine.memsys.stats,
            assignment=assignment,
        )
        return _finish_run(machine, config, params, result, loop)

    # Phase 3: copy-out of privatized, live-out arrays (§2.2.3).
    copyout: Dict[int, Iterator[object]] = {}
    for spec in loop.arrays_under_test():
        if not (spec.privatized and spec.live_out):
            continue
        epl = params.elems_per_line(spec.elem_bytes)
        per_proc = _hw_copy_out_indices(
            machine, spec.name, spec.protocol, params.num_processors
        )
        for proc, indices in enumerate(per_proc):
            if not indices:
                continue
            ops = sparse_copy_ops(
                private_copy_name(spec.name, proc), spec.name, indices,
                epl, cost.copy_out_per_element,
            )
            copyout[proc] = chain(copyout[proc], ops) if proc in copyout else ops
    if copyout:
        breakdown.add(_run_phase(machine, "copy-out", copyout, phases))
    machine.spec.disarm()

    result = RunResult(
        scenario=Scenario.HW,
        loop_name=loop.name,
        num_processors=params.num_processors,
        passed=True,
        wall=machine.engine.now,
        breakdown=breakdown,
        phases=phases,
        spec_messages=machine.spec.stats.messages,
        mem=machine.memsys.stats,
        assignment=assignment,
    )
    return _finish_run(machine, config, params, result, loop)


def _hw_copy_out_indices(
    machine: Machine, name: str, protocol: ProtocolKind, num_processors: int
) -> List[List[int]]:
    """Per processor, the elements it copies out, in element order."""
    assert machine.spec is not None
    if protocol is ProtocolKind.PRIV:
        return machine.spec.priv.shared_table(name).last_writers(num_processors)
    # PRIV_SIMPLE has no last-writer time stamps: each processor
    # conservatively copies out everything it wrote.
    tables = [
        machine.spec.priv_simple.private_table(name, proc)
        for proc in range(num_processors)
    ]
    return [
        [i for i, wrote in enumerate(table.write_any) if wrote]
        for table in tables
    ]


# ----------------------------------------------------------------------
# SW — the software LRPD baseline
# ----------------------------------------------------------------------
def run_sw(
    loop: Loop,
    params: MachineParams,
    config: Optional[RunConfig] = None,
    serial_result: Optional[RunResult] = None,
) -> RunResult:
    """Software speculative run-time parallelization (§2)."""
    config = config or RunConfig()
    served = _ledger_serve(config, Scenario.SW, loop, params)
    if served is not None:
        return served
    processor_wise = config.schedule.virtual_mode is VirtualMode.PROCESSOR
    machine = Machine(params, with_speculation=False)
    _apply_hook(config, machine)
    _begin_run(machine, Scenario.SW, loop)
    cost = params.cost
    num = params.num_processors
    _allocate_loop_arrays(machine, loop, local=False)
    for spec in loop.modified_arrays():
        machine.space.allocate(
            _backup_name(spec.name), spec.length, spec.elem_bytes,
            home_policy="round_robin",
        )

    # Shadow arrays: 2-byte time stamps per element (iteration-wise) or
    # 64-elements-per-word bitmaps (processor-wise); one private set per
    # processor in its local memory, plus global merged shadows.
    state = LRPDState(num, with_awmin=config.sw_read_in)
    shadow_kinds = ("Ar", "Aw", "Anp") + (("Awmin",) if config.sw_read_in else ())
    under_test = loop.arrays_under_test()
    if processor_wise:
        shadow_elem_bytes = 8
        shadow_len = lambda n: max(1, math.ceil(n / cost.sw_bitmap_word_elems))
    else:
        shadow_elem_bytes = 2
        shadow_len = lambda n: n
    for spec in under_test:
        state.register(spec.name, spec.length, spec.privatized)
        slen = shadow_len(spec.length)
        for kind in shadow_kinds:
            machine.space.allocate(
                global_shadow_name(spec.name, kind), slen, shadow_elem_bytes,
                home_policy="round_robin",
            )
            for proc in range(num):
                machine.space.allocate(
                    shadow_name(spec.name, kind, proc), slen, shadow_elem_bytes,
                    home_policy="local", local_node=params.node_of_processor(proc),
                )
        if spec.privatized:
            for proc in range(num):
                machine.space.allocate(
                    private_copy_name(spec.name, proc), spec.length,
                    spec.elem_bytes,
                    home_policy="local", local_node=params.node_of_processor(proc),
                )

    phases: Dict[str, float] = {}
    breakdown = TimeBreakdown()

    # Phase 1: zero the private shadows and back up modified arrays.
    setup: Dict[int, Iterator[object]] = {}
    backup = _backup_streams(machine, loop, config.sparse_backup)
    for proc in range(num):
        pieces = []
        for spec in under_test:
            slen = shadow_len(spec.length)
            epl = params.elems_per_line(shadow_elem_bytes)
            for kind in shadow_kinds:
                pieces.append(
                    zero_ops(
                        shadow_name(spec.name, kind, proc), 0, slen,
                        epl, cost.sw_zero_per_element,
                    )
                )
        pieces.append(backup[proc])
        setup[proc] = chain(*pieces)
    breakdown.add(_run_phase(machine, "setup", setup, phases))

    # Phase 2: the speculative doall with marking.
    instrument = SWInstrumenter(state, loop, cost, processor_wise=processor_wise)
    queue, mutex = _make_queue(config.schedule, loop)
    streams = loop_streams(
        loop, config.schedule, num, cost,
        instrument=instrument,
        iter_end_cycles=cost.sw_iter_end_instrs,
        mutex=mutex,
        queue=queue,
    )
    breakdown.add(_run_phase(machine, "loop", streams, phases))
    assignment = _realized_assignment(queue, config.schedule, loop, num)

    # Phase 3: merging + analysis.  Every processor reads the same
    # shadow names, so each array's lists are built once, not per
    # processor (P x kinds names each).
    merge_names = [
        (
            spec,
            [
                shadow_name(spec.name, kind, p)
                for p in range(num)
                for kind in shadow_kinds
            ],
            [global_shadow_name(spec.name, kind) for kind in shadow_kinds],
        )
        for spec in under_test
    ]
    merge: Dict[int, Iterator[object]] = {}
    for proc in range(num):
        pieces = []
        for spec, privates, globals_ in merge_names:
            slen = shadow_len(spec.length)
            epl = params.elems_per_line(shadow_elem_bytes)
            lo, hi = segment_of(slen, proc, num)
            pieces.append(
                merge_analysis_ops(
                    privates, globals_, lo, hi, epl, cost.sw_analysis_per_element
                )
            )
        merge[proc] = chain(*pieces)
    breakdown.add(_run_phase(machine, "merge-analysis", merge, phases))

    outcome = analyze(state)
    if not outcome.passed:
        breakdown = _append_failure_tail(
            machine, loop, phases, breakdown, serial_result, params,
            reason="lrpd-test-failed",
        )
        result = RunResult(
            scenario=Scenario.SW,
            loop_name=loop.name,
            num_processors=num,
            passed=False,
            wall=machine.engine.now + phases.get("serial-reexec", 0.0),
            breakdown=breakdown,
            phases=phases,
            detection_cycle=None,  # only known after the loop completes
            lrpd=outcome,
            mem=machine.memsys.stats,
            assignment=assignment,
        )
        return _finish_run(machine, config, params, result, loop)

    # Phase 4: copy-out of privatized live-out arrays.
    copyout: Dict[int, Iterator[object]] = {}
    for spec in under_test:
        if not (spec.privatized and spec.live_out):
            continue
        epl = params.elems_per_line(spec.elem_bytes)
        for proc in range(num):
            shadow = state.shadow(spec.name, proc)
            indices = sorted(shadow.aw)
            if not indices:
                continue
            ops = sparse_copy_ops(
                private_copy_name(spec.name, proc), spec.name, indices,
                epl, cost.copy_out_per_element,
            )
            copyout[proc] = chain(copyout[proc], ops) if proc in copyout else ops
    if copyout:
        breakdown.add(_run_phase(machine, "copy-out", copyout, phases))

    result = RunResult(
        scenario=Scenario.SW,
        loop_name=loop.name,
        num_processors=num,
        passed=True,
        wall=machine.engine.now,
        breakdown=breakdown,
        phases=phases,
        lrpd=outcome,
        mem=machine.memsys.stats,
        assignment=assignment,
    )
    return _finish_run(machine, config, params, result, loop)

