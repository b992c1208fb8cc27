"""Scenario drivers: Serial, Ideal, SW (LRPD) and HW (this paper).

Each ``run_*`` function simulates one complete execution of one loop
under one scenario and returns a :class:`RunResult` with the wall time,
the Busy/Sync/Mem breakdown (Figure 12), per-phase times, and the test
outcome.  The failure path follows the paper's accounting (§6.2): the
execution time of a failed speculation is the parallel execution up to
detection (including backup), plus the restore, plus the Serial time.

The scenarios differ only in their phases.  ``_simulate`` owns the
lifecycle they share: serve from the ledger, build and instrument the
machine, allocate the loop's arrays (and SW's and HW's backups), run
the scenario's phases, then stamp, archive and release.
"""

from __future__ import annotations

import dataclasses
import math
import time
from itertools import chain
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
from ..trace.loop import ArraySpec, Loop
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
def _allocate_loop_arrays(machine: Machine, loop: Loop, scenario: Scenario) -> None:
    """The loop's arrays (all in node 0's memory for Serial, spread
    round-robin otherwise), then the backup copies of the arrays a
    speculative scenario must be able to restore."""
    local = scenario is Scenario.SERIAL
    for spec in loop.arrays:
        machine.space.allocate(
            spec.name,
            spec.length,
            spec.elem_bytes,
            protocol=spec.protocol,
            home_policy="local" if local else "round_robin",
            local_node=0,
        )
    if scenario in (Scenario.SW, Scenario.HW):
        for spec in loop.modified_arrays():
            machine.space.allocate(
                _backup_name(spec.name), spec.length, spec.elem_bytes,
                home_policy="round_robin",
            )


def _backup_name(array: str) -> str:
    return f"{array}#bak"


def _allocate_private_copies(
    machine: Machine, spec: ArraySpec, protocol: ProtocolKind = ProtocolKind.PLAIN
) -> list:
    """One copy of ``spec`` per processor, in that processor's node."""
    params = machine.params
    return [
        machine.space.allocate(
            private_copy_name(spec.name, proc), spec.length, spec.elem_bytes,
            protocol=protocol,
            home_policy="local", local_node=params.node_of_processor(proc),
        )
        for proc in range(params.num_processors)
    ]


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
            f"phase:{name}", cat="phase", sample=True, phase=name,
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
    # One walk of the loop per array, shared by every processor's segment.
    written = (
        {spec.name: sorted(loop.written_elements(spec.name)) for spec in arrays}
        if sparse
        else {}
    )
    for proc in range(num):
        pieces = []
        for spec in arrays:
            epl = params.elems_per_line(spec.elem_bytes)
            if sparse:
                elements = written[spec.name]
                lo, hi = segment_of(len(elements), proc, num)
                pieces.append(
                    sparse_copy_ops(
                        spec.name, _backup_name(spec.name), elements[lo:hi],
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
    reason: str,
    detection: Optional[float] = None,
) -> None:
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


def _ambient_bus(config: "Optional[RunConfig]"):
    """The config's telemetry bus, before any machine exists."""
    telemetry = config.telemetry if config is not None else None
    bus = getattr(telemetry, "bus", None)
    if bus is None and telemetry is not None and hasattr(telemetry, "emit"):
        bus = telemetry  # a bare EventBus passed as telemetry
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


def _copy_out(
    machine: Machine,
    loop: Loop,
    phases: Dict[str, float],
    breakdown: TimeBreakdown,
    indices: Callable[[ArraySpec], List[List[int]]],
) -> None:
    """Copy-out of privatized, live-out arrays (§2.2.3): ``indices(spec)``
    lists, per processor, the elements it copies back from its private
    copy, in element order."""
    params = machine.params
    streams: Dict[int, Iterator[object]] = {}
    for spec in loop.arrays_under_test():
        if not (spec.privatized and spec.live_out):
            continue
        epl = params.elems_per_line(spec.elem_bytes)
        for proc, elements in enumerate(indices(spec)):
            if not elements:
                continue
            ops = sparse_copy_ops(
                private_copy_name(spec.name, proc), spec.name, elements,
                epl, params.cost.copy_out_per_element,
            )
            streams[proc] = chain(streams[proc], ops) if proc in streams else ops
    if streams:
        breakdown.add(_run_phase(machine, "copy-out", streams, phases))


def _ledger_commit(
    machine: Machine,
    config: "RunConfig",
    params: MachineParams,
    result: "RunResult",
    loop: Loop,
    host_wall: float,
    rollup: Optional[dict],
) -> None:
    """Archive a completed run (the last step of ``_simulate``)."""
    from ..obs.ledger import as_ledger, ledger_key

    ledger = as_ledger(config.ledger)
    # The result's provenance was stamped moments ago for exactly this
    # (params, config, scenario) — reuse it rather than rehashing.
    key = ledger_key(result.scenario, loop, params, config,
                     provenance=result.provenance)
    deduped = ledger.record_result(
        result, key, host_wall_s=host_wall, rollup=rollup
    )
    bus = machine.bus
    if bus is not None and bus.active:
        bus.emit(
            obs.LedgerWriteEvent(
                machine.engine.now, key, "run",
                passed=result.passed, deduped=deduped,
            )
        )


def _simulate(
    scenario: Scenario,
    loop: Loop,
    params: MachineParams,
    config: "Optional[RunConfig]",
    phases: Callable[[Machine, Dict[str, float]], dict],
) -> "RunResult":
    """The lifecycle every run shares.  ``phases(machine, times)`` runs
    the scenario's phases on the built machine, recording each phase's
    duration in ``times``, and returns the :class:`RunResult` fields only
    it knows (``passed``, ``breakdown`` and any of ``failure``,
    ``detection_cycle``, ``lrpd``, ``spec_messages``, ``assignment``)."""
    served = _ledger_serve(config, scenario, loop, params)
    if served is not None:
        return served
    machine = Machine(
        _serial_params(params) if scenario is Scenario.SERIAL else params,
        with_speculation=scenario is Scenario.HW,
    )
    if config is not None:
        if config.telemetry is not None:
            config.telemetry.attach(machine)
        if config.monitors is not None:
            config.monitors.attach(machine)
        if config.machine_hook is not None:
            config.machine_hook(machine)
    t0 = time.perf_counter()  # host-wall anchor of the ledger record
    engine = machine.engine
    num = machine.params.num_processors
    bus = machine.bus
    prof = spans.current()
    if prof is not None:
        # Hierarchy: run -> phase -> epoch.
        run_span = prof.begin(
            "run", cat="run", sample=True,
            scenario=scenario.value, loop=loop.name, procs=num,
        )
    if bus is not None and bus.active:
        bus.emit(obs.RunStartEvent(engine.now, scenario.value, loop.name, num))
    _allocate_loop_arrays(machine, loop, scenario)
    times: Dict[str, float] = {}
    fields = phases(machine, times)
    result = RunResult(
        scenario=scenario,
        loop_name=loop.name,
        num_processors=num,
        wall=engine.now + times.get("serial-reexec", 0),
        phases=times,
        mem=machine.memsys.stats,
        **fields,
    )
    result.provenance = run_provenance(
        params, config, scenario=scenario.value, loop_name=loop.name
    )
    telemetry = config.telemetry if config is not None else None
    if telemetry is not None and hasattr(telemetry, "metrics_snapshot"):
        result.metrics = telemetry.metrics_snapshot()
    if bus is not None and bus.active:
        bus.emit(obs.RunEndEvent(engine.now, result.passed, result.wall))
    if prof is not None:
        prof.end(run_span, **{"sim.wall_cycles": result.wall})
    monitors = config.monitors if config is not None else None
    if monitors is not None and hasattr(monitors, "finalize"):
        monitors.finalize(result, loop)
    # Archive last, after monitors stamped violations/forensics, so the
    # record holds the result exactly as the caller receives it.
    if config is not None and config.ledger is not None:
        rollup = None
        if prof is not None:
            from ..obs.ledger import span_rollup

            rollup = span_rollup(prof.spans, run_span["sid"])
        _ledger_commit(
            machine, config, params, result, loop,
            time.perf_counter() - t0, rollup,
        )
    machine.release()
    return result


# ----------------------------------------------------------------------
# Serial
# ----------------------------------------------------------------------
def run_serial(
    loop: Loop, params: MachineParams, config: Optional[RunConfig] = None
) -> RunResult:
    """Uniprocessor execution with all data local (§6)."""

    def phases(machine: Machine, times: Dict[str, float]) -> dict:
        stream = {0: serial_stream(loop, params.cost)}
        return {"passed": True, "breakdown": _run_phase(machine, "loop", stream, times)}

    return _simulate(Scenario.SERIAL, loop, params, config, phases)


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

    def phases(machine: Machine, times: Dict[str, float]) -> dict:
        # In declaration order: allocation order fixes every address.
        privatized = [spec for spec in loop.arrays if spec.privatized]
        for spec in privatized:
            _allocate_private_copies(machine, spec)
        names = {spec.name for spec in privatized}

        def instrument(proc, op, virt):
            if op.array in names:
                return (type(op)(op.kind, private_copy_name(op.array, proc), op.index),)
            return (op,)

        streams = loop_streams(
            loop, config.schedule, params.num_processors, params.cost,
            instrument=instrument if names else None,
        )
        return {"passed": True, "breakdown": _run_phase(machine, "loop", streams, times)}

    return _simulate(Scenario.IDEAL, loop, params, config, phases)


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

    def phases(machine: Machine, times: Dict[str, float]) -> dict:
        spec_engine = machine.spec
        # Register everything under test with the speculation engine; the
        # privatization protocols add the per-iteration tag-clear overhead.
        has_priv = False
        for spec in loop.arrays_under_test():
            decl = machine.space.array(spec.name)
            if spec.protocol is ProtocolKind.NONPRIV:
                spec_engine.register_nonpriv(
                    decl, per_line_bits=config.per_line_bits
                )
            else:
                has_priv = True
                spec_engine.register_priv(
                    decl, _allocate_private_copies(machine, spec, spec.protocol),
                    simple=(spec.protocol is ProtocolKind.PRIV_SIMPLE),
                )

        breakdown = TimeBreakdown()
        # Phase 1: checkpoint the modifiable shared arrays (§2.2.1).
        if loop.modified_arrays():
            breakdown.add(
                _run_phase(
                    machine, "backup",
                    _backup_streams(machine, loop, config.sparse_backup), times,
                )
            )

        # Phase 2: the speculative doall, aborted on the first FAIL.
        spec_engine.arm()
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
            _run_phase(machine, "loop", streams, times, abort_on_failure=True)
        )
        assignment = _realized_assignment(
            queue, config.schedule, loop, params.num_processors
        )

        # Loop-end commit: dirty lines may hold tag state (writes, read-
        # firsts) the directories never saw; merge it before the verdict.
        spec_engine.commit(machine.engine.now)

        failure = spec_engine.controller.failure
        detection = None
        if failure is None:
            # Phase 3: copy-out of privatized, live-out arrays (§2.2.3).
            # The last writers are read from the protocol tables first;
            # then speculation ends, so copy-out's accesses are plain
            # ones that no protocol tests.
            indices = {
                spec.name: _hw_copy_out_indices(machine, spec)
                for spec in loop.arrays_under_test()
                if spec.privatized and spec.live_out
            }
            spec_engine.disarm()
            _copy_out(
                machine, loop, times, breakdown, lambda spec: indices[spec.name]
            )
        else:
            if failure.detected_at is not None:
                detection = failure.detected_at - loop_start
            spec_engine.disarm()
            _append_failure_tail(
                machine, loop, times, breakdown, serial_result, params,
                reason=failure.reason, detection=detection,
            )
        return {
            "passed": failure is None,
            "breakdown": breakdown,
            "failure": failure,
            "detection_cycle": detection,
            "spec_messages": spec_engine.stats.messages,
            "assignment": assignment,
        }

    return _simulate(Scenario.HW, loop, params, config, phases)


def _hw_copy_out_indices(machine: Machine, spec: ArraySpec) -> List[List[int]]:
    """Per processor, the elements it copies out, in element order."""
    num_processors = machine.params.num_processors
    if spec.protocol is ProtocolKind.PRIV:
        return machine.spec.priv.shared_table(spec.name).last_writers(num_processors)
    # PRIV_SIMPLE has no last-writer time stamps: each processor
    # conservatively copies out everything it wrote.
    tables = [
        machine.spec.priv_simple.private_table(spec.name, proc)
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

    def phases(machine: Machine, times: Dict[str, float]) -> dict:
        processor_wise = config.schedule.virtual_mode is VirtualMode.PROCESSOR
        cost = params.cost
        num = params.num_processors

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
                _allocate_private_copies(machine, spec)

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
        breakdown.add(_run_phase(machine, "setup", setup, times))

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
        breakdown.add(_run_phase(machine, "loop", streams, times))
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
        breakdown.add(_run_phase(machine, "merge-analysis", merge, times))

        outcome = analyze(state)
        if outcome.passed:
            # Phase 4: copy-out of privatized live-out arrays.
            _copy_out(
                machine, loop, times, breakdown,
                lambda spec: [
                    sorted(state.shadow(spec.name, proc).aw) for proc in range(num)
                ],
            )
        else:
            # The test runs after the loop, so no detection cycle.
            _append_failure_tail(
                machine, loop, times, breakdown, serial_result, params,
                reason="lrpd-test-failed",
            )
        return {
            "passed": outcome.passed,
            "breakdown": breakdown,
            "lrpd": outcome,
            "assignment": assignment,
        }

    return _simulate(Scenario.SW, loop, params, config, phases)
