"""Cross-check every reachable terminal state of a model four ways.

For each terminal state of an exploration (:mod:`.explorer`):

1. **facts** — the model's verdict must equal the pure iteration-serial
   predicate (:func:`repro.lrpd.analysis.serial_access_verdict`) on the
   executed program (the prefix, for FAILed runs — the predicates are
   monotone over prefixes, so a detected violation is already visible
   in the executed accesses);
2. **monitor** — the witness event trace replayed through the online
   invariant monitors (:mod:`repro.obs.monitor`) on a fresh event bus
   must produce zero violations;
3. **oracle** — per distinct program, the dependence oracle
   (:mod:`repro.trace.oracle`) on the equivalent concrete loop must
   agree: processor-wise ``is_doall`` for NONPRIV, ``is_priv_rico``
   for PRIV (max read-first vs min write), ``is_privatizable`` for
   PRIV_SIMPLE;
4. **engine** — per distinct program (deduplicated, optionally
   capped), the real scalar engine run on the equivalent concrete
   schedule must reach the same pass/fail verdict; disagreements are
   recorded with the differential harness's verdict signature
   (:mod:`repro.testing.diffcheck`).

The equivalent concrete schedule: contiguous virtual numbering is
``STATIC_CHUNK`` + iteration-wise virtuals; round-robin (time-stamped
PRIV) is ``BLOCK_CYCLIC`` with one-iteration chunks + chunk-wise
virtuals.  Engine runs use one-element cache lines and caches big
enough to never evict — the regime the model describes.  Cold-root
NONPRIV programs that write are skipped (counted): a concrete run
would back up the written array, which warms the caches into the warm
root's regime instead.

Any disagreement becomes a :class:`repro.modelcheck.reproduce.
DivergenceReport`, minimized by re-exploration until the access subset
no longer diverges.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..lrpd.analysis import serial_access_verdict
from ..obs.bus import EventBus
from ..obs.events import RunStartEvent
from ..obs.monitor import (
    CoherenceMonitor,
    NonPrivMonitor,
    PrivMonitor,
    PrivSimpleMonitor,
)
from ..params import CacheGeometry, small_test_params
from ..runtime.driver import RunConfig, run_hw
from ..runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from ..testing.diffcheck import result_signature, verdict_signature
from ..trace.loop import ArraySpec, Loop
from ..trace.ops import read, write
from ..trace.oracle import DependenceOracle
from ..types import ProtocolKind
from .explorer import explore
from .model import ARRAY, DONE, FAILED, ModelConfig
from .reproduce import DivergenceReport, Programs

__all__ = ["CheckReport", "check_config"]


# ----------------------------------------------------------------------
# Program -> rows / loop / oracle
# ----------------------------------------------------------------------
def program_rows(cfg: ModelConfig, programs: Programs) -> List[Tuple[int, int, int, int]]:
    """``(proc, virt, elem, is_write)`` rows in per-processor program
    order, for :func:`serial_access_verdict`."""
    rows = []
    for p, body in enumerate(programs):
        for j, it in enumerate(body, start=1):
            v = cfg.virt(p, j)
            for (w, e) in it:
                rows.append((p, v, e, w))
    return rows


def program_loop(
    cfg: ModelConfig, programs: Programs, name: str, modified: bool = True
) -> Loop:
    """The concrete loop equivalent to ``programs``: iterations laid
    out in virtual-iteration order, so the equivalent schedule deals
    iteration ``v`` to processor ``cfg.proc_of_virt(v)``."""
    iterations: List[List[object]] = [[] for _ in range(cfg.procs * cfg.iters)]
    for p, body in enumerate(programs):
        for j, it in enumerate(body, start=1):
            iterations[cfg.virt(p, j) - 1] = [
                write(ARRAY, e) if w else read(ARRAY, e) for (w, e) in it
            ]
    spec = ArraySpec(
        ARRAY, cfg.elements, elem_bytes=8, protocol=cfg.protocol, modified=modified
    )
    return Loop(name, [spec], iterations)


def oracle_passes(cfg: ModelConfig, loop: Loop) -> bool:
    """What the dependence oracle says the protocol's verdict must be."""
    if cfg.protocol is ProtocolKind.NONPRIV:
        imap = {
            g: cfg.proc_of_virt(g) + 1 for g in range(1, loop.num_iterations + 1)
        }
        return DependenceOracle(loop, imap).analyze().arrays[ARRAY].is_doall
    verdict = DependenceOracle(loop).analyze().arrays[ARRAY]
    if cfg.protocol is ProtocolKind.PRIV:
        return verdict.is_priv_rico
    return verdict.is_privatizable


# ----------------------------------------------------------------------
# Monitor replay
# ----------------------------------------------------------------------
def replay_monitors(cfg: ModelConfig, events: List[object], failed: bool) -> List[object]:
    """Replay a witness trace through the online monitors on a fresh
    bus; returns the violations (empty on a clean protocol)."""
    bus = EventBus()
    monitors = [CoherenceMonitor()]
    if cfg.protocol is ProtocolKind.NONPRIV:
        monitors.append(NonPrivMonitor())
    elif cfg.protocol is ProtocolKind.PRIV:
        monitors.append(PrivMonitor())
    else:
        monitors.append(PrivSimpleMonitor())
    for m in monitors:
        m.subscribe(bus)
    bus.emit(RunStartEvent(0.0, "modelcheck", "modelcheck", cfg.procs))
    for event in events:
        bus.emit(event)
    violations: List[object] = []
    for m in monitors:
        m.finish(failed)
        violations.extend(m.take_violations())
    return violations


# ----------------------------------------------------------------------
# Engine run on the equivalent concrete schedule
# ----------------------------------------------------------------------
def _engine_schedule(cfg: ModelConfig) -> ScheduleSpec:
    if cfg.round_robin:
        return ScheduleSpec(
            policy=SchedulePolicy.BLOCK_CYCLIC,
            chunk_iterations=1,
            virtual_mode=VirtualMode.CHUNK,
        )
    return ScheduleSpec(
        policy=SchedulePolicy.STATIC_CHUNK,
        virtual_mode=VirtualMode.ITERATION,
    )


def engine_run(cfg: ModelConfig, loop: Loop):
    """Scalar-engine run of the equivalent concrete configuration:
    one element per line, nothing ever evicted."""
    params = dataclasses.replace(
        small_test_params(cfg.procs),
        l1=CacheGeometry(1024, 8),
        l2=CacheGeometry(4096, 8),
    )
    config = RunConfig(
        schedule=_engine_schedule(cfg),
        timestamp_bits=cfg.timestamp_bits,
    )
    return run_hw(loop, params, config)


def _writes(programs: Programs) -> bool:
    return any(w for body in programs for it in body for (w, _) in it)


def _engine_modified(cfg: ModelConfig, programs: Programs) -> Optional[bool]:
    """The ``modified`` flag of the engine loop, or ``None`` when no
    equivalent concrete run exists (cold NONPRIV with writes: the
    engine would back the array up, warming the caches)."""
    if cfg.protocol is not ProtocolKind.NONPRIV:
        return True
    if cfg.warm:
        return True
    return None if _writes(programs) else False


# ----------------------------------------------------------------------
# The full check
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CheckReport:
    """Aggregate result of one exhaustively cross-checked config."""

    config: ModelConfig
    states: int
    transitions: int
    terminals: int
    done: int
    failed: int
    #: distinct terminal programs (the dedup unit for oracle/engine)
    programs: int
    engine_runs: int
    engine_skipped: int
    max_depth: int
    truncated: bool
    symmetry: bool
    divergences: List[DivergenceReport]

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_dict(self) -> dict:
        cfg = self.config
        return {
            "protocol": cfg.protocol.value,
            "procs": cfg.procs,
            "elements": cfg.elements,
            "iters": cfg.iters,
            "ops_per_iter": cfg.ops_per_iter,
            "timestamp_bits": cfg.timestamp_bits,
            "root": "warm" if cfg.warm else "cold",
            "faults": sorted(cfg.faults),
            "states": self.states,
            "transitions": self.transitions,
            "terminals": self.terminals,
            "done": self.done,
            "failed": self.failed,
            "programs": self.programs,
            "engine_runs": self.engine_runs,
            "engine_skipped": self.engine_skipped,
            "max_depth": self.max_depth,
            "truncated": self.truncated,
            "symmetry": self.symmetry,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
        }


def _config_desc(cfg: ModelConfig) -> dict:
    return {
        "procs": cfg.procs,
        "elements": cfg.elements,
        "iters": cfg.iters,
        "ops_per_iter": cfg.ops_per_iter,
        "timestamp_bits": cfg.timestamp_bits,
        "warm": cfg.warm,
        "faults": sorted(cfg.faults),
    }


def _still_diverges(
    base: ModelConfig, programs: Programs, with_engine: bool
) -> bool:
    """Does the fixed-program exploration of ``programs`` still show
    *any* facts/monitor/oracle (and optionally engine) divergence?
    The minimizer's re-test predicate."""
    cfg = dataclasses.replace(base, programs=programs)
    result = explore(cfg)
    seen: set = set()
    for key in result.terminals:
        st = result.nodes[key].state
        executed = result.program_of(key)
        facts = serial_access_verdict(cfg.protocol, program_rows(cfg, executed))
        if facts != (st.status == DONE):
            return True
        if replay_monitors(cfg, result.witness(key), st.status == FAILED):
            return True
        if executed in seen:
            continue
        seen.add(executed)
        loop = program_loop(cfg, executed, "modelcheck-min")
        if oracle_passes(cfg, loop) != facts:
            return True
        if with_engine:
            modified = _engine_modified(cfg, executed)
            if modified is not None:
                engine_loop = (
                    loop
                    if modified
                    else program_loop(cfg, executed, "modelcheck-min", modified=False)
                )
                if engine_run(cfg, engine_loop).passed != facts:
                    return True
    return False


def check_config(
    config: ModelConfig,
    max_states: Optional[int] = None,
    engine: bool = True,
    engine_cap: Optional[int] = None,
    minimize: bool = True,
    max_divergences: int = 10,
) -> CheckReport:
    """Exhaustively explore ``config`` and cross-check every terminal.

    ``engine_cap`` bounds the number of concrete engine runs (dedup by
    program happens first); ``max_divergences`` stops the scan early
    once that many disagreements are collected (each still minimized
    unless ``minimize=False``).
    """
    result = explore(config, max_states=max_states)
    desc = _config_desc(config)
    divergences: List[DivergenceReport] = []
    done = failed = 0
    engine_runs = engine_skipped = 0
    seen_programs: set = set()

    def diverge(kind: str, key: tuple, detail: str, expected, observed,
                violations=(), verdict=None) -> None:
        node = result.nodes[key]
        report = DivergenceReport(
            kind=kind,
            protocol=config.protocol.value,
            config=desc,
            detail=detail,
            expected=expected,
            observed=observed,
            programs=result.program_of(key),
            actions=tuple(result.actions(key)),
            failure=node.state.failure,
            violations=tuple(str(v) for v in violations),
            verdict=verdict,
        )
        if minimize:
            report.minimize(
                lambda progs: _still_diverges(config, progs, kind == "engine")
            )
        divergences.append(report)

    for key in result.terminals:
        st = result.nodes[key].state
        is_done = st.status == DONE
        if is_done:
            done += 1
        else:
            failed += 1
        if len(divergences) >= max_divergences:
            continue
        programs = result.program_of(key)
        facts = serial_access_verdict(config.protocol, program_rows(config, programs))
        if facts != is_done:
            diverge(
                "facts", key,
                "model verdict disagrees with the iteration-serial predicate",
                expected="pass" if facts else "fail",
                observed="pass" if is_done else "fail",
            )
            continue
        violations = replay_monitors(config, result.witness(key), not is_done)
        if violations:
            diverge(
                "monitor", key,
                "witness trace raises monitor violations",
                expected=0, observed=len(violations), violations=violations,
            )
            continue
        if programs in seen_programs:
            continue
        seen_programs.add(programs)
        loop = program_loop(config, programs, "modelcheck")
        opass = oracle_passes(config, loop)
        if opass != facts:
            diverge(
                "oracle", key,
                "dependence oracle disagrees with the model verdict",
                expected="pass" if facts else "fail",
                observed="pass" if opass else "fail",
            )
            continue
        if not engine:
            continue
        modified = _engine_modified(config, programs)
        if modified is None or (engine_cap is not None and engine_runs >= engine_cap):
            engine_skipped += 1
            continue
        engine_loop = (
            loop if modified else program_loop(config, programs, "modelcheck", modified=False)
        )
        engine_result = engine_run(config, engine_loop)
        engine_runs += 1
        if engine_result.passed != facts:
            diverge(
                "engine", key,
                "scalar engine verdict disagrees with the model",
                expected="pass" if facts else "fail",
                observed="pass" if engine_result.passed else "fail",
                verdict=verdict_signature(result_signature(engine_result)),
            )
    return CheckReport(
        config=config,
        states=result.states,
        transitions=result.transitions,
        terminals=len(result.terminals),
        done=done,
        failed=failed,
        programs=len(seen_programs),
        engine_runs=engine_runs,
        engine_skipped=engine_skipped,
        max_depth=result.max_depth,
        truncated=result.truncated,
        symmetry=result.symmetry,
        divergences=divergences,
    )
