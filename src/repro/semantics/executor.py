"""Value-level speculative execution with detection and recovery.

:func:`speculative_run` is the quickstart entry point of the library:
it does, at the value level, exactly what the paper's runtime does —

1. back up the modifiable shared arrays,
2. execute the loop speculatively as a doall while the (simulated)
   hardware watches every access through the coherence protocol,
3. on a FAIL: restore the arrays and re-execute serially,
4. on a pass: commit the speculative results (privatized arrays get
   their last-written values copied out).

The returned arrays are guaranteed to equal serial execution — the
paper's correctness contract — and the attached :class:`RunResult`
carries the simulated timing.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Callable, Dict, List, Mapping, MutableSequence, Optional, Tuple

from ..errors import ReproError
from ..params import MachineParams, default_params
from ..runtime.driver import RunConfig, RunResult, run_hw
from ..runtime.schedule import (
    SchedulePolicy,
    ScheduleSpec,
    cyclic_blocks,
    plan_static,
)
from ..trace.loop import ArraySpec, Loop
from ..trace.ops import compute
from ..types import ProtocolKind
from .arrays import ArrayProxy, TraceRecorder, make_proxies

Body = Callable[[int, Mapping[str, ArrayProxy]], None]


@dataclasses.dataclass
class ConcreteLoop:
    """A loop over real arrays: a Python body plus array declarations.

    Args:
        body: called as ``body(i, arrays)`` for 0-based iteration ``i``;
            must access arrays only through the provided proxies.
        iterations: trip count.
        arrays: name -> mutable sequence (a list, an ``array.array``,
            ...), modified in place by :func:`speculative_run`.  An
            array's simulated element size is its ``itemsize`` (8 bytes
            when it has none, as for a list).
        protocols: name -> dependence-test protocol for arrays the
            compiler could not analyze (others default to ``PLAIN``).
        live_out: names of privatized arrays whose values are needed
            after the loop (forces copy-out).
        work_cycles: modeled compute cycles between consecutive accesses
            (the body's arithmetic).
    """

    body: Body
    iterations: int
    arrays: Dict[str, MutableSequence]
    protocols: Dict[str, ProtocolKind] = dataclasses.field(default_factory=dict)
    live_out: Tuple[str, ...] = ()
    work_cycles: int = 30

    def trace(self) -> Loop:
        """Record the access stream (on scratch copies of the arrays)."""
        scratch = {k: copy.copy(v) for k, v in self.arrays.items()}
        recorder = TraceRecorder()
        proxies = make_proxies(scratch, recorder)
        body_ops: List[List[object]] = []
        written: Dict[str, bool] = {}
        for i in range(self.iterations):
            self.body(i, proxies)
            ops: List[object] = []
            for op in recorder.take():
                ops.append(op)
                ops.append(compute(self.work_cycles))
                if op.is_write:
                    written[op.array] = True
            body_ops.append(ops)
        specs = []
        for name, data in self.arrays.items():
            protocol = self.protocols.get(name, ProtocolKind.PLAIN)
            specs.append(
                ArraySpec(
                    name,
                    len(data),
                    int(getattr(data, "itemsize", 8)),
                    protocol,
                    modified=written.get(name, False),
                    live_out=name in self.live_out,
                )
            )
        return Loop("concrete", specs, body_ops)


@dataclasses.dataclass
class ConcreteOutcome:
    """Result of a value-level speculative run."""

    passed: bool
    arrays: Dict[str, MutableSequence]
    #: simulated timing; None when the speculative attempt died on an
    #: exception before a simulation could complete
    simulation: Optional[RunResult]
    reexecuted_serially: bool
    #: exception raised during the speculative execution, if any — the
    #: paper's rule (§2.2): abort and restart serially.  The serial
    #: re-execution's own exception (if the bug is real) propagates.
    speculative_exception: Optional[BaseException] = None


def _assignment(
    schedule: ScheduleSpec, iterations: int, num_procs: int
) -> List[List[int]]:
    """Iterations (0-based) per processor, each list ascending.

    Fallback for callers without a simulated run: assumes the static
    plan (and deals dynamic blocks round-robin, which is only a guess —
    the simulation's realized assignment, when available, is the truth).
    """
    if schedule.policy is SchedulePolicy.DYNAMIC:
        blocks = cyclic_blocks(iterations, schedule.chunk_iterations)
        per_proc: List[List[int]] = [[] for _ in range(num_procs)]
        for i, block in enumerate(blocks):
            per_proc[i % num_procs].extend(b - 1 for b in block.iterations())
        return per_proc
    per_proc = [[] for _ in range(num_procs)]
    for p, blocks in enumerate(plan_static(schedule, iterations, num_procs)):
        for block in blocks:
            per_proc[p].extend(b - 1 for b in block.iterations())
    return per_proc


def _execute_parallel(
    loop: ConcreteLoop,
    traced: Loop,
    schedule: ScheduleSpec,
    num_procs: int,
    assignment: Optional[List[List[int]]] = None,
) -> None:
    """Commit the speculative execution's values to ``loop.arrays``.

    Privatized arrays are executed on per-processor private copies
    (read-in: initialized from the shared image); after all processors
    finish, each element's final value comes from the highest-numbered
    writing iteration (copy-out).  Non-privatized arrays are written in
    place — legal because the passed test guarantees each element is
    read-only or touched by a single processor.

    ``assignment`` is the realized 1-based per-processor iteration
    mapping from the simulation (``RunResult.assignment``).  The test
    verdict is only valid for the schedule the hardware actually
    observed, so the commit must replay exactly that mapping — with
    dynamic self-scheduling a guessed mapping can split an element's
    iterations across processors that the real schedule kept together.
    """
    privatized = {
        spec.name for spec in traced.arrays if spec.privatized
    }
    if assignment is not None:
        assignment = [[it - 1 for it in its] for its in assignment]
    else:
        assignment = _assignment(schedule, loop.iterations, num_procs)
    # Per-array writes (iteration, index, value-at-iteration-end),
    # appended in program order and committed in one batch below.
    writes: Dict[str, List[Tuple[int, int, object]]] = {}
    for proc, iterations in enumerate(assignment):
        if not iterations:
            continue
        views: Dict[str, MutableSequence] = {}
        for name, data in loop.arrays.items():
            views[name] = copy.copy(data) if name in privatized else data
        recorder = TraceRecorder()
        proxies = make_proxies(views, recorder)
        for i in iterations:
            loop.body(i, proxies)
            for op in recorder.take():
                if op.is_write and op.array in privatized:
                    writes.setdefault(op.array, []).append(
                        (i, op.index, views[op.array][op.index])
                    )
    # Copy-out: each element's final value comes from its highest-
    # numbered writing iteration.  Stores run in a stable sort by
    # iteration, so the last write wins; the stable sort keeps program
    # order for same-iteration writes (whose recorded values are
    # identical anyway: they are read at iteration end).
    for name, entries in writes.items():
        target = loop.arrays[name]
        for _, index, value in sorted(entries, key=lambda entry: entry[0]):
            target[index] = value


def speculative_run(
    loop: ConcreteLoop,
    params: Optional[MachineParams] = None,
    config: Optional[RunConfig] = None,
) -> ConcreteOutcome:
    """Run ``loop`` speculatively in parallel with hardware detection.

    Exceptions raised by the body during the *speculative* execution
    (tracing or the parallel commit) follow the paper's rule (§2.2):
    the speculation is abandoned, the arrays are restored, and the loop
    re-executes serially.  An exception that also occurs serially is a
    genuine program bug and propagates to the caller — with the arrays
    reflecting exactly the serial execution up to the faulting point.
    """
    params = params or default_params()
    config = config or RunConfig()
    backup = {k: copy.copy(v) for k, v in loop.arrays.items()}
    speculative_exc: Optional[BaseException] = None
    try:
        traced = loop.trace()
        simulation = run_hw(traced, params, config)
        if simulation.passed:
            _execute_parallel(
                loop, traced, config.schedule, params.num_processors,
                assignment=simulation.assignment,
            )
            return ConcreteOutcome(
                passed=True,
                arrays=loop.arrays,
                simulation=simulation,
                reexecuted_serially=False,
            )
    except (ReproError,):
        raise  # simulator misconfiguration, not a speculation hazard
    except Exception as exc:  # noqa: BLE001 - the paper's abort rule
        speculative_exc = exc
        simulation = None
    # Restore and re-execute serially.
    for name, saved in backup.items():
        loop.arrays[name][:] = saved
    recorder = TraceRecorder()
    proxies = make_proxies(loop.arrays, recorder)
    for i in range(loop.iterations):
        loop.body(i, proxies)
        recorder.take()
    return ConcreteOutcome(
        passed=False,
        arrays=loop.arrays,
        simulation=simulation,
        reexecuted_serially=True,
        speculative_exception=speculative_exc,
    )
