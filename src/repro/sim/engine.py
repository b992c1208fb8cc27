"""Global-time discrete-event engine driving processors and messages."""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, Dict, Iterator, List, Optional, Union

from .. import obs
from ..address import AddressSpace, ArrayDecl
from ..core.controller import SpeculationController
from ..core.engine import SpeculationEngine
from ..core.messages import Scheduler
from ..errors import ConfigurationError
from ..memsys.system import MemorySystem
from ..obs import spans as obs_spans
from ..trace.ops import AccessOp, ComputeOp, LocalOp
from ..types import AccessKind
from .processor import (
    BarrierOp,
    BusyCostOp,
    EpochSyncOp,
    IterBeginOp,
    MutexOp,
    Processor,
    ProcState,
    SyncCostOp,
)
from .stats import PerProcStats, PhaseResult


class _MessageScheduler(Scheduler):
    """Routes the speculation protocols' deferred messages to the
    engine's dedicated message heap (so they can be drained at
    synchronization points independently of processor events)."""

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine

    def post(self, time: float, callback: Callable[[float], None]) -> None:
        self._engine.post_message(time, callback)


class Engine(Scheduler):
    """Event heap + processors.  Also the protocols' message scheduler.

    A heap entry is ``(time, seq, target)``.  The target is either a
    :class:`Processor`, whose op stream :meth:`_run_to_quiescence` runs
    inline from the processor's current op, or a plain callback taking
    the event time (protocol messages, tests).
    """

    #: Safety valve against runaway simulations.
    MAX_EVENTS_DEFAULT = 200_000_000

    def __init__(
        self,
        memsys: MemorySystem,
        space: AddressSpace,
        spec: Optional[SpeculationEngine] = None,
        max_events: int = MAX_EVENTS_DEFAULT,
    ) -> None:
        self.memsys = memsys
        self.space = space
        self.spec = spec
        self.max_events = max_events
        self.now: float = 0.0
        self._heap: List = []
        self._msg_heap: List = []
        self._seq = itertools.count()
        self.message_scheduler = _MessageScheduler(self)
        self.processors: List[Processor] = [
            Processor(i, self) for i in range(memsys.params.num_processors)
        ]
        self._remaining = 0
        self._abort_on_failure = False
        self._abort_handled = False
        self._epochs_done = 0
        self.events_processed = 0
        #: telemetry bus (repro.obs.EventBus); None keeps emission free
        self.bus = None
        #: ambient span profiler for the current phase (repro.obs.spans);
        #: None keeps the hot paths free of profiling work
        self.profiler = None
        self._epoch_span = None
        #: array name -> ArrayDecl, filled by the event loop on first use
        self._decls: Dict[str, ArrayDecl] = {}
        self._released = False

    def release(self) -> None:
        """Drop the back-references to this engine (each processor's and
        the message scheduler's) so reference counting frees it once its
        owner lets go.  Processor stats stay readable; running another
        phase raises :class:`ConfigurationError`."""
        self._released = True
        self.message_scheduler._engine = None
        for proc in self.processors:
            proc.engine = None

    # ------------------------------------------------------------------
    # Scheduler interface (used by the speculation protocols)
    # ------------------------------------------------------------------
    def post(
        self, time: float, target: Union[Processor, Callable[[float], None]]
    ) -> None:
        heappush(self._heap, (time, next(self._seq), target))

    def post_message(self, time: float, callback: Callable[[float], None]) -> None:
        heappush(self._msg_heap, (time, next(self._seq), callback))

    def flush_messages(self) -> int:
        """Deliver every in-flight protocol message immediately (in time
        order).  Used at epoch synchronization points (§3.3), where the
        hardware waits for outstanding transactions to complete."""
        count = 0
        while self._msg_heap:
            time, _, callback = heappop(self._msg_heap)
            if time > self.now:
                self.now = time
            callback(time)
            count += 1
        return count

    def epoch_sync(self, epoch: int) -> None:
        """Reset the privatization time stamps for a new epoch (§3.3).

        Called by every processor right after the epoch barrier; only
        the first call per epoch performs the reset."""
        if epoch <= self._epochs_done:
            return
        flushed = self.flush_messages()
        if self.spec is not None:
            self.spec.epoch_sync()
        self._epochs_done = epoch
        prof = self.profiler
        if prof is not None and self._epoch_span is not None:
            prof.end(self._epoch_span, flushed_messages=flushed)
            self._epoch_span = prof.begin(f"epoch#{epoch}", cat="epoch", epoch=epoch)
        if self.bus is not None and self.bus.active:
            self.bus.emit(obs.EpochSyncEvent(self.now, epoch, flushed))

    # ------------------------------------------------------------------
    # Speculation integration
    # ------------------------------------------------------------------
    @property
    def controller(self) -> Optional[SpeculationController]:
        return self.spec.controller if self.spec is not None else None

    def abort_time(self) -> float:
        controller = self.controller
        if controller is None or controller.failure is None:
            return self.now
        detected = controller.failure.detected_at
        return float(detected) if detected is not None else self.now

    # ------------------------------------------------------------------
    # Phase execution
    # ------------------------------------------------------------------
    def proc_finished(self, proc: Processor) -> None:
        self._remaining -= 1

    def run_phase(
        self,
        op_sources: Dict[int, Iterator[object]],
        start_time: Optional[float] = None,
        abort_on_failure: bool = False,
    ) -> PhaseResult:
        """Run every participating processor's op stream to completion,
        then drain all in-flight protocol messages.

        Args:
            op_sources: processor id -> op iterator.  Processors absent
                from the mapping sit out the phase.
            start_time: simulated time at which all participants begin
                (defaults to the engine's current time).
            abort_on_failure: whether a speculation FAIL aborts the
                phase (true during the speculative doall execution).
        """
        if self._released:
            raise ConfigurationError("run_phase on a released engine")
        if not op_sources:
            raise ConfigurationError("run_phase needs at least one processor")
        start = self.now if start_time is None else start_time
        before = [p.stats.copy() for p in self.processors]
        self._abort_on_failure = abort_on_failure
        self._abort_handled = False
        self._epochs_done = 0
        self._remaining = len(op_sources)
        prof = self.profiler = obs_spans.current()
        if prof is not None:
            events0 = self.events_processed
            self._epoch_span = prof.begin("epoch#0", cat="epoch", epoch=0)
        for proc_id, ops in op_sources.items():
            self.processors[proc_id].start(iter(ops), start)
        self._run_to_quiescence()
        if self._remaining > 0 and not self._abort_handled:
            stuck = [
                p.id for p in self.processors if p.state is ProcState.BLOCKED
            ]
            raise ConfigurationError(
                f"phase deadlocked: processors {stuck} blocked at a barrier "
                "that can never complete"
            )
        self._abort_on_failure = False
        if prof is not None and self._epoch_span is not None:
            prof.end(
                self._epoch_span,
                **{"engine.events": self.events_processed - events0},
            )
            self._epoch_span = None

        finish = [-1.0] * len(self.processors)
        deltas: List[PerProcStats] = []
        for i, proc in enumerate(self.processors):
            delta = proc.stats.copy()
            delta.busy -= before[i].busy
            delta.mem -= before[i].mem
            delta.sync -= before[i].sync
            deltas.append(delta)
            if i in op_sources:
                finish[i] = proc.finish_time
        aborted = self.spec is not None and self.spec.controller.failed
        result = PhaseResult(
            start_time=start, finish_times=finish, per_proc=deltas, aborted=aborted
        )
        self.now = max(self.now, result.finish)
        if self.bus is not None and self.bus.active:
            self.bus.emit(obs.QuiesceEvent(self.now, self.events_processed, aborted))
        return result

    def drain(self) -> None:
        """Process every pending event (in-flight protocol messages and
        any posted processors).

        Intended for direct protocol-level tests that bypass
        :meth:`run_phase`; phases drain automatically.
        """
        self._run_to_quiescence()

    def _run_to_quiescence(self) -> None:
        # The simulator's inner loop and its only op interpreter: one
        # iteration per event.  A processor target runs its ops inline
        # until it must yield to the heap: after every shared access (so
        # accesses interleave across processors in global time order),
        # when locally batched time has run ahead of the event (an op
        # with shared side effects must execute at its true global time,
        # and pure compute yields past BATCH_CYCLES so aborts are
        # noticed promptly), at a mutex or a barrier, or at the end of
        # its stream.  Compute and accesses are handled here; the rarer
        # ops go through _control_op.  Ops dispatch on their exact class.
        #
        # _abort_on_failure and spec are fixed for the phase, so the
        # abort test is one attribute test per event.
        spec = self.spec
        spec_ctrl = spec.controller if spec is not None else None
        ctrl = spec_ctrl if self._abort_on_failure else None
        # Sequence numbers are unique, so comparing whole entries never
        # reaches the targets and equals the (time, seq) comparison.
        heap = self._heap
        msg_heap = self._msg_heap
        seq = self._seq
        max_events = self.max_events
        processed = self.events_processed
        mem_read = self.memsys._read
        mem_write = self.memsys._write
        decls = self._decls
        batch_cycles = Processor.BATCH_CYCLES
        READ = AccessKind.READ
        DONE = ProcState.DONE
        ABORTED = ProcState.ABORTED
        try:
            while True:
                if msg_heap and (not heap or msg_heap[0] < heap[0]):
                    now, _, target = heappop(msg_heap)
                elif heap:
                    now, _, target = heappop(heap)
                else:
                    break
                processed += 1
                if processed > max_events:
                    raise ConfigurationError(
                        f"simulation exceeded {max_events} events; "
                        "suspected livelock"
                    )
                if now > self.now:
                    self.now = now
                if target.__class__ is not Processor:
                    target(now)
                elif target.state is DONE or target.state is ABORTED:
                    pass
                elif ctrl is not None and ctrl.failure is not None:
                    target.abort(max(now, self.abort_time()))
                else:
                    proc = target
                    ops = proc._ops
                    stats = proc.stats
                    t = now
                    while True:
                        op = proc._pending_op
                        if op is not None:
                            proc._pending_op = None
                        else:
                            try:
                                op = next(ops)
                            except StopIteration:
                                proc._finish(t)
                                break
                        cls = op.__class__
                        if cls is AccessOp:
                            if t > now:
                                proc._pending_op = op
                                heappush(heap, (t, next(seq), proc))
                                break
                            # Resolve through the speculation engine's
                            # comparator while it is armed; otherwise
                            # probe the decl table (decls are immutable
                            # and names never reused, so a first lookup
                            # stays valid for the engine's life).
                            kind = op.kind
                            index = op.index
                            if spec_ctrl is not None and spec_ctrl.armed:
                                addr = spec.resolve(proc.id, op.array, index, kind)
                            else:
                                decl = decls.get(op.array)
                                if decl is None:
                                    decl = decls[op.array] = self.space.array(op.array)
                                if 0 <= index < decl.length:
                                    addr = decl.base + index * decl.elem_bytes
                                else:
                                    addr = decl.addr_of(index)  # raises AddressError
                            if kind is READ:
                                stall = mem_read(proc.id, addr, t)[0]
                            else:
                                stall = mem_write(proc.id, addr, t)[0]
                            # One issue cycle (Busy) plus the memory
                            # stall (Mem).
                            stats.busy += 1
                            stats.mem += stall
                            heappush(heap, (t + (1 + stall), next(seq), proc))
                            break
                        if cls is ComputeOp:
                            if t - now >= batch_cycles:
                                proc._pending_op = op
                                heappush(heap, (t, next(seq), proc))
                                break
                            stats.busy += op.cycles
                            t += op.cycles
                        else:
                            t = self._control_op(proc, op, t, now)
                            if t is None:
                                break
                if (
                    ctrl is not None
                    and ctrl.failure is not None
                    and not self._abort_handled
                ):
                    self._handle_abort()
        finally:
            self.events_processed = processed

    def _control_op(
        self, proc: Processor, op: object, t: float, now: float
    ) -> Optional[float]:
        """Run one op other than compute or a shared access for ``proc``
        at its local time ``t`` within the event at ``now``.

        Returns the processor's new local time, or None when its event
        ends here (it re-posted itself, or blocked at a barrier).  An
        unknown op, or a subclass of an op class, raises TypeError.
        """
        cls = op.__class__
        if cls is MutexOp or cls is BarrierOp:
            defer = t > now
        else:
            defer = t - now >= Processor.BATCH_CYCLES
        if defer:
            proc._pending_op = op
            self.post(t, proc)
            return None
        stats = proc.stats
        if cls is LocalOp:
            stats.busy += 1
            return t + 1
        if cls is IterBeginOp:
            proc.current_iteration = op.iteration
            if self.spec is not None:
                self.spec.set_iteration(proc.id, op.virtual)
            if op.overhead_cycles:
                stats.busy += op.overhead_cycles
                t += op.overhead_cycles
            return t
        if cls is BusyCostOp:
            stats.busy += op.cycles
            return t + op.cycles
        if cls is SyncCostOp:
            stats.sync += op.cycles
            return t + op.cycles
        if cls is EpochSyncOp:
            self.epoch_sync(op.epoch)
            stats.sync += op.cycles
            return t + op.cycles
        if cls is MutexOp:
            wait = op.mutex.acquire(t, op.hold_cycles)
            stats.sync += wait
            stats.busy += op.hold_cycles
            self.post(t + (wait + op.hold_cycles), proc)
            return None
        if cls is BarrierOp:
            # Fence before synchronizing.
            drain = self.memsys.drain_write_buffer(proc.id, t)
            stats.mem += drain
            t += drain
            release = op.barrier.arrive(proc, t, self.bus)
            if release is None:
                proc.state = ProcState.BLOCKED
                proc._blocked_on = op.barrier
            else:
                self.post(release, proc)
            return None
        raise TypeError(f"unknown op {op!r}: ops dispatch on their exact class")

    def _handle_abort(self) -> None:
        """First notice of a FAIL: release barrier waiters as aborted.

        Running processors abort at their next event (hardware squashes
        at the next cycle boundary); blocked ones are freed here so the
        phase can end.
        """
        self._abort_handled = True
        t = max(self.now, self.abort_time())
        barriers = []
        for proc in self.processors:
            if proc.state is ProcState.BLOCKED and proc._blocked_on is not None:
                if proc._blocked_on not in barriers:
                    barriers.append(proc._blocked_on)
        for barrier in barriers:
            for proc in barrier.release_waiters(t):
                proc.abort(t)
