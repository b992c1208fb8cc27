"""Global-time discrete-event engine driving processors and messages."""

from __future__ import annotations

import heapq
import itertools
from heapq import heappop
from typing import Callable, Dict, Iterator, List, Optional

from ..address import AddressSpace, ArrayDecl
from ..core.controller import SpeculationController
from ..core.engine import SpeculationEngine
from ..core.messages import Scheduler
from ..errors import ConfigurationError
from ..memsys.system import MemorySystem
from ..obs import spans as obs_spans
from ..obs.events import EpochSyncEvent, QuiesceEvent
from ..types import AccessKind
from .processor import Processor, ProcState
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
    """Event heap + processors.  Also the protocols' message scheduler."""

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
        #: array name -> ArrayDecl, filled by resolve() on first use
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
    def post(self, time: float, callback: Callable[[float], None]) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def post_message(self, time: float, callback: Callable[[float], None]) -> None:
        heapq.heappush(self._msg_heap, (time, next(self._seq), callback))

    def _pop_next(self):
        """Pop the earliest event across both heaps (messages win ties:
        they were usually issued earlier)."""
        if self._msg_heap and (
            not self._heap or self._msg_heap[0][:2] <= self._heap[0][:2]
        ):
            return heapq.heappop(self._msg_heap)
        if self._heap:
            return heapq.heappop(self._heap)
        return None

    def flush_messages(self) -> int:
        """Deliver every in-flight protocol message immediately (in time
        order).  Used at epoch synchronization points (§3.3), where the
        hardware waits for outstanding transactions to complete."""
        count = 0
        while self._msg_heap:
            time, _, callback = heapq.heappop(self._msg_heap)
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
            self.bus.emit(EpochSyncEvent(self.now, epoch, flushed))

    # ------------------------------------------------------------------
    # Speculation integration
    # ------------------------------------------------------------------
    @property
    def controller(self) -> Optional[SpeculationController]:
        return self.spec.controller if self.spec is not None else None

    def resolve(self, proc: int, array: str, index: int, kind: AccessKind) -> int:
        spec = self.spec
        if spec is not None and spec.controller.armed:
            return spec.resolve(proc, array, index, kind)
        decl = self._decls.get(array)
        if decl is None:
            # Decls are immutable and names are never reused, so the
            # first lookup of a name stays valid for the engine's life.
            decl = self._decls[array] = self.space.array(array)
        if 0 <= index < decl.length:
            return decl.base + index * decl.elem_bytes
        return decl.addr_of(index)  # raises AddressError

    def set_iteration(self, proc: int, virtual_iteration: int) -> None:
        if self.spec is not None:
            self.spec.set_iteration(proc, virtual_iteration)

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
            self.bus.emit(QuiesceEvent(self.now, self.events_processed, aborted))
        return result

    def drain(self) -> None:
        """Process every pending event (in-flight protocol messages).

        Intended for direct protocol-level tests that bypass
        :meth:`run_phase`; phases drain automatically.
        """
        while True:
            item = self._pop_next()
            if item is None:
                return
            time, _, callback = item
            if time > self.now:
                self.now = time
            callback(time)

    def _run_to_quiescence(self) -> None:
        # _abort_on_failure and spec are fixed for the phase, so the
        # abort test is one attribute test per event.
        ctrl = (
            self.spec.controller
            if self._abort_on_failure and self.spec is not None
            else None
        )
        # _pop_next inlined.  Sequence numbers are unique, so comparing
        # whole entries never reaches the callbacks and equals the
        # (time, seq) comparison there.
        heap = self._heap
        msg_heap = self._msg_heap
        max_events = self.max_events
        processed = self.events_processed
        try:
            while True:
                if msg_heap and (not heap or msg_heap[0] < heap[0]):
                    time, _, callback = heappop(msg_heap)
                elif heap:
                    time, _, callback = heappop(heap)
                else:
                    break
                processed += 1
                if processed > max_events:
                    raise ConfigurationError(
                        f"simulation exceeded {max_events} events; "
                        "suspected livelock"
                    )
                if time > self.now:
                    self.now = time
                callback(time)
                if (
                    ctrl is not None
                    and ctrl.failure is not None
                    and not self._abort_handled
                ):
                    self._handle_abort()
        finally:
            self.events_processed = processed
        if self._remaining > 0 and not self._abort_handled:
            stuck = [
                p.id for p in self.processors if p.state is ProcState.BLOCKED
            ]
            raise ConfigurationError(
                f"phase deadlocked: processors {stuck} blocked at a barrier "
                "that can never complete"
            )

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
