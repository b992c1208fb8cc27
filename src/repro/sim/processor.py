"""Processor model plus the synchronization ops (barriers, mutexes).

A processor executes an *op stream* (a Python iterator produced by the
runtime's executor).  The engine's event loop
(:meth:`repro.sim.engine.Engine._run_to_quiescence`) is the op
interpreter: a processor is itself the heap target it posts.  Pure
compute and private accesses are batched; every shared-memory access,
barrier or mutex acquisition is a separate engine event, so accesses
from different processors interleave in global time order.

Ops dispatch on their exact class (``op.__class__ is AccessOp``, ...),
not through ``isinstance``: op classes are never subclassed, and a
subclass or any other object raises :class:`TypeError` rather than
being run as its base class.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, List, Optional, TYPE_CHECKING

from .. import obs
from .stats import PerProcStats

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine


class ProcState(enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    BLOCKED = "blocked"  # waiting at a barrier or mutex
    DONE = "done"
    ABORTED = "aborted"


# ----------------------------------------------------------------------
# Synchronization objects and control ops
# ----------------------------------------------------------------------
class Barrier:
    """An N-participant barrier with a linear-cost release."""

    def __init__(self, participants: int, base_cycles: int, per_proc_cycles: int):
        self.participants = participants
        self.cost = base_cycles + per_proc_cycles * participants
        self._waiting: List["Processor"] = []
        self._arrivals: List[float] = []

    def arrive(
        self, proc: "Processor", now: float, bus=None
    ) -> Optional[float]:
        """Returns the release time when this arrival completes the
        barrier, else None (the processor blocks).  ``bus`` (a
        ``repro.obs.EventBus``) receives one ``BarrierWaitEvent`` per
        participant at release time."""
        self._waiting.append(proc)
        self._arrivals.append(now)
        if len(self._waiting) < self.participants:
            return None
        release = now + self.cost
        for p, arrived in zip(self._waiting, self._arrivals):
            p.stats.sync += release - arrived
        if bus is not None and bus.active:
            for p, arrived in zip(self._waiting, self._arrivals):
                bus.emit(obs.BarrierWaitEvent(release, p.id, release - arrived))
        waiting = self._waiting
        self._waiting = []
        self._arrivals = []
        for p in waiting:
            if p is not proc:
                p.unblock(release)
        return release

    def release_waiters(self, now: float, aborted: bool = True) -> List["Processor"]:
        """Abort path: free everyone stuck here (speculation failed)."""
        released = self._waiting
        for p, arrived in zip(released, self._arrivals):
            p.stats.sync += max(0.0, now - arrived)
        self._waiting = []
        self._arrivals = []
        return released


class Mutex:
    """A lock serializing short critical sections (e.g. the fetch&add of
    dynamic self-scheduling).  Waiting time is Sync; the hold is Busy."""

    def __init__(self) -> None:
        self._busy_until: float = 0.0

    def acquire(self, now: float, hold_cycles: int) -> float:
        """Returns the wait time; the caller then holds for hold_cycles."""
        start = max(now, self._busy_until)
        self._busy_until = start + hold_cycles
        return start - now


@dataclasses.dataclass(frozen=True)
class BarrierOp:
    barrier: Barrier


@dataclasses.dataclass(frozen=True)
class MutexOp:
    mutex: Mutex
    hold_cycles: int


@dataclasses.dataclass(frozen=True)
class IterBeginOp:
    """Marks the start of a loop iteration.

    ``virtual`` is the iteration number the speculation protocols see
    (the chunk/super-iteration number under block scheduling, §4.1).
    ``overhead_cycles`` covers induction-variable/branch work plus, for
    the hardware privatization scheme, the address-qualified tag reset.
    """

    iteration: int
    virtual: int
    overhead_cycles: int = 0


@dataclasses.dataclass(frozen=True)
class SyncCostOp:
    """Charge fixed cycles to the Sync bucket (e.g. barrier entry fee)."""

    cycles: int


@dataclasses.dataclass(frozen=True)
class EpochSyncOp:
    """Time-stamp epoch boundary (§3.3): after the epoch barrier, reset
    the privatization time stamps so the effective iteration numbers can
    restart from zero.  Every processor issues one; the engine performs
    the reset on the first.  ``cycles`` models the reset system call."""

    epoch: int
    cycles: int = 40


@dataclasses.dataclass(frozen=True)
class BusyCostOp:
    """Charge fixed cycles to the Busy bucket (fixed overheads such as
    the §4.1 loop-entry system calls)."""

    cycles: int


class Processor:
    """One simulated processor: pulls ops, issues memory accesses."""

    #: Maximum cycles of pure compute batched into one engine event.
    BATCH_CYCLES = 256

    def __init__(self, proc_id: int, engine: "Engine") -> None:
        self.id = proc_id
        self.engine = engine
        self.state = ProcState.IDLE
        self.stats = PerProcStats()
        self.finish_time: float = -1.0
        self.current_iteration: int = 0
        self._ops: Optional[Iterator[object]] = None
        self._blocked_on: Optional[Barrier] = None
        self._pending_op: Optional[object] = None

    # ------------------------------------------------------------------
    def start(self, ops: Iterator[object], time: float) -> None:
        self._ops = ops
        self.state = ProcState.RUNNING
        self.finish_time = -1.0
        self.engine.post(time, self)

    def unblock(self, time: float) -> None:
        self.state = ProcState.RUNNING
        self._blocked_on = None
        self.engine.post(time, self)

    def abort(self, time: float) -> None:
        self.state = ProcState.ABORTED
        self.finish_time = time
        self._ops = None
        # A stale pending op (e.g. an epoch BarrierOp deferred by the
        # yield gate) must not leak into the next phase: the processor
        # would re-arrive at a barrier of the aborted phase that can
        # never complete again.
        self._pending_op = None
        self._blocked_on = None
        self.engine.proc_finished(self)

    # ------------------------------------------------------------------
    def _finish(self, time: float) -> None:
        # Release-consistency fence: retire outstanding writes.
        drain = self.engine.memsys.drain_write_buffer(self.id, time)
        self.stats.mem += drain
        self.state = ProcState.DONE
        self.finish_time = time + drain
        self._ops = None
        self.engine.proc_finished(self)
