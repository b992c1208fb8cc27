"""Typed telemetry events emitted on the :class:`~repro.obs.bus.EventBus`.

Every observable transition in the simulator is one frozen dataclass
here, tagged with the subsystem that emits it:

========== ======================================================
subsystem  events
========== ======================================================
memsys     :class:`AccessEvent`, :class:`DirTransitionEvent`
core       :class:`ProtocolMessageEvent`, :class:`SpeculationArmEvent`,
           :class:`FailureEvent`, :class:`NonPrivDirUpdateEvent`,
           :class:`PrivDirUpdateEvent`, :class:`PrivSimpleDirUpdateEvent`
sim        :class:`BarrierWaitEvent`, :class:`EpochSyncEvent`,
           :class:`QuiesceEvent`
runtime    :class:`RunStartEvent`, :class:`RunEndEvent`,
           :class:`PhaseBeginEvent`, :class:`PhaseEndEvent`,
           :class:`AbortEvent`, :class:`RestoreEvent`
pool       :class:`PoolStartEvent`, :class:`PoolTaskEvent`,
           :class:`PoolWorkerFailureEvent`, :class:`PoolEndEvent`
ledger     :class:`LedgerWriteEvent`, :class:`LedgerHitEvent`
========== ======================================================

Events are plain data: they carry no behavior and no references into
the machine, so they can be buffered, serialized and compared freely.
``time`` is always the simulated cycle at which the event happened —
except for the ``pool`` subsystem, which describes host-side experiment
fan-out and carries host seconds since the pool started instead, and
the ``ledger`` subsystem, where a write carries the simulated cycle at
run end and a cache hit carries 0.0 (no simulation ran).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Tuple

from ..types import AccessKind

__all__ = [
    "Event",
    "AccessEvent",
    "DirTransitionEvent",
    "ProtocolMessageEvent",
    "SpeculationArmEvent",
    "FailureEvent",
    "NonPrivDirUpdateEvent",
    "PrivDirUpdateEvent",
    "PrivSimpleDirUpdateEvent",
    "BarrierWaitEvent",
    "EpochSyncEvent",
    "QuiesceEvent",
    "RunStartEvent",
    "RunEndEvent",
    "PhaseBeginEvent",
    "PhaseEndEvent",
    "AbortEvent",
    "RestoreEvent",
    "PoolStartEvent",
    "PoolTaskEvent",
    "PoolWorkerFailureEvent",
    "PoolEndEvent",
    "LedgerWriteEvent",
    "LedgerHitEvent",
]


@dataclasses.dataclass(frozen=True)
class Event:
    """Base of all telemetry events (``time`` in simulated cycles)."""

    subsystem = "obs"  # class attribute, not a field
    name = "event"

    time: float


# ----------------------------------------------------------------------
# memsys
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AccessEvent(Event):
    """One simulated memory access."""

    subsystem = "memsys"
    name = "access"

    proc: int
    kind: AccessKind
    addr: int
    level: Any  # memsys.cache.HitLevel (kept untyped to avoid a cycle)
    latency: int


@dataclasses.dataclass(frozen=True)
class DirTransitionEvent(Event):
    """A home directory entry changed state during a transaction."""

    subsystem = "memsys"
    name = "dir-transition"

    node: int
    line_addr: int
    prev: Any  # types.DirState
    new: Any
    proc: int
    kind: Optional[AccessKind] = None


# ----------------------------------------------------------------------
# core (the speculative protocols)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class ProtocolMessageEvent(Event):
    """One coherence-extension message (First_update, read-first, ...)."""

    subsystem = "core"
    name = "protocol-message"

    label: str
    proc: int
    array: str
    index: int
    #: virtual iteration carrying the message, when the protocol knows
    #: it (privatization signals); appended with a default so the legacy
    #: positional field order stays stable
    iteration: Optional[int] = None


@dataclasses.dataclass(frozen=True)
class NonPrivDirUpdateEvent(Event):
    """One non-privatization directory-table update (Figs 6/7): the
    per-element ``First``/``NoShr(Priv)``/``ROnly`` state before and
    after, with the causing request.  Emitted only when a subscriber
    asked for it (``bus.wants_spec``) — the null path stays free."""

    subsystem = "core"
    name = "nonpriv-dir-update"

    array: str
    index: int
    proc: int
    #: "read-req" (b), "write-req" (d), "writeback" (e),
    #: "first-update" (f) or "ronly-update" (h)
    cause: str
    prev_first: int  # processor ID, NO_PROC (-1) when unset
    prev_priv: bool
    prev_ronly: bool
    first: int
    priv: bool
    ronly: bool


@dataclasses.dataclass(frozen=True)
class PrivDirUpdateEvent(Event):
    """One privatization shared-directory time-stamp update (Figs 8/9):
    ``MaxR1st``/``MinW`` before and after.  ``min_w`` of ``None`` means
    "no write seen yet" (compared as +infinity by the protocol)."""

    subsystem = "core"
    name = "priv-dir-update"

    array: str
    index: int
    proc: int
    iteration: int
    #: "read-first" (d), "first-write" (i), "read-in" (e) or
    #: "read-in-for-write" (j)
    cause: str
    prev_max_r1st: int
    prev_min_w: Optional[int]
    max_r1st: int
    min_w: Optional[int]


@dataclasses.dataclass(frozen=True)
class PrivSimpleDirUpdateEvent(Event):
    """One reduced-privatization shared-directory update (§4.1): the
    sticky ``AnyR1st``/``AnyW`` bits before and after."""

    subsystem = "core"
    name = "priv-simple-dir-update"

    array: str
    index: int
    proc: int
    iteration: int
    cause: str  # "read-first" or "write"
    prev_any_r1st: bool
    prev_any_w: bool
    any_r1st: bool
    any_w: bool


@dataclasses.dataclass(frozen=True)
class SpeculationArmEvent(Event):
    """Speculation armed (loop entry) or disarmed (loop exit)."""

    subsystem = "core"
    name = "speculation-arm"

    armed: bool


@dataclasses.dataclass(frozen=True)
class FailureEvent(Event):
    """A protocol check FAILed (first failure and late echoes alike)."""

    subsystem = "core"
    name = "failure"

    reason: str
    element: Optional[Tuple[str, int]] = None
    proc: Optional[int] = None
    iteration: Optional[int] = None


# ----------------------------------------------------------------------
# sim (discrete-event engine)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class BarrierWaitEvent(Event):
    """One processor's wait at a barrier; ``time`` is the release."""

    subsystem = "sim"
    name = "barrier-wait"

    proc: int
    wait_cycles: float


@dataclasses.dataclass(frozen=True)
class EpochSyncEvent(Event):
    """Time-stamp overflow synchronization (§3.3)."""

    subsystem = "sim"
    name = "epoch-sync"

    epoch: int
    flushed_messages: int = 0


@dataclasses.dataclass(frozen=True)
class QuiesceEvent(Event):
    """The engine drained a phase to quiescence."""

    subsystem = "sim"
    name = "quiesce"

    events_processed: int
    aborted: bool = False


# ----------------------------------------------------------------------
# runtime (scenario drivers)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RunStartEvent(Event):
    subsystem = "runtime"
    name = "run-start"

    scenario: str
    loop_name: str
    num_processors: int


@dataclasses.dataclass(frozen=True)
class RunEndEvent(Event):
    subsystem = "runtime"
    name = "run-end"

    passed: bool
    wall: float


@dataclasses.dataclass(frozen=True)
class PhaseBeginEvent(Event):
    subsystem = "runtime"
    name = "phase-begin"

    phase: str


@dataclasses.dataclass(frozen=True)
class PhaseEndEvent(Event):
    subsystem = "runtime"
    name = "phase-end"

    phase: str
    duration: float


@dataclasses.dataclass(frozen=True)
class AbortEvent(Event):
    """The runtime abandoned a speculative execution."""

    subsystem = "runtime"
    name = "abort"

    reason: str
    detection_cycle: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class RestoreEvent(Event):
    """Saved state was restored after a failed speculation."""

    subsystem = "runtime"
    name = "restore"

    duration: float


# ----------------------------------------------------------------------
# pool (host-side parallel experiment execution)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PoolStartEvent(Event):
    """A process-pool fan-out of independent simulation runs started.

    ``time`` (and all pool events') is host seconds since the pool
    started, not simulated cycles.
    """

    subsystem = "pool"
    name = "pool-start"

    jobs: int
    tasks: int


@dataclasses.dataclass(frozen=True)
class PoolTaskEvent(Event):
    """One pool task completed (in a worker or degraded to inline)."""

    subsystem = "pool"
    name = "pool-task"

    index: int
    label: str
    attempts: int
    inline: bool


@dataclasses.dataclass(frozen=True)
class PoolWorkerFailureEvent(Event):
    """A pool task could not complete in a worker on this attempt."""

    subsystem = "pool"
    name = "pool-worker-failure"

    index: int
    label: str
    #: "timeout", "worker-died", "unpicklable" or "task-error"
    kind: str
    attempt: int


@dataclasses.dataclass(frozen=True)
class PoolEndEvent(Event):
    """The pool drained: every task produced a result (or raised)."""

    subsystem = "pool"
    name = "pool-end"

    completed: int
    failures: int
    inline_tasks: int


# ----------------------------------------------------------------------
# ledger (the provenance-keyed run archive)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LedgerWriteEvent(Event):
    """A result was archived in a :class:`~repro.obs.ledger.RunLedger`.

    ``time`` is the simulated cycle at run end.  ``deduped`` means the
    content-addressed record already existed (an identical invocation
    was archived earlier) and nothing was rewritten.
    """

    subsystem = "ledger"
    name = "ledger-write"

    key: str
    kind: str
    passed: Optional[bool] = None
    deduped: bool = False


@dataclasses.dataclass(frozen=True)
class LedgerHitEvent(Event):
    """A run was served bit-identically from the ledger archive instead
    of being re-simulated.  ``time`` is 0.0 — no simulation ran."""

    subsystem = "ledger"
    name = "ledger-hit"

    key: str
    scenario: str = ""
    loop_name: str = ""
