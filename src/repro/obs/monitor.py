"""Online protocol invariant monitors (speculation forensics, part 1).

The protocols of the paper admit compact runtime invariants: the
non-privatization directory state of Figs 6/7 may only move *forward*
(``First`` goes unset -> set once, ``Priv`` and ``ROnly`` are sticky),
the privatization time stamps of Figs 8/9 are monotone (``MaxR1st``
never decreases, ``MinW`` never increases once set) and a FAIL must be
raised exactly when ``MaxR1st > MinW`` would become true.  The monitors
in this module subscribe to the event bus and check every committed
directory update against these state machines, independently of the
protocol implementation that produced them — a second, redundant
observer in the spirit of hardware assertion checkers.

A monitor never changes simulation behavior.  Violations are collected
as structured :class:`InvariantViolation` records (carrying the
offending event and a bounded window of recent history) and stamped
into ``RunResult.violations``; with ``strict=True`` the first violation
raises immediately, aborting the run loudly.

Arming::

    from repro.obs import MonitorSuite
    from repro.runtime.driver import RunConfig, run_hw

    suite = MonitorSuite()
    result = run_hw(loop, params, config=RunConfig(monitors=suite))
    assert result.violations == []       # protocols behaved
    if not result.passed:
        print(result.forensics.to_text())  # see repro.obs.forensics

With ``monitors=None`` (the default) nothing subscribes to the
speculation-directory events, ``bus.wants_spec`` stays False, and the
protocol hot paths never snapshot table state — the null path is free.
"""

from __future__ import annotations

import collections
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ProtocolError
from ..memsys.directory import legal_transition
from .bus import EventBus, EventRecorder
from .events import (
    AbortEvent,
    DirTransitionEvent,
    EpochSyncEvent,
    Event,
    FailureEvent,
    NonPrivDirUpdateEvent,
    PrivDirUpdateEvent,
    PrivSimpleDirUpdateEvent,
    ProtocolMessageEvent,
    RunStartEvent,
)

__all__ = [
    "InvariantViolation",
    "Monitor",
    "NonPrivMonitor",
    "PrivMonitor",
    "PrivSimpleMonitor",
    "CoherenceMonitor",
    "MonitorSuite",
]

#: ``NonPrivDirTable.first`` value for "no processor yet" (kept local so
#: the monitor does not import protocol internals it is checking).
_NO_PROC = -1


class InvariantViolation(ProtocolError):
    """A monitor observed a directory update that the protocol state
    machine cannot legally produce.

    Like every :class:`~repro.errors.ProtocolError` this indicates a
    simulator bug (or deliberately corrupted state in a test), never a
    property of the workload.

    Attributes:
        monitor: name of the monitor that fired.
        invariant: short identifier of the violated invariant.
        detail: human-readable description of what went wrong.
        event: the offending event, when one exists (end-of-run checks
            attach the event that poisoned the state).
        history: recent events seen by the monitor before the violation,
            oldest first — the local context for debugging.
    """

    def __init__(
        self,
        monitor: str,
        invariant: str,
        detail: str,
        event: Optional[Event] = None,
        history: Tuple[Event, ...] = (),
    ) -> None:
        super().__init__(f"[{monitor}/{invariant}] {detail}")
        self.monitor = monitor
        self.invariant = invariant
        self.detail = detail
        self.event = event
        self.history = tuple(history)

    def to_dict(self) -> dict:
        from .export import event_to_dict

        return {
            "monitor": self.monitor,
            "invariant": self.invariant,
            "detail": self.detail,
            "event": event_to_dict(self.event) if self.event is not None else None,
            "history": [event_to_dict(e) for e in self.history],
        }


class Monitor:
    """Base class: event routing, bounded history, violation collection.

    Subclasses list the event types they check in :attr:`event_types`
    and implement :meth:`check`; deferred end-of-run invariants go in
    :meth:`finish`.  Monitors are reusable across runs — per-run state
    is dropped on every ``RunStartEvent`` (and violations are drained by
    :meth:`take_violations` at each ``finalize``).
    """

    name = "monitor"
    #: event types routed to :meth:`check`
    event_types: Tuple[type, ...] = ()

    def __init__(self, history: int = 32, strict: bool = False) -> None:
        self.history: Deque[Event] = collections.deque(maxlen=history)
        self.violations: List[InvariantViolation] = []
        self.strict = strict
        self.events_seen = 0
        self._failed = False
        self.reset()

    # ------------------------------------------------------------------
    def subscribe(self, bus: EventBus) -> "Monitor":
        for event_type in self.event_types:
            bus.subscribe(event_type, self._on_event)
        bus.subscribe(RunStartEvent, self._on_run_start)
        bus.subscribe(FailureEvent, self._on_failure)
        return self

    def unsubscribe(self, bus: EventBus) -> None:
        for event_type in self.event_types:
            bus.unsubscribe(event_type, self._on_event)
        bus.unsubscribe(RunStartEvent, self._on_run_start)
        bus.unsubscribe(FailureEvent, self._on_failure)

    # ------------------------------------------------------------------
    def _on_run_start(self, event: Event) -> None:
        self.reset()

    def _on_failure(self, event: Event) -> None:
        self._failed = True

    def _on_event(self, event: Event) -> None:
        self.events_seen += 1
        self.check(event)
        self.history.append(event)

    # ------------------------------------------------------------------
    def check(self, event: Event) -> None:
        """Check one event against the online invariants."""
        raise NotImplementedError

    def finish(self, failed: bool) -> None:
        """End-of-run invariants (e.g. "poisoned state requires FAIL")."""

    def reset(self) -> None:
        """Drop per-run tracking state (new run on the same machine)."""
        self.history.clear()
        self._failed = False

    def take_violations(self) -> List[InvariantViolation]:
        out, self.violations = self.violations, []
        return out

    # ------------------------------------------------------------------
    def _violate(
        self, invariant: str, detail: str, event: Optional[Event] = None
    ) -> InvariantViolation:
        violation = InvariantViolation(
            self.name, invariant, detail, event, tuple(self.history)
        )
        self.violations.append(violation)
        if self.strict:
            raise violation
        return violation


def _fmt_nonpriv(state: Tuple[int, bool, bool]) -> str:
    first, priv, ronly = state
    first_s = "unset" if first == _NO_PROC else f"P{first}"
    return f"(First={first_s}, Priv={int(priv)}, ROnly={int(ronly)})"


class NonPrivMonitor(Monitor):
    """Checks the non-privatization state machine (Figs 6/7).

    Online invariants, per element:

    * ``first-stability`` — ``First`` moves unset -> set exactly once;
      a committed reassignment ``Pp -> Pq`` is impossible (every method
      of Figs 6/7 FAILs instead).
    * ``priv-sticky`` / ``ronly-sticky`` — ``NoShr(Priv)`` and ``ROnly``
      are never cleared during a loop.
    * ``state-continuity`` — each update's *before* state equals the
      last committed *after* state; a mismatch means the table was
      mutated outside the protocol (the corrupted-directory detector).
    * ``first-update-race`` — a ``First_update_fail`` bounce requires
      that the home's ``First`` was already held by a different
      processor (Fig 6-(f)).
    * ``fail-on-priv-ronly`` (end of run) — an element that ended both
      written-privately and read-shared must have FAILed the run
      (Fig 7-(h): such an element is neither read-only nor
      single-processor).
    """

    name = "nonpriv"
    event_types = (NonPrivDirUpdateEvent, ProtocolMessageEvent)

    def reset(self) -> None:
        super().reset()
        self._state: Dict[Tuple[str, int], Tuple[int, bool, bool]] = {}
        self._poisoned: Dict[Tuple[str, int], Event] = {}

    def check(self, event: Event) -> None:
        if type(event) is ProtocolMessageEvent:
            if event.label == "First_update_fail":
                self._check_bounce(event)
            return
        key = (event.array, event.index)
        prev = (event.prev_first, event.prev_priv, event.prev_ronly)
        new = (event.first, event.priv, event.ronly)
        known = self._state.get(key)
        if known is not None and known != prev:
            self._violate(
                "state-continuity",
                f"{event.array}[{event.index}] was {_fmt_nonpriv(known)} after "
                f"the last protocol update but this {event.cause} starts from "
                f"{_fmt_nonpriv(prev)}: the directory was mutated outside the "
                "protocol",
                event,
            )
        self._state[key] = new
        if event.prev_first != _NO_PROC and event.first != event.prev_first:
            self._violate(
                "first-stability",
                f"First({event.array}[{event.index}]) reassigned P{event.prev_first}"
                f" -> P{event.first} by a {event.cause}; Figs 6/7 only ever set an"
                " unset First (any contender FAILs or turns the element ROnly)",
                event,
            )
        if event.prev_priv and not event.priv:
            self._violate(
                "priv-sticky",
                f"NoShr(Priv) bit of {event.array}[{event.index}] cleared by a "
                f"{event.cause}; the bit is sticky for the whole loop",
                event,
            )
        if event.prev_ronly and not event.ronly:
            self._violate(
                "ronly-sticky",
                f"ROnly bit of {event.array}[{event.index}] cleared by a "
                f"{event.cause}; the bit is sticky for the whole loop",
                event,
            )
        if event.priv and event.ronly:
            self._poisoned.setdefault(key, event)

    def _check_bounce(self, event: Event) -> None:
        state = self._state.get((event.array, event.index))
        first = state[0] if state is not None else _NO_PROC
        if first in (_NO_PROC, event.proc):
            holder = "unset" if first == _NO_PROC else f"held by P{first} itself"
            self._violate(
                "first-update-race",
                f"First_update_fail bounced to P{event.proc} for "
                f"{event.array}[{event.index}] but the home's First is {holder};"
                " Fig 6-(f) bounces only when another processor won the race",
                event,
            )

    def finish(self, failed: bool) -> None:
        if failed:
            return
        for (array, index), event in self._poisoned.items():
            self._violate(
                "fail-on-priv-ronly",
                f"{array}[{index}] ended the loop both written privately (Priv)"
                " and read-shared (ROnly) yet no FAIL was raised; such an"
                " element is neither read-only nor single-processor (Fig 7)",
                event,
            )


class PrivMonitor(Monitor):
    """Checks the full-privatization time stamps (Figs 8/9).

    Online invariants, per element of the shared directory:

    * ``max-r1st-monotone`` — ``MaxR1st`` never decreases.
    * ``min-w-monotone`` — ``MinW`` never increases once set (and never
      becomes unset again).
    * ``fail-iff-overlap`` — a committed state with
      ``MaxR1st > MinW`` is impossible: the protocol must FAIL *instead
      of* committing the update that would create it (Figs 8-(d)/9-(i)).
    * ``state-continuity`` — as in :class:`NonPrivMonitor`.
    * ``tag-epoch`` — per (processor, element), the iteration numbers
      carried by ``read-first``/``first-write`` signals never decrease:
      processors execute their iterations in ascending virtual order,
      so a signal for an older iteration means the per-iteration
      ``Read1st``/``Write`` tag bits leaked across a boundary.

    All per-element tracking resets at every ``EpochSyncEvent`` — the
    time-stamp overflow synchronization of §3.3 clears the tables and
    restarts the virtual numbering.
    """

    name = "priv"
    event_types = (PrivDirUpdateEvent, ProtocolMessageEvent, EpochSyncEvent)

    def reset(self) -> None:
        super().reset()
        self._state: Dict[Tuple[str, int], Tuple[int, Optional[int]]] = {}
        self._signaled: Dict[Tuple[int, str, int, str], int] = {}

    def check(self, event: Event) -> None:
        if type(event) is EpochSyncEvent:
            self._state.clear()
            self._signaled.clear()
            return
        if type(event) is ProtocolMessageEvent:
            if event.label in ("read-first", "first-write") and (
                event.iteration is not None
            ):
                self._check_signal(event)
            return
        key = (event.array, event.index)
        prev = (event.prev_max_r1st, event.prev_min_w)
        known = self._state.get(key)
        if known is not None and known != prev:
            self._violate(
                "state-continuity",
                f"{event.array}[{event.index}] had (MaxR1st={known[0]}, "
                f"MinW={known[1]}) after the last protocol update but this "
                f"{event.cause} starts from (MaxR1st={prev[0]}, MinW={prev[1]}):"
                " the shared directory was mutated outside the protocol",
                event,
            )
        self._state[key] = (event.max_r1st, event.min_w)
        if event.max_r1st < event.prev_max_r1st:
            self._violate(
                "max-r1st-monotone",
                f"MaxR1st({event.array}[{event.index}]) decreased "
                f"{event.prev_max_r1st} -> {event.max_r1st} on a {event.cause}",
                event,
            )
        if event.prev_min_w is not None and (
            event.min_w is None or event.min_w > event.prev_min_w
        ):
            self._violate(
                "min-w-monotone",
                f"MinW({event.array}[{event.index}]) increased "
                f"{event.prev_min_w} -> {event.min_w} on a {event.cause}",
                event,
            )
        if event.min_w is not None and event.max_r1st > event.min_w:
            self._violate(
                "fail-iff-overlap",
                f"{event.array}[{event.index}] committed MaxR1st={event.max_r1st}"
                f" > MinW={event.min_w} on a {event.cause}; the protocol must"
                " FAIL instead of committing a read-first after a write"
                " (Figs 8-(d)/9-(i))",
                event,
            )

    def _check_signal(self, event: Event) -> None:
        # Same-iteration repeats are benign (a signal can race the tag
        # fill that would have suppressed it); a *lower* iteration means
        # the tag bits survived an iteration boundary they must not.
        key = (event.proc, event.array, event.index, event.label)
        last = self._signaled.get(key)
        if last is not None and event.iteration < last:
            self._violate(
                "tag-epoch",
                f"P{event.proc} signaled {event.label} for "
                f"{event.array}[{event.index}] in iteration {event.iteration}"
                f" after already signaling iteration {last}; per-iteration"
                " tag bits must be cleared at each iteration boundary, so"
                " signal iterations never go backwards on one processor",
                event,
            )
        if last is None or event.iteration > last:
            self._signaled[key] = event.iteration


class PrivSimpleMonitor(Monitor):
    """Checks the reduced privatization scheme (§4.1): sticky
    ``AnyR1st``/``AnyW`` bits, and FAIL exactly when both are set."""

    name = "priv-simple"
    event_types = (PrivSimpleDirUpdateEvent,)

    def reset(self) -> None:
        super().reset()
        self._state: Dict[Tuple[str, int], Tuple[bool, bool]] = {}
        self._poisoned: Dict[Tuple[str, int], Event] = {}

    def check(self, event: Event) -> None:
        key = (event.array, event.index)
        prev = (event.prev_any_r1st, event.prev_any_w)
        known = self._state.get(key)
        if known is not None and known != prev:
            self._violate(
                "state-continuity",
                f"{event.array}[{event.index}] had (AnyR1st={int(known[0])}, "
                f"AnyW={int(known[1])}) after the last protocol update but this "
                f"{event.cause} starts from (AnyR1st={int(prev[0])}, "
                f"AnyW={int(prev[1])})",
                event,
            )
        self._state[key] = (event.any_r1st, event.any_w)
        for bit, was, now_ in (
            ("AnyR1st", event.prev_any_r1st, event.any_r1st),
            ("AnyW", event.prev_any_w, event.any_w),
        ):
            if was and not now_:
                self._violate(
                    "any-sticky",
                    f"{bit}({event.array}[{event.index}]) cleared by a "
                    f"{event.cause}; the bits are sticky for the whole loop",
                    event,
                )
        if event.any_r1st and event.any_w:
            self._poisoned.setdefault(key, event)

    def finish(self, failed: bool) -> None:
        if failed:
            return
        for (array, index), event in self._poisoned.items():
            self._violate(
                "fail-on-both",
                f"{array}[{index}] has both AnyR1st and AnyW set yet no FAIL"
                " was raised; §4.1 fails as soon as an element is both"
                " read-first and written",
                event,
            )


class CoherenceMonitor(Monitor):
    """Checks every home-directory transition against the base
    coherence state machine
    (:data:`repro.memsys.directory.LEGAL_DIR_TRANSITIONS`)."""

    name = "coherence"
    event_types = (DirTransitionEvent,)

    def check(self, event: Event) -> None:
        if not legal_transition(event.prev, event.new, event.kind):
            kind = event.kind.name if event.kind is not None else "maintenance"
            self._violate(
                "legal-transition",
                f"line {event.line_addr:#x} at node {event.node} moved "
                f"{event.prev.name} -> {event.new.name} on a {kind} request,"
                " which the base protocol state machine does not allow",
                event,
            )


#: event types the suite records for forensic reconstruction
_FORENSIC_TYPES = (
    ProtocolMessageEvent,
    NonPrivDirUpdateEvent,
    PrivDirUpdateEvent,
    PrivSimpleDirUpdateEvent,
    FailureEvent,
    AbortEvent,
    EpochSyncEvent,
    RunStartEvent,
)


class MonitorSuite:
    """The standard bundle: all four protocol monitors plus an event
    recorder feeding the forensics engine.

    Pass as ``RunConfig(monitors=suite)``.  The suite shares the
    machine's existing event bus when telemetry is also attached
    (telemetry attaches first), and brings its own bus otherwise.
    After the run, ``RunResult.violations`` holds this run's violations
    and — when the speculation failed — ``RunResult.forensics`` holds
    the :class:`~repro.obs.forensics.ForensicReport`.
    """

    def __init__(
        self,
        monitors: Optional[List[Monitor]] = None,
        strict: bool = False,
        history: int = 32,
        capacity: int = 65536,
        reproduce: bool = True,
    ) -> None:
        if monitors is None:
            monitors = [
                NonPrivMonitor(history=history, strict=strict),
                PrivMonitor(history=history, strict=strict),
                PrivSimpleMonitor(history=history, strict=strict),
                CoherenceMonitor(history=history, strict=strict),
            ]
        self.monitors = monitors
        self.strict = strict
        #: whether finalize builds (and validates) minimized reproducers
        self.reproduce = reproduce
        self.events = EventRecorder(capacity=capacity)
        self._bus: Optional[EventBus] = None

    # ------------------------------------------------------------------
    def attach(self, machine) -> "MonitorSuite":
        """Wire the monitors into a machine — the duck-typed interface
        ``RunConfig.monitors`` expects.  Reuses the machine's bus when
        one is already attached (so telemetry and monitors share a
        stream); creates and attaches a fresh bus otherwise."""
        bus = getattr(machine, "bus", None)
        if bus is None:
            bus = EventBus()
            machine.attach_bus(bus)
        self.subscribe(bus)
        return self

    def subscribe(self, bus: EventBus) -> "MonitorSuite":
        if bus is self._bus:
            return self  # already wired (e.g. reused config)
        if self._bus is not None:
            self.unsubscribe()
        for monitor in self.monitors:
            monitor.subscribe(bus)
        self.events.subscribe(bus, *_FORENSIC_TYPES)
        self._bus = bus
        return self

    def unsubscribe(self) -> None:
        if self._bus is None:
            return
        for monitor in self.monitors:
            monitor.unsubscribe(self._bus)
        for event_type in _FORENSIC_TYPES:
            self._bus.unsubscribe(event_type, self.events.append)
        self._bus = None

    # ------------------------------------------------------------------
    def run_events(self) -> List[Event]:
        """Recorded events of the *latest* run (since the last
        ``RunStartEvent``)."""
        records = self.events.records
        for i in range(len(records) - 1, -1, -1):
            if type(records[i]) is RunStartEvent:
                return records[i:]
        return list(records)

    # ------------------------------------------------------------------
    def finalize(self, result, loop=None) -> None:
        """End-of-run hook called by the scenario drivers: run deferred
        checks, stamp violations, and on a failed speculation build the
        forensic report."""
        failed = not result.passed
        violations: List[InvariantViolation] = []
        for monitor in self.monitors:
            monitor.finish(failed)
            violations.extend(monitor.take_violations())
        result.violations = violations
        if failed and loop is not None and result.forensics is None:
            from .forensics import build_report

            result.forensics = build_report(
                loop, result, self.run_events(), reproduce=self.reproduce
            )
        if self.strict and violations:
            raise violations[0]
