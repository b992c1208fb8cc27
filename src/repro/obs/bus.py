"""The event bus: typed publish/subscribe with a zero-overhead null path.

Design constraints (in priority order):

1. **Telemetry off must cost nothing.**  Components hold ``bus = None``
   by default and guard emission with ``if bus is not None`` — no event
   object is ever constructed.  For the per-access hot path the bus
   additionally exposes the precomputed flags :attr:`EventBus.wants_access`
   and :attr:`EventBus.wants_dir`, so a bus attached only for coarse
   events (phases, runs) does not pay event construction per access.
2. **Dispatch is exact-type.**  ``subscribe(AccessEvent, fn)`` receives
   :class:`~repro.obs.events.AccessEvent` instances only; ``subscribe(None,
   fn)`` receives every event.  No MRO walking on the hot path.
3. **Subscribers are plain callables** taking the event; exceptions
   propagate (a broken subscriber should fail the run loudly, not drop
   telemetry silently).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Type

from .events import (
    AccessEvent,
    DirTransitionEvent,
    Event,
    NonPrivDirUpdateEvent,
    PrivDirUpdateEvent,
    PrivSimpleDirUpdateEvent,
)

__all__ = ["EventBus", "BoundedLog", "EventRecorder"]


class EventBus:
    """Typed pub/sub hub for :class:`~repro.obs.events.Event` streams."""

    def __init__(self) -> None:
        self._subs: Dict[type, List[Callable[[Event], None]]] = {}
        self._all: List[Callable[[Event], None]] = []
        #: any subscriber at all?  Emission sites guard event
        #: *construction* with this, so an attached-but-unsubscribed bus
        #: (e.g. telemetry wired up before recorders register) costs no
        #: allocations.
        self.active = False
        #: hot-path flags: any subscriber interested in per-access events?
        self.wants_access = False
        self.wants_dir = False
        #: any subscriber interested in per-update speculation-directory
        #: events (the invariant monitors)?  Off by default so protocol
        #: hot paths never snapshot table state for nobody.
        self.wants_spec = False

    # ------------------------------------------------------------------
    def subscribe(
        self,
        event_type: "Optional[Type[Event]]",
        fn: Callable[[Event], None],
    ) -> Callable[[Event], None]:
        """Register ``fn`` for events of exactly ``event_type`` (or all
        events when ``event_type`` is None).  Returns ``fn`` so the call
        can be chained/stored for later :meth:`unsubscribe`."""
        if event_type is None:
            self._all.append(fn)
        else:
            self._subs.setdefault(event_type, []).append(fn)
        self._recompute()
        return fn

    def unsubscribe(
        self,
        event_type: "Optional[Type[Event]]",
        fn: Callable[[Event], None],
    ) -> None:
        """Remove a subscription; missing subscriptions are ignored."""
        try:
            if event_type is None:
                self._all.remove(fn)
            else:
                self._subs.get(event_type, []).remove(fn)
        except ValueError:
            pass
        self._recompute()

    def _recompute(self) -> None:
        self.active = bool(self._all) or any(
            bool(subs) for subs in self._subs.values()
        )
        any_sub = bool(self._all)
        self.wants_access = any_sub or bool(self._subs.get(AccessEvent))
        self.wants_dir = any_sub or bool(self._subs.get(DirTransitionEvent))
        self.wants_spec = any_sub or any(
            bool(self._subs.get(t))
            for t in (
                NonPrivDirUpdateEvent,
                PrivDirUpdateEvent,
                PrivSimpleDirUpdateEvent,
            )
        )

    @property
    def subscriber_count(self) -> int:
        return len(self._all) + sum(len(v) for v in self._subs.values())

    # ------------------------------------------------------------------
    def emit(self, event: Event) -> None:
        """Deliver ``event`` to its exact-type subscribers, then to the
        catch-all subscribers."""
        subs = self._subs.get(type(event))
        if subs:
            for fn in subs:
                fn(event)
        for fn in self._all:
            fn(event)

    # ------------------------------------------------------------------
    def attach(self, machine) -> "EventBus":
        """Wire this bus into a :class:`~repro.sim.machine.Machine`
        (memory system, protocols, engine).  Also the duck-typed
        interface ``RunConfig.telemetry`` expects."""
        machine.attach_bus(self)
        return self


class BoundedLog:
    """Append-only in-memory log with a capacity bound.

    Once ``capacity`` is exceeded the *oldest half* is dropped in one go
    (amortized O(1) per append); ``dropped`` counts evicted records.
    Base of :class:`EventRecorder`.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        self.capacity = capacity
        self.records: List = []
        self.dropped = 0

    def append(self, record) -> None:
        if len(self.records) >= self.capacity:
            drop = self.capacity // 2
            del self.records[:drop]
            self.dropped += drop
        self.records.append(record)

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator:
        return iter(self.records)


class EventRecorder(BoundedLog):
    """Bounded recorder of every event on a bus (or a typed subset)."""

    def subscribe(self, bus: EventBus, *event_types: Type[Event]) -> "EventRecorder":
        """Start recording from ``bus``.  With no ``event_types``, every
        event is recorded; otherwise only the listed types."""
        if event_types:
            for event_type in event_types:
                bus.subscribe(event_type, self.append)
        else:
            bus.subscribe(None, self.append)
        return self

    def of_type(self, event_type: Type[Event]) -> List[Event]:
        return [e for e in self.records if type(e) is event_type]

    def subsystems(self) -> Dict[str, int]:
        """Event counts per emitting subsystem."""
        counts: Dict[str, int] = {}
        for event in self.records:
            counts[event.subsystem] = counts.get(event.subsystem, 0) + 1
        return counts
