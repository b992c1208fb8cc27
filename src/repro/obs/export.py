"""Trace exporters: JSONL, Chrome trace-event format, text phase report.

The Chrome trace-event output opens directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``: phases appear as
nested slices on a "runtime" track, per-processor tracks carry memory
misses, barrier waits and protocol messages, and aborts/failures show
as instants.  Simulated cycles are written as microseconds (1 cycle =
1 us) so Perfetto's time axis reads directly in cycles.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from typing import IO, Any, Dict, Iterable, List, Optional, Union

from .events import (
    AbortEvent,
    AccessEvent,
    BarrierWaitEvent,
    DirTransitionEvent,
    EpochSyncEvent,
    Event,
    FailureEvent,
    PhaseBeginEvent,
    PhaseEndEvent,
    ProtocolMessageEvent,
    QuiesceEvent,
    RestoreEvent,
    RunEndEvent,
    RunStartEvent,
    SpeculationArmEvent,
)

__all__ = [
    "event_to_dict",
    "write_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "span_trace_events",
    "phase_report",
]

try:  # memsys.cache has no import back into obs; guard stays for safety
    from ..memsys.cache import HitLevel
except ImportError:  # pragma: no cover
    HitLevel = None  # type: ignore


def _plain(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def event_to_dict(event: Event) -> Dict[str, Any]:
    """Flatten one event into JSON types, tagged with name/subsystem."""
    out: Dict[str, Any] = {"event": event.name, "subsystem": event.subsystem}
    for field in dataclasses.fields(event):
        out[field.name] = _plain(getattr(event, field.name))
    return out


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(
    events: Iterable[Event],
    dest: Union[str, IO[str]],
    include_hits: bool = False,
) -> int:
    """Write one JSON object per event to ``dest`` (path or file).

    ``include_hits=False`` (the default) drops cache-hit
    :class:`AccessEvent`\\ s — they dominate the stream and their
    aggregate lives in the metrics registry; misses are kept.  Returns
    the number of lines written.
    """
    own = isinstance(dest, str)
    if own:
        _ensure_parent(dest)  # type: ignore[arg-type]
    fp: IO[str] = open(dest, "w") if own else dest  # type: ignore[arg-type]
    count = 0
    try:
        for event in events:
            if (
                not include_hits
                and type(event) is AccessEvent
                and HitLevel is not None
                and event.level is not HitLevel.MEMORY
            ):
                continue
            fp.write(json.dumps(event_to_dict(event)) + "\n")
            count += 1
    finally:
        if own:
            fp.close()
    return count


# ----------------------------------------------------------------------
# Chrome trace-event format (Perfetto)
# ----------------------------------------------------------------------
def chrome_trace(
    events: Iterable[Event],
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Convert an event stream to a Chrome trace-event document.

    Track layout: tid 0 is the runtime (phases, run markers); tid
    ``proc + 1`` is processor ``proc`` (misses, barrier waits, protocol
    messages).  Events are emitted in nondecreasing timestamp order.
    """
    trace: List[Dict[str, Any]] = []

    def slice_(ts, dur, tid, name, cat, args=None):
        ev = {"ph": "X", "ts": float(ts), "dur": float(dur), "pid": 0,
              "tid": tid, "name": name, "cat": cat}
        if args:
            ev["args"] = args
        return ev

    def instant(ts, tid, name, cat, args=None):
        ev = {"ph": "i", "ts": float(ts), "pid": 0, "tid": tid,
              "name": name, "cat": cat, "s": "t"}
        if args:
            ev["args"] = args
        return ev

    for event in events:
        t = type(event)
        if t is PhaseBeginEvent:
            trace.append({"ph": "B", "ts": float(event.time), "pid": 0,
                          "tid": 0, "name": event.phase, "cat": "runtime"})
        elif t is PhaseEndEvent:
            trace.append({"ph": "E", "ts": float(event.time), "pid": 0,
                          "tid": 0, "name": event.phase, "cat": "runtime"})
        elif t is AccessEvent:
            if HitLevel is None or event.level is HitLevel.MEMORY:
                trace.append(slice_(
                    event.time, max(1, event.latency), event.proc + 1,
                    "miss", "memsys", {"addr": event.addr,
                                       "kind": event.kind.value}))
        elif t is DirTransitionEvent:
            trace.append(instant(
                event.time, event.proc + 1, "dir-transition", "memsys",
                {"node": event.node, "prev": _plain(event.prev),
                 "new": _plain(event.new)}))
        elif t is ProtocolMessageEvent:
            trace.append(instant(
                event.time, event.proc + 1, event.label, "core",
                {"array": event.array, "index": event.index}))
        elif t is SpeculationArmEvent:
            trace.append(instant(
                event.time, 0, "arm" if event.armed else "disarm", "core"))
        elif t is FailureEvent:
            trace.append(instant(
                event.time, (event.proc or 0) + 1, "FAIL", "core",
                {"reason": event.reason, "element": _plain(event.element)}))
        elif t is BarrierWaitEvent:
            if event.wait_cycles > 0:
                trace.append(slice_(
                    event.time - event.wait_cycles, event.wait_cycles,
                    event.proc + 1, "barrier-wait", "sim"))
        elif t is EpochSyncEvent:
            trace.append(instant(event.time, 0, f"epoch-sync#{event.epoch}",
                                 "sim", {"flushed": event.flushed_messages}))
        elif t is QuiesceEvent:
            trace.append(instant(event.time, 0, "quiesce", "sim",
                                 {"events": event.events_processed,
                                  "aborted": event.aborted}))
        elif t is RunStartEvent:
            trace.append(instant(event.time, 0, f"run-start:{event.scenario}",
                                 "runtime", {"loop": event.loop_name,
                                             "procs": event.num_processors}))
        elif t is RunEndEvent:
            trace.append(instant(event.time, 0, "run-end", "runtime",
                                 {"passed": event.passed}))
        elif t is AbortEvent:
            trace.append(instant(event.time, 0, "abort", "runtime",
                                 {"reason": event.reason}))
        elif t is RestoreEvent:
            trace.append(slice_(event.time - event.duration, event.duration,
                                0, "restore", "runtime"))
        # unknown event types are skipped: exporters must never crash a run

    trace.sort(key=lambda ev: ev["ts"])
    doc: Dict[str, Any] = {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def write_chrome_trace(
    events: Iterable[Event],
    path: str,
    metadata: Optional[Dict[str, Any]] = None,
) -> int:
    """Write a Chrome trace JSON file; returns the trace-event count."""
    doc = chrome_trace(events, metadata=metadata)
    _ensure_parent(path)
    with open(path, "w") as fp:
        json.dump(doc, fp)
    return len(doc["traceEvents"])


# ----------------------------------------------------------------------
# Span traces (spans are host wall-clock)
# ----------------------------------------------------------------------
def span_trace_events(
    snapshot: Dict[str, Any],
    pid: int,
    anchor_wall: float,
) -> List[Dict[str, Any]]:
    """Convert one ``SpanProfiler.snapshot()`` into Chrome "X" slices.

    Span times are perf-counter seconds relative to the profiler's
    start; the profiler's ``t0_wall`` rebases them onto the wall clock.
    Timestamps are microseconds relative to ``anchor_wall``.
    """
    base = snapshot["t0_wall"] - anchor_wall
    out: List[Dict[str, Any]] = []
    for span in snapshot["spans"]:
        t1 = span["t1"] if span["t1"] is not None else span["t0"]
        args: Dict[str, Any] = dict(span.get("args") or {})
        if span.get("counters"):
            args["counters"] = dict(span["counters"])
        if span.get("resources"):
            args["resources"] = dict(span["resources"])
        ev = {
            "ph": "X",
            "ts": (base + span["t0"]) * 1e6,
            "dur": max(0.0, (t1 - span["t0"]) * 1e6),
            "pid": pid,
            "tid": span.get("tid", 0),
            "name": span["name"],
            "cat": span.get("cat", "span"),
        }
        if args:
            ev["args"] = args
        out.append(ev)
    return out


# ----------------------------------------------------------------------
# Text phase report
# ----------------------------------------------------------------------
def phase_report(events: Iterable[Event], width: int = 36) -> str:
    """Flame-style text report of where the cycles went, per phase."""
    header = ""
    phases: List[tuple] = []  # (name, start, duration)
    open_phases: Dict[str, float] = {}
    failures: List[FailureEvent] = []
    wall = 0.0
    for event in events:
        t = type(event)
        if t is RunStartEvent:
            header = (f"{event.scenario} on {event.loop_name} "
                      f"({event.num_processors} procs)")
        elif t is RunEndEvent:
            wall = max(wall, event.wall)
        elif t is PhaseBeginEvent:
            open_phases[event.phase] = event.time
        elif t is PhaseEndEvent:
            start = open_phases.pop(event.phase, event.time - event.duration)
            phases.append((event.phase, start, event.duration))
            wall = max(wall, event.time)
        elif t is FailureEvent:
            failures.append(event)
    total = sum(d for _, _, d in phases) or 1.0
    lines = [f"phase report: {header or '(no run marker)'} — "
             f"{wall:,.0f} cycles"]
    for name, start, duration in phases:
        bar = "#" * max(1, round(width * duration / total))
        lines.append(
            f"  {name:<16} {bar:<{width}} {100 * duration / total:5.1f}%"
            f" {duration:>14,.0f} cyc @ {start:,.0f}"
        )
    if failures:
        first = failures[0]
        lines.append(f"  FAIL: {first.reason} (element={first.element}, "
                     f"proc={first.proc}, t={first.time:,.0f})")
    return "\n".join(lines)
