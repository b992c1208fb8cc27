"""Hierarchical wall-clock span profiler with cross-process capture.

This module is the host-side (wall clock) companion to the simulated-time
event bus: a :class:`SpanProfiler` records a tree of spans
(run -> engine tier -> phase -> epoch, plus per-task pool spans) with attached counters and optional per-span
resource samples (RSS, CPU time, GC collections).

Null-path discipline mirrors the EventBus contract: instrumented call
sites do ``prof = spans.current()`` and skip everything when it returns
``None`` — no span dict is ever allocated, no profiler method is ever
called.  The guarantee is pinned the same way as
``TestGuardedEmissionSites``: tests booby-trap ``SpanProfiler.begin`` and
run the full simulator with no profiler installed.

Cross-process capture: :class:`WorkerCapture` bundles a profiler, an
event bus with a bounded recorder, and a ``MetricsCollector``; a pool
worker installs one around its task, then ships ``capture.snapshot()``
(plain picklable dicts) back on the existing result-pickling path.  The
parent-side :class:`ProfileSession` collects those snapshots and merges
them into one multi-track Chrome trace (``pid`` = worker process,
``tid`` = simulated processor) plus a p50/p95 rollup.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from .bus import EventBus, EventRecorder

if TYPE_CHECKING:
    from .metrics import MetricsRegistry

# ``export`` and ``metrics`` are imported inside the functions that use
# them: every run imports this module for its null-path hooks, and most
# never build a capture or a merged report.

__all__ = [
    "SpanProfiler",
    "WorkerCapture",
    "ProfileSession",
    "current",
    "install",
    "uninstall",
    "capture_current",
    "percentile",
]


# ---------------------------------------------------------------------------
# resource sampling


def _resource_sample() -> Dict[str, float]:
    """One coarse process resource sample (cheap; coarse spans only)."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    collections = 0
    for s in gc.get_stats():
        collections += s.get("collections", 0)
    return {
        "rss_kb": float(ru.ru_maxrss),
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "gc_collections": float(collections),
    }


class SpanProfiler:
    """Stack-based hierarchical span recorder on the host wall clock.

    Span handles are plain dicts (picklable through :meth:`snapshot`);
    timestamps are seconds relative to ``t0_perf`` (``time.perf_counter``
    at construction).  ``t0_wall`` (``time.time``) anchors the profiler
    on the shared wall clock so snapshots from different processes merge
    onto one timeline with no inversions.
    """

    def __init__(self, track: str = "main") -> None:
        self.track = track
        self.pid = os.getpid()
        self.t0_perf = time.perf_counter()
        self.t0_wall = time.time()
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Dict[str, Any]] = []
        self._next_sid = 0

    # -- core ----------------------------------------------------------
    def now(self) -> float:
        return time.perf_counter() - self.t0_perf

    def begin(
        self,
        name: str,
        cat: str = "span",
        tid: int = 0,
        sample: bool = False,
        **args: Any,
    ) -> Dict[str, Any]:
        """Open a span nested under the innermost open span."""
        parent = self._stack[-1]["sid"] if self._stack else None
        span: Dict[str, Any] = {
            "sid": self._next_sid,
            "parent": parent,
            "name": name,
            "cat": cat,
            "tid": tid,
            "t0": self.now(),
            "t1": None,
            "args": dict(args) if args else {},
            "counters": {},
        }
        self._next_sid += 1
        if sample:
            span["res0"] = _resource_sample()
        self._stack.append(span)
        return span

    def end(self, span: Dict[str, Any], **counters: float) -> None:
        """Close ``span`` (and, defensively, anything opened inside it)."""
        t = self.now()
        while self._stack:
            top = self._stack.pop()
            top["t1"] = t
            self._finish(top)
            if top is span:
                break
        for k, v in counters.items():
            span["counters"][k] = span["counters"].get(k, 0) + v

    def _finish(self, span: Dict[str, Any]) -> None:
        res0 = span.pop("res0", None)
        if res0 is not None:
            res1 = _resource_sample()
            span["resources"] = {
                "rss_kb": res1["rss_kb"],
                "cpu_s": round(res1["cpu_s"] - res0["cpu_s"], 6),
                "gc_collections": res1["gc_collections"] - res0["gc_collections"],
            }
        self.spans.append(span)

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "span",
        tid: int = 0,
        sample: bool = False,
        **args: Any,
    ):
        handle = self.begin(name, cat=cat, tid=tid, sample=sample, **args)
        try:
            yield handle
        finally:
            self.end(handle)

    def count(self, name: str, amount: float = 1) -> None:
        """Bump a counter on the innermost open span (or the profiler)."""
        target = self._stack[-1]["counters"] if self._stack else self.counters
        target[name] = target.get(name, 0) + amount

    # -- snapshot ------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain picklable state; closes any still-open spans first."""
        while self._stack:
            top = self._stack.pop()
            top["t1"] = self.now()
            self._finish(top)
        return {
            "track": self.track,
            "pid": self.pid,
            "t0_wall": self.t0_wall,
            "counters": dict(self.counters),
            "spans": [dict(s) for s in self.spans],
        }


# ---------------------------------------------------------------------------
# ambient profiler / capture (the null path reads one module global)

_PROFILER: Optional[SpanProfiler] = None
_CAPTURE: Optional["WorkerCapture"] = None


def current() -> Optional[SpanProfiler]:
    """The ambient profiler, or None (the zero-allocation null path)."""
    return _PROFILER


def install(profiler: SpanProfiler) -> SpanProfiler:
    global _PROFILER
    _PROFILER = profiler
    return profiler


def uninstall() -> None:
    global _PROFILER
    _PROFILER = None


def capture_current() -> Optional["WorkerCapture"]:
    """The ambient worker capture consulted by the run driver."""
    return _CAPTURE


class WorkerCapture:
    """Everything one pool worker records around one task.

    Bundles a :class:`SpanProfiler`, an :class:`EventBus` with a bounded
    :class:`EventRecorder`, and a :class:`MetricsCollector`.  The run
    driver attaches the capture bus to machines built while the capture
    is installed — but only when the run's own ``config.telemetry`` is
    unset, so explicit telemetry always wins.  ``snapshot()`` is plain
    picklable data and rides back to the parent with the task result.
    """

    #: bounded obs-event sample per task (BoundedLog drops oldest half)
    EVENT_CAPACITY = 2048

    def __init__(self, label: str = "") -> None:
        from .metrics import MetricsCollector

        self.label = label
        self.profiler = SpanProfiler(track=f"task:{label}" if label else "task")
        self.bus = EventBus()
        self.recorder = EventRecorder(capacity=self.EVENT_CAPACITY)
        self.recorder.subscribe(self.bus)
        self.collector = MetricsCollector()
        self.collector.subscribe(self.bus)
        self._root: Optional[Dict[str, Any]] = None

    def install(self) -> "WorkerCapture":
        global _CAPTURE
        install(self.profiler)
        _CAPTURE = self
        self._root = self.profiler.begin(
            "task", cat="task", sample=True, label=self.label
        )
        return self

    def uninstall(self) -> None:
        global _CAPTURE
        if self._root is not None:
            self.profiler.end(self._root)
            self._root = None
        if _CAPTURE is self:
            _CAPTURE = None
        if current() is self.profiler:
            uninstall()

    def attach(self, machine) -> None:
        """Duck-typed like Telemetry.attach; called by the run driver."""
        machine.attach_bus(self.bus)
        self.collector.space = machine.space

    def snapshot(self) -> Dict[str, Any]:
        from .export import chrome_trace

        trace_events = [
            ev
            for ev in chrome_trace(self.recorder)["traceEvents"]
            # B/E pairs from separate runs would interleave after the
            # wall-clock rescale; keep complete slices and instants only.
            if ev.get("ph") in ("X", "i")
        ]
        return {
            "label": self.label,
            "pid": os.getpid(),
            "profile": self.profiler.snapshot(),
            "metrics": self.collector.registry.snapshot(),
            "trace_events": trace_events,
            "events_recorded": len(self.recorder),
            "events_dropped": self.recorder.dropped,
        }


# ---------------------------------------------------------------------------
# parent-side session


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Linear-interpolated percentile (q in [0, 100]); None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


class ProfileSession:
    """Parent-side aggregation of one profiled pooled (or inline) run.

    ``run_tasks(..., profile=session)`` fills in one record per task
    (worker capture snapshot + queue timing); the session then renders
    one merged multi-process Chrome trace and a p50/p95 rollup.
    """

    def __init__(self, label: str = "profile") -> None:
        self.label = label
        self.profiler = SpanProfiler(track="parent")
        self.tasks: List[Dict[str, Any]] = []
        self.pool: Dict[str, Any] = {}
        self.counters: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_task(
        self,
        index: int,
        label: str,
        attempts: int,
        inline: bool,
        submit_wall: Optional[float],
        done_wall: float,
        capture: Dict[str, Any],
    ) -> None:
        self.tasks.append(
            {
                "index": index,
                "label": label,
                "attempts": attempts,
                "inline": inline,
                "submit_wall": submit_wall,
                "done_wall": done_wall,
                "capture": capture,
            }
        )

    def note_pool(self, jobs: int, tasks: int, wall_s: float, failures: int, inline_tasks: int) -> None:
        self.pool = {
            "jobs": jobs,
            "tasks": tasks,
            "wall_s": round(wall_s, 6),
            "failures": failures,
            "inline_tasks": inline_tasks,
        }

    # -- outputs -------------------------------------------------------
    def merged_trace(self, metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        from .export import merged_chrome_trace

        meta = {"label": self.label, "pool": self.pool, "counters": self.counters}
        if metadata:
            meta.update(metadata)
        return merged_chrome_trace(
            self.profiler.snapshot(),
            [t["capture"] for t in self.tasks],
            metadata=meta,
        )

    def merged_metrics(self) -> MetricsRegistry:
        from .metrics import MetricsRegistry

        merged = MetricsRegistry()
        for t in self.tasks:
            snap = t["capture"].get("metrics")
            if snap:
                merged.merge(snap)
        return merged

    def rollup(self) -> Dict[str, Any]:
        """p50/p95 per-task wall, queue wait, utilization, tier breakdown."""
        walls: List[float] = []
        waits: List[float] = []
        retries = 0
        inline_tasks = 0
        phase_breakdown: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, float] = dict(self.counters)
        for t in self.tasks:
            prof = t["capture"].get("profile", {})
            spans = prof.get("spans", [])
            root = next((s for s in spans if s.get("cat") == "task"), None)
            if root is not None and root["t1"] is not None:
                wall = root["t1"] - root["t0"]
            else:
                wall = 0.0
            walls.append(wall)
            if t["submit_wall"] is not None:
                waits.append(max(0.0, prof.get("t0_wall", t["done_wall"]) - t["submit_wall"]))
            retries += max(0, t["attempts"])
            inline_tasks += 1 if t["inline"] else 0
            for s in spans:
                for k, v in s.get("counters", {}).items():
                    counters[k] = counters.get(k, 0) + v
                if s.get("cat") == "phase":
                    tier = str(s.get("args", {}).get("engine", "?"))
                    per_tier = phase_breakdown.setdefault(tier, {})
                    per_tier[s["name"]] = round(
                        per_tier.get(s["name"], 0.0) + (s["t1"] - s["t0"]), 6
                    )
            for k, v in prof.get("counters", {}).items():
                counters[k] = counters.get(k, 0) + v
        jobs = max(1, int(self.pool.get("jobs") or 1))
        wall_s = self.pool.get("wall_s") or 0.0
        busy = sum(walls)
        utilization = (busy / (jobs * wall_s)) if wall_s > 0 else None
        workers = sorted({t["capture"].get("pid") for t in self.tasks if t["capture"]})
        stat = lambda xs: {
            "p50": percentile(xs, 50),
            "p95": percentile(xs, 95),
            "mean": (sum(xs) / len(xs)) if xs else None,
            "max": (max(xs) if xs else None),
        }
        return {
            "label": self.label,
            "tasks": len(self.tasks),
            "pool": dict(self.pool),
            "worker_pids": workers,
            "task_wall_s": stat(walls),
            "queue_wait_s": stat(waits),
            "worker_utilization": (round(utilization, 4) if utilization is not None else None),
            "retries": retries,
            "inline_tasks": inline_tasks,
            "phase_breakdown_s": phase_breakdown,
            "counters": counters,
        }
