"""Hierarchical wall-clock span profiler.

This module is the host-side (wall clock) companion to the simulated-time
event bus: a :class:`SpanProfiler` records a tree of spans
(run -> phase -> epoch) with attached counters and optional per-span
resource samples (RSS, CPU time, GC collections).

Null-path discipline mirrors the EventBus contract: instrumented call
sites do ``prof = spans.current()`` and skip everything when it returns
``None`` — no span dict is ever allocated, no profiler method is ever
called.  The guarantee is pinned the same way as
``TestGuardedEmissionSites``: tests booby-trap ``SpanProfiler.begin`` and
run the full simulator with no profiler installed.

The profiler records in the process that installed it: the experiments
CLI installs one around its verbs under ``--profile-out`` (which is why
that flag refuses ``--jobs`` other than 1), and
``repro.obs.export.span_trace_events`` turns a snapshot into Chrome
trace slices.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "SpanProfiler",
    "current",
    "install",
    "uninstall",
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
    on the wall clock.
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
# ambient profiler (the null path reads one module global)

_PROFILER: Optional[SpanProfiler] = None


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
