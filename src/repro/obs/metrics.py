"""Metrics registry: labeled counters and histograms over the event bus.

The registry is the aggregation layer of the telemetry stack: raw
events flow on the bus, the :class:`MetricsCollector` folds them into
counters/histograms keyed by labels (phase × array × processor for
accesses, label × array for protocol messages, ...), and reports read
the registry instead of re-scanning event logs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..types import AccessKind
from .bus import EventBus
from .events import (
    AccessEvent,
    BarrierWaitEvent,
    DirTransitionEvent,
    FailureEvent,
    PhaseBeginEvent,
    PhaseEndEvent,
    ProtocolMessageEvent,
)

__all__ = ["Counter", "Histogram", "MetricsRegistry", "MetricsCollector"]

LabelKey = Tuple[Tuple[str, Any], ...]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


class Histogram:
    """A streaming histogram with power-of-two buckets.

    Tracks count / total / min / max exactly; the distribution is kept
    as counts per ``2^k`` bucket (bucket k holds values in
    ``[2^k, 2^(k+1))``; values < 1 land in bucket 0).
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = max(0, int(value).bit_length() - 1) if value >= 1 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": dict(sorted(self.buckets.items())),
        }


def _key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted(labels.items()))


class MetricsRegistry:
    """Get-or-create store of labeled counters and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[LabelKey, Counter]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        series = self._counters.setdefault(name, {})
        key = _key(labels)
        metric = series.get(key)
        if metric is None:
            metric = series[key] = Counter()
        return metric

    def histogram(self, name: str, **labels: Any) -> Histogram:
        series = self._histograms.setdefault(name, {})
        key = _key(labels)
        metric = series.get(key)
        if metric is None:
            metric = series[key] = Histogram()
        return metric

    # ------------------------------------------------------------------
    def value(self, name: str, **labels: Any) -> int:
        """Current value of a counter (0 when it never incremented)."""
        series = self._counters.get(name, {})
        metric = series.get(_key(labels))
        return metric.value if metric is not None else 0

    def total(self, name: str, **labels: Any) -> int:
        """Sum of every counter series of ``name`` whose labels contain
        the given ones (e.g. ``total("mem.accesses", proc=0)``)."""
        want = set(labels.items())
        out = 0
        for key, metric in self._counters.get(name, {}).items():
            if want <= set(key):
                out += metric.value
        return out

    def series(self, name: str) -> Iterator[Tuple[Dict[str, Any], Any]]:
        """Iterate ``(labels, metric)`` for one metric name."""
        for key, metric in self._counters.get(name, {}).items():
            yield dict(key), metric
        for key, metric in self._histograms.get(name, {}).items():
            yield dict(key), metric

    def names(self) -> List[str]:
        return sorted(set(self._counters) | set(self._histograms))

    def clear(self) -> None:
        self._counters.clear()
        self._histograms.clear()

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Snapshot every metric as plain JSON-friendly types.  Label
        sets are rendered as ``k=v,k=v`` strings for stable keys."""

        def label_str(key: LabelKey) -> str:
            return ",".join(f"{k}={v}" for k, v in key) or "_total"

        return {
            "counters": {
                name: {label_str(k): c.value for k, c in series.items()}
                for name, series in sorted(self._counters.items())
            },
            "histograms": {
                name: {label_str(k): h.as_dict() for k, h in series.items()}
                for name, series in sorted(self._histograms.items())
            },
        }


class MetricsCollector:
    """Bus subscriber that populates a :class:`MetricsRegistry`.

    Aggregations (labels in parentheses):

    * ``mem.accesses`` (phase, proc, array, kind, level) — every access;
    * ``mem.stall_cycles`` histogram (phase, array) — per-access latency;
    * ``spec.messages`` (phase, label, array, proc) — protocol messages;
    * ``dir.transitions`` (phase, node, to) — directory state changes;
    * ``sync.barrier_wait`` histogram (phase, proc) — barrier waits;
    * ``phase.cycles`` (phase) — total cycles per phase name;
    * ``spec.failures`` (reason) — FAILed protocol checks.

    ``space`` (an :class:`~repro.address.AddressSpace`) resolves access
    addresses to array names; unset, arrays are labeled ``<unknown>``.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        space=None,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.space = space
        self.phase = ""

    # ------------------------------------------------------------------
    def subscribe(self, bus: EventBus) -> "MetricsCollector":
        bus.subscribe(AccessEvent, self._on_access)
        bus.subscribe(ProtocolMessageEvent, self._on_message)
        bus.subscribe(DirTransitionEvent, self._on_dir)
        bus.subscribe(BarrierWaitEvent, self._on_barrier)
        bus.subscribe(PhaseBeginEvent, self._on_phase_begin)
        bus.subscribe(PhaseEndEvent, self._on_phase_end)
        bus.subscribe(FailureEvent, self._on_failure)
        return self

    # ------------------------------------------------------------------
    def _array_of(self, addr: int) -> str:
        if self.space is None:
            return "<unknown>"
        decl = self.space.find(addr)
        return decl.name if decl is not None else "<unknown>"

    def _on_access(self, e: AccessEvent) -> None:
        array = self._array_of(e.addr)
        self.registry.counter(
            "mem.accesses",
            phase=self.phase,
            proc=e.proc,
            array=array,
            kind=e.kind.value,
            level=e.level.value,
        ).inc()
        self.registry.histogram(
            "mem.stall_cycles", phase=self.phase, array=array
        ).observe(max(0, e.latency - 1))

    def _on_message(self, e: ProtocolMessageEvent) -> None:
        self.registry.counter(
            "spec.messages",
            phase=self.phase,
            label=e.label,
            array=e.array,
            proc=e.proc,
        ).inc()

    def _on_dir(self, e: DirTransitionEvent) -> None:
        self.registry.counter(
            "dir.transitions", phase=self.phase, node=e.node, to=e.new.value
        ).inc()

    def _on_barrier(self, e: BarrierWaitEvent) -> None:
        self.registry.histogram(
            "sync.barrier_wait", phase=self.phase, proc=e.proc
        ).observe(e.wait_cycles)

    def _on_phase_begin(self, e: PhaseBeginEvent) -> None:
        self.phase = e.phase

    def _on_phase_end(self, e: PhaseEndEvent) -> None:
        self.registry.counter("phase.cycles", phase=e.phase).inc(
            int(e.duration)
        )
        self.phase = ""

    def _on_failure(self, e: FailureEvent) -> None:
        self.registry.counter("spec.failures", reason=e.reason).inc()
