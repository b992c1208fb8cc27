"""The :class:`Telemetry` bundle: bus + full event recording + metrics."""

from __future__ import annotations

from .bus import EventBus, EventRecorder
from .export import phase_report, write_chrome_trace, write_jsonl
from .metrics import MetricsCollector, MetricsRegistry

__all__ = ["Telemetry"]


class Telemetry:
    """One-stop telemetry bundle: bus + full event recording + metrics.

    Pass an instance as ``RunConfig(telemetry=...)`` (or call
    :meth:`attach` on a machine directly); afterwards :attr:`events`
    holds the recorded stream, :attr:`registry` the aggregated metrics,
    and the exporter helpers write files straight from them.
    """

    def __init__(self, capacity: int = 1_000_000) -> None:
        self.bus = EventBus()
        self.events = EventRecorder(capacity=capacity).subscribe(self.bus)
        self.collector = MetricsCollector()
        self.collector.subscribe(self.bus)

    @property
    def registry(self) -> MetricsRegistry:
        return self.collector.registry

    # ------------------------------------------------------------------
    def attach(self, machine) -> "Telemetry":
        """Wire the bus into a machine; the duck-typed interface
        ``RunConfig.telemetry`` expects.  Picks up the machine's address
        space so metrics resolve addresses to array names."""
        machine.attach_bus(self.bus)
        if getattr(machine, "space", None) is not None:
            self.collector.space = machine.space
        return self

    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        return self.registry.as_dict()

    def write_chrome_trace(self, path: str, metadata: dict = None) -> int:
        return write_chrome_trace(self.events, path, metadata=metadata)

    def write_jsonl(self, path: str, include_hits: bool = False) -> int:
        return write_jsonl(self.events, path, include_hits=include_hits)

    def phase_report(self) -> str:
        return phase_report(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.registry.clear()
