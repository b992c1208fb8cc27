"""Unified telemetry for the simulator: events, bus, metrics, exports.

Quick start::

    from repro.obs import Telemetry
    from repro.runtime.driver import RunConfig, run_hw

    telemetry = Telemetry()
    results = run_hw(loop, num_processors=8,
                     config=RunConfig(telemetry=telemetry))
    telemetry.write_chrome_trace("trace.json")
    print(telemetry.phase_report())

See ``docs/observability.md`` for the event taxonomy and exporter
details.

The package re-exports its submodules' public names lazily (PEP 562):
``from repro.obs import RunLedger`` imports ``repro.obs.ledger`` on
first use, so a run that never records, monitors or exports loads none
of that code.  The simulator's emission sites look their event classes
up here (``obs.AccessEvent(...)``) behind their ``bus.active`` /
``wants_*`` guards, so ``repro.obs.events`` loads on the first event
built, and each later lookup is a plain module attribute read.
"""

import importlib

#: defining submodule -> the public names it contributes
_SUBMODULE_NAMES = {
    "telemetry": ("Telemetry",),
    "bus": ("EventBus", "BoundedLog", "EventRecorder"),
    "events": (
        "Event", "AccessEvent", "DirTransitionEvent", "ProtocolMessageEvent",
        "NonPrivDirUpdateEvent", "PrivDirUpdateEvent",
        "PrivSimpleDirUpdateEvent",
        "SpeculationArmEvent", "FailureEvent", "BarrierWaitEvent",
        "EpochSyncEvent", "QuiesceEvent", "RunStartEvent", "RunEndEvent",
        "PhaseBeginEvent", "PhaseEndEvent", "AbortEvent", "RestoreEvent",
        "PoolStartEvent", "PoolTaskEvent", "PoolWorkerFailureEvent",
        "PoolEndEvent", "LedgerWriteEvent", "LedgerHitEvent",
    ),
    "ledger": ("RunLedger", "LEDGER_DIR", "as_ledger", "ledger_key"),
    "monitor": (
        "InvariantViolation", "Monitor", "MonitorSuite", "NonPrivMonitor",
        "PrivMonitor", "PrivSimpleMonitor", "CoherenceMonitor",
    ),
    "forensics": (
        "ForensicReport", "MinimizedReproducer", "build_report", "element_trace",
    ),
    "metrics": ("Counter", "Histogram", "MetricsRegistry", "MetricsCollector"),
    "provenance": (
        "RunProvenance", "canonical_json", "fingerprint", "run_provenance",
    ),
    "export": (
        "chrome_trace", "write_chrome_trace", "write_jsonl", "event_to_dict",
        "phase_report", "span_trace_events",
    ),
    "spans": ("SpanProfiler",),
}
_EXPORTS = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
