"""The order of one run's lifecycle: events on the bus and spans.

``TestEmissionCounts`` (test_obs.py) pins how many events of each class
a run emits; this pins their order against the phases, the ledger write
and the run's end, and the host-time spans nested under each ``run``
span.  Every scenario driver, pass and fail path, goes through one
lifecycle, so a reordering in it shows up here.
"""

import pytest

from repro.obs import EventBus, RunLedger, SpanProfiler, spans
from repro.params import small_test_params
from repro.runtime import RunConfig
from repro.runtime.driver import run_hw, run_ideal, run_serial, run_sw
from repro.trace.loop import ArraySpec, Loop
from repro.trace.ops import compute, read, write
from repro.types import ProtocolKind

#: events emitted once per access or directory update: their counts are
#: pinned elsewhere, and between two lifecycle events they only collapse
#: into one ``...`` marker here.
_STREAM = {
    "AccessEvent", "DirTransitionEvent", "ProtocolMessageEvent",
    "NonPrivDirUpdateEvent", "PrivDirUpdateEvent", "PrivSimpleDirUpdateEvent",
}


def _loop(dependence: bool) -> Loop:
    """16 iterations over a live-out privatized scratch array and a
    shared array; with ``dependence``, iteration 3 writes an element of
    the shared array that iteration 7 reads."""
    body = [
        [write("W", i % 8), compute(30), read("W", i % 8),
         read("A", 2 * i), write("A", 2 * i)]
        for i in range(16)
    ]
    if dependence:
        body[2].append(write("A", 1))
        body[6].insert(0, read("A", 1))
    return Loop(
        "lifecycle-dep" if dependence else "lifecycle",
        [ArraySpec("A", 40, 8, ProtocolKind.NONPRIV),
         ArraySpec("W", 8, 8, ProtocolKind.PRIV, live_out=True)],
        body,
    )


def _lifecycle(run, loop, ledger):
    """(passed, [(event class, phase)], [span names under each run])."""
    seen = []
    bus = EventBus()

    def record(event):
        name = type(event).__name__
        entry = "..." if name in _STREAM else (name, getattr(event, "phase", None))
        if not (entry == "..." and seen and seen[-1] == "..."):
            seen.append(entry)

    bus.subscribe(None, record)
    prof = spans.install(SpanProfiler())
    try:
        result = run(loop, small_test_params(2), RunConfig(telemetry=bus, ledger=ledger))
    finally:
        spans.uninstall()
    recorded = sorted(prof.snapshot()["spans"], key=lambda s: s["sid"])
    runs = [s["sid"] for s in recorded if s["name"] == "run"]
    children = [
        [s["name"] for s in recorded if s["parent"] == sid] for sid in runs
    ]
    return result.passed, seen, children


_START = ("RunStartEvent", None)
_END = ("RunEndEvent", None)
_WRITE = ("LedgerWriteEvent", None)
_ARM = ("SpeculationArmEvent", None)
_QUIESCE = ("QuiesceEvent", None)


def _phase(name):
    return [("PhaseBeginEvent", name), "...", _QUIESCE, ("PhaseEndEvent", name)]


#: recorded before the scenario drivers shared one lifecycle, except
#: ``hw-pass``, whose copy-out now runs after the disarm
EXPECTED = {
    "serial": (
        True,
        [_START, *_phase("loop"), _END, _WRITE],
        [["phase:loop"]],
    ),
    "ideal": (
        True,
        [_START, *_phase("loop"), _END, _WRITE],
        [["phase:loop"]],
    ),
    "sw-pass": (
        True,
        [_START, *_phase("setup"), *_phase("loop"), *_phase("merge-analysis"),
         *_phase("copy-out"), _END, _WRITE],
        [["phase:setup", "phase:loop", "phase:merge-analysis", "phase:copy-out"]],
    ),
    "sw-fail": (
        False,
        [_START, *_phase("setup"), *_phase("loop"), *_phase("merge-analysis"),
         ("AbortEvent", None), *_phase("restore"), ("RestoreEvent", None),
         _END, _WRITE],
        [["phase:setup", "phase:loop", "phase:merge-analysis", "phase:restore",
          "run"],
         ["phase:loop"]],
    ),
    # The loop-end commit sweep emits between the loop and the disarm;
    # copy-out runs disarmed, so its reads of the private copies are
    # plain accesses that no protocol tests.
    "hw-pass": (
        True,
        [_START, *_phase("backup"), _ARM, *_phase("loop"), "...", _ARM,
         *_phase("copy-out"), _END, _WRITE],
        [["phase:backup", "phase:loop", "phase:copy-out"]],
    ),
    "hw-fail": (
        False,
        [_START, *_phase("backup"), _ARM, ("PhaseBeginEvent", "loop"), "...",
         ("FailureEvent", None), "...", _QUIESCE, ("PhaseEndEvent", "loop"),
         _ARM, ("AbortEvent", None), *_phase("restore"), ("RestoreEvent", None),
         _END, _WRITE],
        [["phase:backup", "phase:loop", "phase:restore", "run"],
         ["phase:loop"]],
    ),
    "hw-served": (
        True,
        [("LedgerHitEvent", None)],
        [],
    ),
}

_RUNS = {
    "serial": (run_serial, False),
    "ideal": (run_ideal, False),
    "sw-pass": (run_sw, False),
    "sw-fail": (run_sw, True),
    "hw-pass": (run_hw, False),
    "hw-fail": (run_hw, True),
}


@pytest.mark.parametrize("case", sorted(_RUNS))
def test_lifecycle_order(case, tmp_path):
    run, dependence = _RUNS[case]
    ledger = RunLedger(str(tmp_path))
    assert _lifecycle(run, _loop(dependence), ledger) == EXPECTED[case]


def test_served_rerun_emits_only_the_ledger_hit(tmp_path):
    ledger = RunLedger(str(tmp_path))
    assert _lifecycle(run_hw, _loop(False), ledger) == EXPECTED["hw-pass"]
    assert _lifecycle(run_hw, _loop(False), ledger) == EXPECTED["hw-served"]


def test_passing_hw_run_emits_no_failure_event():
    """Copy-out runs after the disarm: a run whose verdict is PASS must
    not report a FAIL from its own copy-out accesses."""
    bus = EventBus()
    kinds = []
    bus.subscribe(None, lambda event: kinds.append(type(event).__name__))
    result = run_hw(_loop(False), small_test_params(2), RunConfig(telemetry=bus))
    assert result.passed and result.failure is None
    assert "PhaseBeginEvent" in kinds and "FailureEvent" not in kinds
