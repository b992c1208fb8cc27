"""A finished run's machine is freed by reference counting alone.

Every driver releases its machine as the last step of the run
(``Machine.release``), which breaks the engine/processor, scheduler and
speculation-context back-references.  These tests run each driver with
the cyclic collector disabled and require the engine, memory system and
speculation state to be gone the moment the driver returns.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.errors import ConfigurationError
from repro.runtime import run_hw, run_ideal, run_serial, run_sw
from repro.sim.processor import ProcState
from repro.testing.diffcheck import conformance_signature

from .test_driver import DYN, PARAMS, parallel_loop, priv_loop, serial_dep_loop


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _weak_parts(machine):
    parts = {"engine": machine.engine, "memsys": machine.memsys}
    if machine.spec is not None:
        parts["spec"] = machine.spec
    return {name: weakref.ref(obj) for name, obj in parts.items()}


def _run_tracking(driver, loop, config=DYN):
    """Run ``driver`` keeping only weak references to its machine."""
    refs = {}
    config = dataclasses.replace(
        config, machine_hook=lambda m: refs.update(_weak_parts(m))
    )
    result = driver(loop, PARAMS, config)
    return result, refs


CASES = [
    ("serial", run_serial, parallel_loop, True),
    ("ideal", run_ideal, parallel_loop, True),
    ("sw-pass", run_sw, parallel_loop, True),
    ("sw-fail", run_sw, serial_dep_loop, False),
    ("hw-pass", run_hw, parallel_loop, True),
    ("hw-fail", run_hw, serial_dep_loop, False),
    ("hw-priv", run_hw, lambda: priv_loop(live_out=True), True),
]


@pytest.mark.parametrize(
    "driver,make_loop,passed", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_machine_freed_when_driver_returns(no_cyclic_gc, driver, make_loop, passed):
    result, refs = _run_tracking(driver, make_loop())
    assert result.passed is passed
    assert refs, "machine_hook never ran"
    if driver is run_hw:
        assert "spec" in refs
    alive = sorted(name for name, ref in refs.items() if ref() is not None)
    assert alive == [], f"left for the cyclic collector: {alive}"


def test_hooked_machine_freed_once_caller_drops_it(no_cyclic_gc):
    captured = []
    config = dataclasses.replace(DYN, machine_hook=captured.append)
    result = run_hw(serial_dep_loop(), PARAMS, config)
    assert not result.passed
    refs = _weak_parts(captured[0])
    assert all(ref() is not None for ref in refs.values())
    captured.clear()
    alive = sorted(name for name, ref in refs.items() if ref() is not None)
    assert alive == [], f"left for the cyclic collector: {alive}"


class TestReleasedMachine:
    def _finished(self, loop, config=DYN):
        captured = []
        result = run_hw(
            loop, PARAMS, dataclasses.replace(config, machine_hook=captured.append)
        )
        return result, captured[0]

    def test_directories_tables_and_stats_stay_readable(self):
        # diffcheck's conformance signature is the machine_hook consumer
        # that reads a finished machine: directories and protocol tables.
        result, machine = self._finished(parallel_loop())
        assert result.passed
        sig = conformance_signature(result, machine)
        assert any(sig["coherence_dirs"]), "no directory state left"
        assert sig["nonpriv_tables"]["A"]
        busy = sum(p.stats.busy for p in machine.engine.processors)
        assert busy > 0
        assert all(p.state is ProcState.DONE for p in machine.engine.processors)

    def test_priv_tables_stay_readable(self):
        result, machine = self._finished(priv_loop(live_out=True))
        assert result.passed
        table = machine.spec.priv.shared_table("A")
        assert any(proc >= 0 for proc in table.last_w_proc)

    def test_run_phase_raises(self):
        _, machine = self._finished(parallel_loop())
        with pytest.raises(ConfigurationError, match="released"):
            machine.engine.run_phase({0: iter(())})

    def test_release_after_failure_keeps_attribution(self):
        result, machine = self._finished(serial_dep_loop())
        assert not result.passed
        assert machine.spec.controller.failure is result.failure

