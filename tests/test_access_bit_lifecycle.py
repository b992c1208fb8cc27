"""Cache access bits (Fig 10-(a)) exist only where a speculation hook
stored one.

A :class:`~repro.memsys.line.CacheLine` starts with ``spec_bits`` set to
``None`` and allocates its table when the HW engine stores the first
tag.  Machines without speculation hooks (Serial, Ideal, SW) never
allocate one; on an HW machine only lines holding words of an array
under test do; the general reset signal returns every line to ``None``.
Finished machines stay readable, so the driver tests inspect the
caches through ``RunConfig(machine_hook=...)`` after the run returns;
the others drive a live machine's memory system directly.
"""

import dataclasses

import pytest

from repro.params import small_test_params
from repro.runtime import run_hw, run_ideal, run_serial, run_sw
from repro.sim.machine import Machine
from repro.types import ProtocolKind

from .test_driver import DYN, PARAMS, parallel_loop, priv_loop


def _finished(driver, loop):
    captured = []
    result = driver(loop, PARAMS, dataclasses.replace(DYN, machine_hook=captured.append))
    return result, captured[0]


def _resident(machine):
    """Every line left in any processor's L1 or L2."""
    return [
        line
        for hierarchy in machine.memsys.caches
        for level in (hierarchy.l1, hierarchy.l2)
        for line in level.resident_lines()
    ]


def _under_test(machine, line_addr):
    decl = machine.space.find(line_addr)
    return decl is not None and decl.protocol is not ProtocolKind.PLAIN


@pytest.mark.parametrize("driver", [run_serial, run_ideal, run_sw],
                         ids=["serial", "ideal", "sw"])
def test_hookless_machines_allocate_no_bits(driver):
    result, machine = _finished(driver, parallel_loop())
    assert result.passed
    lines = _resident(machine)
    assert lines, "the run left no line cached"
    assert all(line.spec_bits is None for line in lines)


@pytest.mark.parametrize(
    "make_loop", [parallel_loop, lambda: priv_loop(live_out=True)],
    ids=["nonpriv", "priv"],
)
def test_hw_bits_only_on_lines_under_test(make_loop):
    result, machine = _finished(run_hw, make_loop())
    assert result.passed
    lines = _resident(machine)
    tagged = [line for line in lines if line.spec_bits is not None]
    assert tagged, "no line carries access bits"
    assert all(line.spec_bits for line in tagged)
    assert all(_under_test(machine, line.line_addr) for line in tagged)


def _live_machine():
    """A speculative machine with array A under the non-privatization
    test and a plain array B, driven directly through the memory
    system; the first access to A comes before the engine is armed."""
    m = Machine(small_test_params(2))
    a = m.space.allocate("A", 64, elem_bytes=8, protocol=ProtocolKind.NONPRIV)
    b = m.space.allocate("B", 64, elem_bytes=8)
    m.spec.register_nonpriv(a)
    m.memsys.read(0, a.addr_of(0), 0.0)
    m.spec.arm()
    for t, i in enumerate((8, 16, 24)):
        m.memsys.write(0, a.addr_of(i), 100.0 * t)
        m.memsys.read(1, a.addr_of(i + 1), 100.0 * t + 50)
        m.memsys.read(0, b.addr_of(i), 100.0 * t + 70)
    m.engine.drain()
    assert not m.spec.controller.failed
    return m, a, b


def test_bits_allocated_on_armed_fills_of_lines_under_test():
    m, a, b = _live_machine()
    lines = {line.line_addr: line for line in _resident(m)}
    unarmed = lines.pop(m.space.line_addr(a.addr_of(0)))
    assert unarmed.spec_bits is None
    for line_addr, line in lines.items():
        if m.space.find(line_addr) is a:
            assert line.spec_bits, hex(line_addr)
        else:
            assert m.space.find(line_addr) is b
            assert line.spec_bits is None, hex(line_addr)


def test_clear_cache_tags_resets_every_line():
    m, _, _ = _live_machine()
    assert any(line.spec_bits for line in _resident(m))
    m.spec.clear_cache_tags()
    assert all(line.spec_bits is None for line in _resident(m))
