"""Regression: elements wider than a cache line (elem_bytes > line_bytes).

Every line-granular walker used to compute ``line_bytes // elem_bytes``
inline, which yields 0 for a 32-byte element on a 16-byte-line machine
and crashed ``gather_line_starts`` with a ``ZeroDivisionError``
(``i % 0``) in the sparse backup / copy-out streams — and corrupted
the per-line access-bit geometry in the protocols.  The shared helper
``MachineParams.elems_per_line`` clamps to one element per line (a wide
element spans several lines; each line maps to the element it starts
in), and these tests pin the end-to-end paths, each run also checked
against the kernel verdict oracle.
"""

from __future__ import annotations

import pytest

from repro.params import CacheGeometry, MachineParams, elems_per_line
from repro.runtime.driver import RunConfig, run_hw, run_serial, run_sw
from repro.runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from repro.testing.vector_oracle import failing_elements
from repro.trace.loop import ArraySpec, Loop
from repro.trace.ops import compute, read, write
from repro.types import ProtocolKind

#: ``scalar`` checks the engine's outcome; ``vector`` also holds it to
#: the kernel oracle
CHECKS = ("scalar", "vector")


def _narrow_line_params(procs: int = 2) -> MachineParams:
    """A machine whose 16-byte lines are narrower than a 32-byte element."""
    return MachineParams(
        num_processors=procs,
        l1=CacheGeometry(512, 16),
        l2=CacheGeometry(2048, 16),
        page_bytes=128,
    )


def _wide_elem_loop(protocol: ProtocolKind, live_out: bool = False) -> Loop:
    body = []
    for i in range(6):
        ops = []
        if protocol is ProtocolKind.NONPRIV:
            ops += [read("A", i), write("A", i), compute(10)]
        else:
            ops += [write("A", i % 4), compute(10), read("A", i % 4)]
        body.append(ops)
    return Loop(
        f"wide-elem-{protocol.value}",
        [ArraySpec("A", 8, 32, protocol, live_out=live_out)],
        body,
    )


def test_helper_clamps_to_one():
    assert elems_per_line(64, 8) == 8
    assert elems_per_line(16, 16) == 1
    assert elems_per_line(16, 32) == 1  # wider than the line: clamp
    params = _narrow_line_params()
    assert params.elems_per_line(32) == 1
    assert params.elems_per_line(4) == 4


def _assert_oracle_agrees(result, loop, params, config):
    failing = failing_elements(loop, params, config)
    assert result.passed == (not any(failing.values())), failing
    if not result.passed:
        array, index = result.failure.element
        assert index in failing[array]


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize(
    "protocol",
    [ProtocolKind.NONPRIV, ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE],
)
def test_wide_elements_run_on_all_engines(check, protocol):
    """Backup (sparse), the speculative loop, and copy-out all walk
    lines; none may die when one element spans multiple lines."""
    params = _narrow_line_params()
    config = RunConfig(
        schedule=ScheduleSpec(
            policy=SchedulePolicy.STATIC_CHUNK,
            chunk_iterations=1,
            virtual_mode=VirtualMode.ITERATION,
        ),
        sparse_backup=True,
    )
    live_out = protocol is not ProtocolKind.NONPRIV
    loop = _wide_elem_loop(protocol, live_out=live_out)
    result = run_hw(loop, params, config)
    assert result.passed
    if check == "vector":
        _assert_oracle_agrees(result, loop, params, config)


def test_wide_elements_engines_agree():
    """Scalar and the kernel oracle agree on every protocol's wide-element
    loop, and on a FAIL the oracle's set holds scalar's element."""
    params = _narrow_line_params()
    config = RunConfig(
        schedule=ScheduleSpec(
            policy=SchedulePolicy.STATIC_CHUNK,
            chunk_iterations=1,
            virtual_mode=VirtualMode.ITERATION,
        ),
        sparse_backup=True,
    )
    for protocol in ProtocolKind:
        if protocol is ProtocolKind.PLAIN:
            continue
        loop = _wide_elem_loop(protocol, live_out=True)
        _assert_oracle_agrees(run_hw(loop, params, config), loop, params, config)
    # One element written by two processors: a FAIL attributed to it.
    loop = Loop(
        "wide-elem-conflict",
        [ArraySpec("A", 8, 32, ProtocolKind.NONPRIV)],
        [[write("A", 3)], [read("A", 3)]],
    )
    result = run_hw(loop, params, config)
    assert not result.passed and result.failure.element == ("A", 3)
    _assert_oracle_agrees(result, loop, params, config)


def test_wide_elements_per_line_bits_mode():
    """The per-line-bit NONPRIV mode derives its meta-table geometry
    from elems_per_line; a wide element must get one meta slot per
    element, not a zero-length table."""
    params = _narrow_line_params()
    config = RunConfig(
        schedule=ScheduleSpec(
            policy=SchedulePolicy.STATIC_CHUNK,
            chunk_iterations=1,
            virtual_mode=VirtualMode.ITERATION,
        ),
        per_line_bits=True,
    )
    loop = _wide_elem_loop(ProtocolKind.NONPRIV)
    result = run_hw(loop, params, config)
    assert result.passed
    _assert_oracle_agrees(result, loop, params, config)


def test_wide_elements_software_scheme():
    """The SW (LRPD) shadow walkers share the same line geometry."""
    params = _narrow_line_params()
    loop = _wide_elem_loop(ProtocolKind.PRIV_SIMPLE, live_out=True)
    result = run_sw(loop, params, RunConfig(
        schedule=ScheduleSpec(
            policy=SchedulePolicy.STATIC_CHUNK,
            chunk_iterations=1,
            virtual_mode=VirtualMode.ITERATION,
        ),
        sparse_backup=True,
    ))
    assert result is not None


def test_wide_elements_serial():
    params = _narrow_line_params()
    result = run_serial(_wide_elem_loop(ProtocolKind.NONPRIV), params)
    assert result.passed
