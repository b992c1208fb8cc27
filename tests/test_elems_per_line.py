"""Regression: elements wider than a cache line (elem_bytes > line_bytes).

Every line-granular walker used to compute ``line_bytes // elem_bytes``
inline, which yields 0 for a 32-byte element on a 16-byte-line machine
and crashed ``gather_line_starts`` with a ``ZeroDivisionError``
(``i % 0``) in the sparse backup / copy-out streams — and corrupted
the per-line access-bit geometry in the protocols.  The shared helper
``MachineParams.elems_per_line`` clamps to one element per line (a wide
element spans several lines; each line maps to the element it starts
in), and these tests pin the end-to-end paths on both tiers.
"""

from __future__ import annotations

import pytest

from repro.params import CacheGeometry, MachineParams, elems_per_line
from repro.runtime.driver import RunConfig, run_hw, run_serial, run_sw
from repro.runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from repro.testing.diffcheck import conformance_signature, verdict_signature
from repro.trace.loop import ArraySpec, Loop
from repro.trace.ops import compute, read, write
from repro.types import ProtocolKind

ENGINES = ("scalar", "vector")


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


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "protocol",
    [ProtocolKind.NONPRIV, ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE],
)
def test_wide_elements_run_on_all_engines(engine, protocol):
    """Backup (sparse), the speculative loop, and copy-out all walk
    lines; none may die when one element spans multiple lines."""
    params = _narrow_line_params()
    config = RunConfig(
        engine=engine,
        schedule=ScheduleSpec(
            policy=SchedulePolicy.STATIC_CHUNK,
            chunk_iterations=1,
            virtual_mode=VirtualMode.ITERATION,
        ),
        sparse_backup=True,
    )
    live_out = protocol is not ProtocolKind.NONPRIV
    result = run_hw(_wide_elem_loop(protocol, live_out=live_out), params, config)
    assert result.passed


def test_wide_elements_engines_agree():
    loop = _wide_elem_loop(ProtocolKind.PRIV_SIMPLE, live_out=True)
    params = _narrow_line_params()
    sigs = {}
    for engine in ENGINES:
        captured = []
        config = RunConfig(
            engine=engine,
            schedule=ScheduleSpec(
                policy=SchedulePolicy.STATIC_CHUNK,
                chunk_iterations=1,
                virtual_mode=VirtualMode.ITERATION,
            ),
            sparse_backup=True,
            machine_hook=captured.append,
        )
        result = run_hw(loop, params, config)
        sigs[engine] = conformance_signature(result, captured[0])
    assert verdict_signature(sigs["vector"]) == verdict_signature(sigs["scalar"])


def test_wide_elements_per_line_bits_mode():
    """The per-line-bit NONPRIV mode derives its meta-table geometry
    from elems_per_line; a wide element must get one meta slot per
    element, not a zero-length table."""
    params = _narrow_line_params()
    for engine in ENGINES:
        config = RunConfig(
            engine=engine,
            schedule=ScheduleSpec(
                policy=SchedulePolicy.STATIC_CHUNK,
                chunk_iterations=1,
                virtual_mode=VirtualMode.ITERATION,
            ),
            per_line_bits=True,
        )
        result = run_hw(_wide_elem_loop(ProtocolKind.NONPRIV), params, config)
        assert result.passed


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
