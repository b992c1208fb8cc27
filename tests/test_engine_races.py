"""End-to-end race coverage, checked by the engine and the kernel oracle.

The machine-level protocol tests (test_nonpriv_protocol.py) drive the
memory system directly, which bypasses the processor op loop.  These
tests rebuild the two subtlest non-privatization interleavings as
*scheduled loops* so the scalar engine executes them through
``run_hw``:

* a dirty line evicted while a ``First_update`` is still in flight
  (the victim writeback must merge tag state without tripping a
  spurious FAIL, and the late update must still land correctly);
* a tag-local write on a dirty line that escapes every directory check
  and is only revealed by the loop-end dirty-line commit sweep.

Each scenario asserts the protocol outcome *and* that the kernel
verdict oracle (``repro.testing.vector_oracle``) agrees: the same
verdict, and on FAIL a failing-element set that contains scalar's
attribution.  ``CHECKS`` parametrizes the protocol-outcome tests:
``scalar`` asserts the engine's outcome alone, ``vector`` adds the
oracle cross-check to the same run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import spans
from repro.obs.spans import SpanProfiler
from repro.params import ContentionModel, small_test_params
from repro.runtime.driver import RunConfig, run_hw
from repro.runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from repro.testing.vector_oracle import failing_elements
from repro.trace.loop import ArraySpec, Loop
from repro.trace.ops import compute, read, write
from repro.types import ProtocolKind

CHECKS = ["scalar", "vector"]

# small_test_params: 64-byte lines (8 elements of 8 bytes), 64 L2 lines,
# so element index 512 conflicts with element 0 in the L2.
ELEMS_PER_LINE = 8
L2_CONFLICT_STRIDE = 64 * ELEMS_PER_LINE


STATIC_ONE = ScheduleSpec(
    policy=SchedulePolicy.STATIC_CHUNK,
    chunk_iterations=1,
    virtual_mode=VirtualMode.ITERATION,
)


def assert_oracle_agrees(result, loop: Loop, params, config) -> None:
    """The kernel oracle's verdict equals ``result``'s, and on FAIL its
    failing set for the culprit array contains scalar's element."""
    failing = failing_elements(loop, params, config)
    assert failing is not None, "the oracle declined a static schedule"
    assert result.passed == (not any(failing.values())), failing
    if not result.passed:
        array, index = result.failure.element
        assert index in failing[array], (result.failure.element, failing)


def _run(
    loop: Loop, check: str = "scalar", procs: int = 2,
    schedule: ScheduleSpec = STATIC_ONE, per_line_bits: bool = False,
):
    """Run ``loop`` on scalar; with ``check="vector"`` also hold the
    result to the kernel oracle (static schedules only)."""
    captured = []
    config = RunConfig(
        schedule=schedule,
        per_line_bits=per_line_bits,
        machine_hook=captured.append,
    )
    params = small_test_params(procs)
    result = run_hw(loop, params, config)
    if check == "vector":
        assert_oracle_agrees(result, loop, params, config)
    return result, captured[0]


def _checked(loop: Loop, procs: int = 2, schedule=STATIC_ONE, **kwargs):
    """Run on scalar (``_run``'s arguments) and, for static schedules,
    assert that the kernel oracle agrees."""
    dynamic = schedule.policy is SchedulePolicy.DYNAMIC
    return _run(
        loop, "scalar" if dynamic else "vector", procs, schedule, **kwargs
    )


def _dirty_eviction_loop() -> Loop:
    # One iteration, all on P0: fill the line clean (read e2), clean-hit
    # read of e1 puts a First_update in flight, the write of e0 takes
    # the line dirty, and the conflicting write of e512 evicts it —
    # a dirty victim writeback racing the still-in-flight update.
    body = [
        [read("A", 2), read("A", 1), write("A", 0), write("A", L2_CONFLICT_STRIDE)]
    ]
    return Loop(
        "evict-race",
        [ArraySpec("A", L2_CONFLICT_STRIDE + ELEMS_PER_LINE, 8, ProtocolKind.NONPRIV)],
        body,
    )


def _clean_eviction_loop() -> Loop:
    # Same shape but the victim line stays clean: the eviction is a
    # clean drop while the First_update is in flight.
    body = [[read("A", 2), read("A", 1), read("A", L2_CONFLICT_STRIDE)]]
    return Loop(
        "evict-race-clean",
        [ArraySpec("A", L2_CONFLICT_STRIDE + ELEMS_PER_LINE, 8, ProtocolKind.NONPRIV)],
        body,
    )


def _commit_hole_loop() -> Loop:
    # P0 clean-hit reads e1 (First_update in flight); P1 takes the line
    # dirty via e0 before the update lands, then writes e1 as a dirty
    # L1 hit — tag-local, no message, invisible to every directory
    # check.  Only the loop-end dirty-line commit reveals it.  The
    # compute pad times P1's writes into the update's flight window.
    body = [
        [read("A", 2), read("A", 1)],
        [compute(20), write("A", 0), write("A", 1)],
    ]
    return Loop("commit-hole", [ArraySpec("A", 64, 8, ProtocolKind.NONPRIV)], body)


@pytest.mark.parametrize("check", CHECKS)
class TestEvictionRacingFirstUpdate:
    def test_dirty_victim_writeback_merges_without_spurious_fail(self, check):
        result, machine = _run(_dirty_eviction_loop(), check)
        assert result.passed
        table = machine.spec.nonpriv.table("A")
        # The evicted dirty line's write state reached the directory...
        assert bool(table.priv[0])
        # ...and the late First_update still recorded P0 as first reader.
        assert int(table.first[1]) == 0
        # The conflicting line was itself committed at loop end.
        assert bool(table.priv[L2_CONFLICT_STRIDE])

    def test_clean_drop_with_update_in_flight(self, check):
        result, machine = _run(_clean_eviction_loop(), check)
        assert result.passed
        table = machine.spec.nonpriv.table("A")
        assert int(table.first[1]) == 0
        assert not bool(table.priv[1])

    def test_engines_agree_on_eviction_races(self, check):
        # check param unused: the point is the explicit oracle check.
        if check != CHECKS[0]:
            pytest.skip("oracle check runs once")
        _checked(_dirty_eviction_loop())
        _checked(_clean_eviction_loop())


@pytest.mark.parametrize("check", CHECKS)
class TestLoopEndDirtyLineCommit:
    def test_commit_reveals_tag_local_write(self, check):
        result, _ = _run(_commit_hole_loop(), check)
        assert not result.passed
        failure = result.failure
        assert failure.element == ("A", 1)
        assert failure.processor == 1
        assert "writeback reveals" in failure.reason

    def test_engines_agree_on_commit_verdict(self, check):
        if check != CHECKS[0]:
            pytest.skip("oracle check runs once")
        result, _ = _checked(_commit_hole_loop())
        assert not result.passed


# ----------------------------------------------------------------------
# FAIL attribution inside the kernel oracle's failing set
# ----------------------------------------------------------------------
def _flow_dep_loop(protocol: ProtocolKind) -> Loop:
    """Every iteration reads A[5] before writing it, so *any* split of
    the four iterations across two processors FAILs: two processors
    touch a written element (the non-privatization test) and a read
    happens first in an iteration later than a write (the privatization
    tests).  Robust to the emergent dynamic grab order."""
    body = [
        [read("A", 5), compute(10), write("A", 5)] for _ in range(4)
    ]
    return Loop(f"flow-dep-{protocol.value}", [ArraySpec("A", 16, 8, protocol)], body)


def _declined(loop, params, config):
    """The oracle's answer and how many cases it declined."""
    prof = SpanProfiler()
    spans.install(prof)
    try:
        failing = failing_elements(loop, params, config)
    finally:
        spans.uninstall()
    return failing, prof.counters.get("vector.delegations", 0)


@pytest.mark.parametrize(
    "protocol",
    [ProtocolKind.NONPRIV, ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE],
)
class TestVectorFailAttribution:
    """On a static schedule the kernel oracle decides the FAIL itself
    and its failing set for the array is exactly the element scalar
    attributes the FAIL to; on a dynamic schedule it declines once (the
    span counter proves which path ran)."""

    def test_static_fail_attribution_matches_scalar(self, protocol):
        loop = _flow_dep_loop(protocol)
        params = small_test_params(2)
        config = RunConfig(
            schedule=ScheduleSpec(
                policy=SchedulePolicy.STATIC_CHUNK,
                chunk_iterations=1,
                virtual_mode=VirtualMode.ITERATION,
            ),
        )
        scalar = run_hw(loop, params, config)
        assert not scalar.passed
        assert scalar.failure.element == ("A", 5)
        failing, declined = _declined(loop, params, config)
        assert failing == {"A": {5}}
        assert declined == 0, "a static FAIL must be decided, not declined"
        assert_oracle_agrees(scalar, loop, params, config)

    def test_dynamic_nocontention_fail_attribution_matches_scalar(self, protocol):
        loop = _flow_dep_loop(protocol)
        params = dataclasses.replace(
            small_test_params(2), contention=ContentionModel(enabled=False)
        )
        config = RunConfig(
            schedule=ScheduleSpec(policy=SchedulePolicy.DYNAMIC,
                                  chunk_iterations=1),
        )
        scalar = run_hw(loop, params, config)
        assert not scalar.passed
        assert scalar.failure.element == ("A", 5)
        failing, declined = _declined(loop, params, config)
        assert failing is None
        assert declined == 1, "dynamic schedules are declined once"


# ----------------------------------------------------------------------
# Per-line access bits (§4.1, ablation A7)
# ----------------------------------------------------------------------
def _body(spec: str):
    """``"r1 w3 | r2"`` -> two iterations: read A[1], write A[3]; read A[2]."""
    return [
        [read("A", int(op[1:])) if op[0] == "r" else write("A", int(op[1:]))
         for op in it.split()]
        for it in spec.split("|")
    ]


# (processors, elements, policy, chunk, body).  In each loop two
# processors race First_updates to one line; the loser's
# First_update_fail must turn its line tag OTHER/ROnly, so its later
# write FAILs at the tag (Fig 6-(c)).  ``line0`` races
# on the first line; the ``line3`` cases race on line 3, so the messages
# must be addressed to line 3, not to element 3's line.
LINE_BITS_RACES = {
    "line0-static": (
        4, 18, SchedulePolicy.STATIC_CHUNK, 1,
        "r1 r17 w1 r6 | r13 r2 w1 w3 | r12 | r1 r4 | r17 r9 | r3 r6",
    ),
    "line3-static": (
        2, 32, SchedulePolicy.STATIC_CHUNK, 1,
        "r28 | r30 r17 r11 | r28 r17 w25 | r0 w2 w11 | r2 r27 | r27 r0 r18"
        " | w14 r16 w2 | r14 w26 r26 r19 | r30 r21 | r26",
    ),
    "line3-dynamic": (
        2, 31, SchedulePolicy.DYNAMIC, 1,
        "r27 w8 | r30 r12 r22 w30 | w30 w17 | r29 r28 r9 r13",
    ),
}


@pytest.mark.parametrize("name", sorted(LINE_BITS_RACES))
def test_per_line_bits_first_update_fail_reaches_the_line_tag(name):
    procs, elements, policy, chunk, spec = LINE_BITS_RACES[name]
    loop = Loop(
        f"line-bits-{name}",
        [ArraySpec("A", elements, 8, ProtocolKind.NONPRIV)],
        _body(spec),
    )
    result, _ = _checked(
        loop, procs, ScheduleSpec(policy, chunk, VirtualMode.ITERATION),
        per_line_bits=True,
    )
    assert not result.passed
    assert result.failure.reason.endswith("(tag)"), result.failure.reason
