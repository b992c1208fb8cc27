"""Every SW and HW verdict of the quick reproduction, checked against
the independent oracles.

The figures are only as trustworthy as their pass/FAIL verdicts.  This
test records every ``run_sw``/``run_hw`` call a quick-preset
reproduction makes -- the shared :data:`~repro.experiments.figures.RunStore`
that Figs 11-14 read, Fig 13's forced failures included -- and
re-derives each verdict from the loop's access trace and the run's
realized iteration-to-processor assignment:

* HW: :func:`repro.lrpd.analysis.serial_access_verdict` per array under
  test (the protocols' iteration-serial predicate);
* SW: :class:`repro.trace.oracle.DependenceOracle` at the virtual
  iteration numbering the software test marks with, reduced to the
  LRPD criterion (doall, or privatizable when the array is privatized,
  or read-in/copy-out when the ``Awmin`` extension is on).

Static-schedule HW runs are also held to the kernel verdict oracle
(:mod:`repro.testing.vector_oracle`): the same verdict, and a FAIL
element inside the oracle's failing set.

Random and hand-written loops are held to the same HW oracle under
dynamic self-scheduling, where the realized assignment decides the
verdict, and the differential corpus's cases are held to it on unusual
machine geometries.
"""

import dataclasses
import random
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.experiments import figures, scenarios
from repro.lrpd.analysis import serial_access_verdict
from repro.params import CacheGeometry, MachineParams
from repro.testing import diffcheck
from repro.testing.vector_oracle import failing_elements
from repro.runtime.driver import RunConfig, run_hw
from repro.runtime.schedule import (
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    cyclic_blocks,
    static_chunks,
)
from repro.trace import ArraySpec, Loop, compute, read, write
from repro.trace.oracle import DependenceOracle
from repro.trace.ops import AccessOp
from repro.types import AccessKind, ProtocolKind, Scenario
from repro.workloads.synthetic import (
    failing_loop,
    parallel_nonpriv_loop,
    privatizable_loop,
)

PRESET = "quick"
SEED = 2026


def _placement(loop, config, result) -> Dict[int, Tuple[int, int]]:
    """Iteration -> (processor, virtual iteration) of the realized run."""
    schedule = config.schedule
    n = loop.num_iterations
    if schedule.policy is SchedulePolicy.STATIC_CHUNK:
        blocks = static_chunks(n, result.num_processors)
    else:
        blocks = cyclic_blocks(n, schedule.chunk_iterations)
    ordinal = {it: b.ordinal for b in blocks for it in b.iterations()}
    placement = {}
    for proc, iterations in enumerate(result.assignment):
        for it in iterations:
            if schedule.virtual_mode is VirtualMode.ITERATION:
                virt = it
            elif schedule.virtual_mode is VirtualMode.CHUNK:
                virt = ordinal[it]
            else:
                virt = proc + 1
            placement[it] = (proc, virt)
    return placement


def hw_oracle_verdict(loop, config, result) -> bool:
    """The serial predicate over the iterations the run was assigned.

    A run that aborts on a FAIL under dynamic scheduling has assigned
    only the blocks grabbed before the abort.  The predicate is
    monotone in the accesses (more accesses can only add a violation),
    so a FAIL the hardware saw among the executed accesses must also
    show over the grabbed iterations' full access lists."""
    assert not config.per_line_bits
    placement = _placement(loop, config, result)
    if len(placement) != loop.num_iterations:
        assert not result.passed, "a passing run left iterations unassigned"
    rows: Dict[str, List[Tuple[int, int, int, int]]] = {
        spec.name: [] for spec in loop.arrays_under_test()
    }
    for proc, iterations in enumerate(result.assignment):
        for it in sorted(iterations):
            virt = placement[it][1]
            for op in loop.iterations[it - 1]:
                if isinstance(op, AccessOp) and op.array in rows:
                    rows[op.array].append(
                        (proc, virt, op.index, op.kind is AccessKind.WRITE)
                    )
    return all(
        serial_access_verdict(spec.protocol, rows[spec.name])
        for spec in loop.arrays_under_test()
    )


def sw_oracle_verdict(loop, config, result) -> bool:
    placement = _placement(loop, config, result)
    # The software test always runs the whole loop before analyzing.
    assert sorted(placement) == list(range(1, loop.num_iterations + 1))
    report = DependenceOracle(
        loop, iteration_map={it: virt for it, (_, virt) in placement.items()}
    ).analyze()
    for spec in loop.arrays_under_test():
        verdict = report.arrays[spec.name]
        if verdict.is_doall:
            continue
        if spec.privatized and (
            verdict.is_privatizable or (config.sw_read_in and verdict.is_priv_rico)
        ):
            continue
        return False
    return True


@pytest.fixture(scope="module")
def recorded_runs():
    """``(source, scenario, loop, config, result, params)`` for every SW
    and HW run of the quick RunStore that Figs 11, 13 and 14 fill."""
    calls = []
    patch = pytest.MonkeyPatch()

    def recording(module, name, source):
        fn = getattr(module, name)

        def call(loop, params, config=None, **kwargs):
            result = fn(loop, params, config, **kwargs)
            calls.append((source, result.scenario, loop, config, result, params))
            return result

        patch.setattr(module, name, call)

    for name in ("run_sw", "run_hw"):
        recording(scenarios, name, "store")
        recording(figures, name, "fig13")
    try:
        runs: figures.RunStore = {}
        figures.fig11_speedups(PRESET, seed=SEED, runs=runs)
        figures.fig14_scalability(PRESET, seed=SEED, runs=runs)
        figures.fig13_failure(PRESET, seed=SEED, runs=runs)
    finally:
        patch.undo()
    return runs, calls


def test_every_verdict_is_recorded(recorded_runs):
    runs, calls = recorded_runs
    store = [c for c in calls if c[0] == "store"]
    fig13 = [c for c in calls if c[0] == "fig13"]
    # (workload, processors) pairs of the workload runs: Fig 11's four
    # and Fig 14's three at 8 processors.
    pairs = {
        (name, procs)
        for name, _, _, execution, _, procs in runs
        if execution != figures.FORCED_FAILURE and procs > 1
    }
    expected = sum(
        2 * figures.preset_executions(name, PRESET) for name, _ in pairs
    )
    assert len(pairs) == 7
    assert len(store) == expected == 28
    assert len(fig13) == 8
    # One entry per run: 50 workload runs (8 Serial, 42 Ideal/SW/HW)
    # and Fig 13's 4 Serial and 8 forced failures; each recorded
    # verdict is the one the store holds.
    assert len(runs) == 62
    held = {id(result) for result in runs.values()}
    assert all(id(c[4]) in held for c in calls)
    assert all(c[3] is not None for c in calls)
    # Fig 13 forces every speculative run to fail.
    assert not any(c[4].passed for c in fig13)


def test_verdicts_match_oracles(recorded_runs):
    _, calls = recorded_runs
    mismatches = []
    for source, scenario, loop, config, result, _ in calls:
        assert result.assignment is not None
        if scenario is Scenario.HW:
            expected = hw_oracle_verdict(loop, config, result)
        else:
            assert scenario is Scenario.SW
            expected = sw_oracle_verdict(loop, config, result)
        if expected != result.passed:
            mismatches.append(
                f"{source} {scenario.value} {loop.name}: simulated "
                f"{'pass' if result.passed else 'FAIL'}, oracle "
                f"{'pass' if expected else 'FAIL'}"
            )
    assert not mismatches, mismatches


def test_oracles_are_not_vacuous(recorded_runs):
    """The store holds passing runs of every protocol family the paper
    uses, and Fig 13 failing ones, so both outcomes are exercised."""
    _, calls = recorded_runs
    protocols = {
        spec.protocol
        for _, _, loop, _, result, _ in calls
        if result.passed
        for spec in loop.arrays_under_test()
    }
    assert ProtocolKind.NONPRIV in protocols
    assert protocols & {ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE}
    assert any(c[4].passed for c in calls)
    assert any(not c[4].passed for c in calls)


def test_static_hw_verdicts_match_kernel_oracle(recorded_runs):
    """Every static-schedule HW run agrees with the kernel oracle.  In
    the quick reproduction these are Ocean's and Adm's store runs and
    Adm's forced failure (Ocean's forced failure self-schedules; P3m
    and Track are dynamic), so both verdicts are checked."""
    _, calls = recorded_runs
    checked = []
    for source, scenario, loop, config, result, params in calls:
        if (
            scenario is not Scenario.HW
            or config.schedule.policy is SchedulePolicy.DYNAMIC
        ):
            continue
        failing = failing_elements(loop, params, config)
        label = f"{source} {loop.name}"
        assert failing is not None, label
        assert result.passed == (not any(failing.values())), label
        if not result.passed:
            array, index = result.failure.element
            assert index in failing[array], (label, result.failure.element)
        checked.append((source, loop.name.split(".")[0], result.passed))
    assert any(passed for *_, passed in checked)
    assert any(not passed for *_, passed in checked)
    assert sorted(set(checked)) == [
        ("fig13", "adm", False), ("store", "adm", True), ("store", "ocean", True),
    ], checked


# ----------------------------------------------------------------------
# Dynamic self-scheduling on small loops
# ----------------------------------------------------------------------
PARAMS_4 = MachineParams(num_processors=4)
DYNAMIC = RunConfig(
    schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 1, VirtualMode.CHUNK)
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.booleans(), st.integers(0, 5)), max_size=4),
        min_size=1, max_size=8,
    ),
    st.sampled_from(
        [ProtocolKind.NONPRIV, ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE]
    ),
)
def test_dynamic_hw_verdicts_match_oracle_on_random_loops(trace, protocol):
    """Random one-array loops: the simulated verdict equals the serial
    predicate over the realized assignment, FAILs included."""
    body = [
        [write("A", e) if w else read("A", e) for (w, e) in ops]
        for ops in trace
    ]
    loop = Loop("rand", [ArraySpec("A", 6, 8, protocol)], body)
    result = run_hw(loop, PARAMS_4, DYNAMIC)
    assert hw_oracle_verdict(loop, DYNAMIC, result) == result.passed


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dynamic_nonpriv_sees_a_second_reader_before_the_first_readers_write(data):
    """NONPRIV must FAIL an element that P_a reads, P_b then reads, and
    P_a then writes: the second reader's ROnly mark is what stops P_a's
    write.  Each shared element sits on its own line.  One iteration
    reads it, computes for a long while and writes it; an iteration
    grabbed soon after on another processor computes for a shorter
    while and reads it in between.  Every other access touches its
    iteration's own line, so no other conflict can mask the pattern.
    The verdict must equal the serial predicate over the realized
    assignment."""
    per_line = PARAMS_4.elems_per_line(8)
    iterations = data.draw(st.integers(4, 16), label="iterations")
    shared = data.draw(st.integers(1, 3), label="shared elements")
    body = [[] for _ in range(iterations)]
    for it in range(iterations):
        own = (shared + it) * per_line
        for k in range(data.draw(st.integers(0, 3), label="own accesses")):
            body[it].append(write("A", own + k) if k % 2 else read("A", own + k))
    draw_cycles = st.integers(1_000, 2_000)
    for j in range(shared):
        elem = j * per_line
        first = data.draw(st.integers(1, iterations - 1), label="reader-writer")
        second = data.draw(
            st.integers(first + 1, min(first + 3, iterations)), label="second reader"
        )
        body[first - 1][:0] = [
            read("A", elem),
            compute(data.draw(draw_cycles, label="gap") + 3_000),
            write("A", elem),
        ]
        delay = compute(data.draw(draw_cycles, label="delay"))
        body[second - 1][:0] = [delay, read("A", elem)]
    loop = Loop(
        "second-reader",
        [ArraySpec("A", (shared + iterations) * per_line, 8, ProtocolKind.NONPRIV)],
        body,
    )
    result = run_hw(loop, PARAMS_4, DYNAMIC)
    assert hw_oracle_verdict(loop, DYNAMIC, result) == result.passed


@pytest.mark.parametrize(
    "loop, passed",
    [
        # Iteration 2 reads what iteration 1 wrote: a flow dependence.
        (Loop("priv-flow", [ArraySpec("W", 8, 8, ProtocolKind.PRIV)],
              [[write("W", 0)], [read("W", 0)]]), False),
        (privatizable_loop(iterations=16, simple=False), True),
        (parallel_nonpriv_loop(iterations=16), True),
        # Passes or fails with the grab order; the oracle decides.
        (failing_loop(3, iterations=16), None),
    ],
    ids=["priv-flow", "privatizable", "parallel-nonpriv", "dependent"],
)
def test_dynamic_hw_verdicts_match_oracle(loop, passed):
    result = run_hw(loop, PARAMS_4, DYNAMIC)
    assert hw_oracle_verdict(loop, DYNAMIC, result) == result.passed
    if passed is not None:
        assert result.passed is passed


# ----------------------------------------------------------------------
# Unusual machine geometries
# ----------------------------------------------------------------------
GEOMETRY_DRAWS = 400


def _cache(rng):
    """(lines, ways) of a tiny cache; one draw in ten cannot be split
    into sets."""
    ways = rng.choice([1, 2, 8])
    lines = ways * rng.choice([1, 2, 4, 8])
    return lines + (ways > 1 and rng.random() < 0.1), ways


def test_hw_verdicts_match_oracle_on_unusual_geometries():
    """Diffcheck's baseline cases on machines the reproduction never
    builds: tiny L1/L2 caches of 1, 2 or 8 ways that force evictions,
    16- to 128-byte lines, small pages, several processors per node
    and shallow write buffers.  A draw the parameters cannot describe
    must be rejected when they are built; every other draw's HW verdict
    must equal the serial predicate over its realized assignment.
    Per-line-bit and time-stamp cases are skipped, as
    :func:`hw_oracle_verdict` requires."""
    rng = random.Random(SEED)
    built = rejected = failed = 0
    for _ in range(GEOMETRY_DRAWS):
        case = diffcheck.build_case(rng.randrange(240))
        if case.per_line_bits or case.timestamp_bits is not None:
            continue
        line_bytes = rng.choice([16, 32, 64, 128])
        l1_lines, l1_ways = _cache(rng)
        l2_lines, l2_ways = _cache(rng)
        page_bytes = line_bytes * rng.choice([1, 2, 4]) + (rng.random() < 0.05) * 8
        per_node = rng.choice([1, 1, 2, 4])
        procs = case.params.num_processors
        valid = (
            l1_lines % l1_ways == 0
            and l2_lines % l2_ways == 0
            and page_bytes % line_bytes == 0
            and procs % per_node == 0
        )
        label = (case.describe(), line_bytes, l1_lines, l1_ways, l2_lines,
                 l2_ways, page_bytes, per_node)
        try:
            params = dataclasses.replace(
                case.params,
                l1=CacheGeometry(l1_lines * line_bytes, line_bytes, l1_ways),
                l2=CacheGeometry(l2_lines * line_bytes, line_bytes, l2_ways),
                page_bytes=page_bytes,
                processors_per_node=per_node,
                write_buffer_entries=rng.choice([1, 2, 8]),
            )
        except ConfigurationError:
            assert not valid, label
            rejected += 1
            continue
        assert valid, label
        config = diffcheck.case_config(case)
        result = run_hw(case.loop, params, config)
        assert hw_oracle_verdict(case.loop, config, result) == result.passed, label
        built += 1
        failed += not result.passed
    assert built >= GEOMETRY_DRAWS // 2 and rejected > 0
    assert 0 < failed < built
