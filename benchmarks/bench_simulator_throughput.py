"""Simulator throughput microbenchmarks (not a paper experiment).

Measures the raw speed of the simulation substrate itself — simulated
memory accesses per host second with and without the speculative
protocol attached — so regressions in the hot paths show up.  Uses real
pytest-benchmark rounds (unlike the figure benches, which run once).

Also guards three null-path promises, each within 3% of the bare
path: a machine with a bus attached but no per-access subscribers, a
run under a coarse ambient span profiler, and a ledger-enabled run.
Each gate takes the median of paired ABBA ratios
(:func:`_paired_overhead`).
"""

import gc
import statistics
import time

import pytest

from repro.obs import EventBus, PhaseBeginEvent
from repro.params import default_params
from repro.sim.machine import Machine
from repro.types import ProtocolKind

N_ACCESSES = 2_000


def drive_plain(machine, decl):
    t = 0.0
    for i in range(N_ACCESSES):
        proc = i % machine.params.num_processors
        machine.memsys.read(proc, decl.addr_of((i * 7) % decl.length), t)
        t += 3.0
    return t


def test_throughput_plain_memory(benchmark):
    def setup():
        machine = Machine(default_params(8), with_speculation=False)
        decl = machine.space.allocate("A", 16_384, elem_bytes=8)
        return (machine, decl), {}

    result = benchmark.pedantic(
        lambda m, d: drive_plain(m, d), setup=setup, rounds=5
    )


def test_throughput_with_nonpriv_protocol(benchmark):
    def setup():
        machine = Machine(default_params(8))
        decl = machine.space.allocate(
            "A", 16_384, elem_bytes=8, protocol=ProtocolKind.NONPRIV
        )
        machine.spec.register_nonpriv(decl)
        machine.spec.arm()
        return (machine, decl), {}

    def drive(machine, decl):
        out = drive_plain(machine, decl)
        machine.engine.drain()
        assert not machine.spec.controller.failed
        return out

    benchmark.pedantic(drive, setup=setup, rounds=5)


def test_throughput_event_engine(benchmark):
    """Engine event dispatch cost: pure compute streams."""
    from repro.trace.ops import compute

    def setup():
        machine = Machine(default_params(8), with_speculation=False)
        machine.space.allocate("A", 64, elem_bytes=8)
        return (machine,), {}

    def drive(machine):
        streams = {
            p: iter([compute(10) for _ in range(500)])
            for p in range(machine.params.num_processors)
        }
        machine.engine.run_phase(streams)

    benchmark.pedantic(drive, setup=setup, rounds=3)


#: ABBA rounds per null-path gate
GATE_ROUNDS = 60


def _paired_overhead(measure_a, measure_b):
    """Overhead of variant B over variant A, with each variant's median
    trial time.

    Each round times A, B, B, A, every trial starting from a collected
    heap, and yields one ratio ``(B + B) / (A + A)``.  A shared host's
    speed drifts in stretches longer than a round, so pairing within a
    round cancels the drift, and the median over the rounds ignores the
    few rounds that a change of speed splits.
    """
    measure_a()  # warm code paths
    measure_b()
    ratios, times_a, times_b = [], [], []
    for _ in range(GATE_ROUNDS):
        trials = []
        for measure in (measure_a, measure_b, measure_b, measure_a):
            gc.collect()
            trials.append(measure())
        a, b = trials[0] + trials[3], trials[1] + trials[2]
        ratios.append(b / a)
        times_a.append(a / 2)
        times_b.append(b / 2)
    return (
        statistics.median(ratios) - 1.0,
        statistics.median(times_a),
        statistics.median(times_b),
    )


def _build_machine(attach_bus: bool):
    machine = Machine(default_params(8), with_speculation=False)
    decl = machine.space.allocate("A", 16_384, elem_bytes=8)
    if attach_bus:
        bus = EventBus()
        # A coarse subscriber only: per-access telemetry stays off,
        # exercising the wants_access fast-path guard.
        bus.subscribe(PhaseBeginEvent, lambda e: None)
        machine.attach_bus(bus)
    return machine, decl


def _measure(attach_bus: bool) -> float:
    machine, decl = _build_machine(attach_bus)
    start = time.perf_counter()
    drive_plain(machine, decl)
    return time.perf_counter() - start


def test_telemetry_off_overhead_under_3_percent():
    """Acceptance smoke: the telemetry-off path (bus attached, no
    per-access subscribers) costs < 3% over a machine with no bus.
    """
    overhead, baseline, with_bus = _paired_overhead(
        lambda: _measure(False), lambda: _measure(True)
    )
    assert overhead < 0.03, (
        f"telemetry-off overhead {overhead:.2%} "
        f"(baseline {baseline * 1e3:.2f}ms, bus {with_bus * 1e3:.2f}ms)"
    )


def _measure_span_run(with_profiler: bool) -> float:
    from repro.obs import spans
    from repro.params import small_test_params
    from repro.runtime.driver import RunConfig, run_hw
    from repro.runtime.schedule import SchedulePolicy, ScheduleSpec
    from repro.workloads.synthetic import parallel_nonpriv_loop

    loop = parallel_nonpriv_loop("span-gate", elements=512, iterations=24)
    config = RunConfig(
        schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK),
    )
    if with_profiler:
        spans.install(spans.SpanProfiler())
    try:
        start = time.perf_counter()
        run_hw(loop, small_test_params(4), config)
        return time.perf_counter() - start
    finally:
        if with_profiler:
            spans.uninstall()


def test_span_null_path_overhead_under_3_percent():
    """Acceptance smoke for the span profiler's null-path promise: an
    installed ambient profiler — the ``--profile-out`` configuration —
    costs < 3% over a run with no profiler installed.

    With no profiler the instrumented sites reduce to one global read
    and an is-None test; with one, spans open only per run, phase and
    epoch, never per access.
    """
    overhead, bare, profiled = _paired_overhead(
        lambda: _measure_span_run(False), lambda: _measure_span_run(True)
    )
    assert overhead < 0.03, (
        f"span overhead {overhead:.2%} "
        f"(bare {bare * 1e3:.2f}ms, profiled {profiled * 1e3:.2f}ms)"
    )


def _measure_ledger_run(loop, ledger) -> float:
    from repro.params import small_test_params
    from repro.runtime.driver import RunConfig, run_hw
    from repro.runtime.schedule import SchedulePolicy, ScheduleSpec

    config = RunConfig(
        schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK),
        ledger=ledger,
    )
    start = time.perf_counter()
    run_hw(loop, small_test_params(4), config)
    return time.perf_counter() - start


def test_ledger_write_path_overhead_under_3_percent(tmp_path):
    """Acceptance smoke for the run ledger: steady-state ledger-enabled
    runs (``RunConfig(ledger=...)`` with ``serve_hits=False``, so every
    repetition re-simulates and re-commits — never a cache hit) cost
    < 3% over the ledger-off null path.

    The per-workload loop fingerprint is memoized on the loop object
    (the one genuinely O(ops) piece of keying a run), so the steady
    state measured here is: provenance reuse + content-address lookup +
    result serialization + the locked dedupe check."""
    from repro.obs.ledger import RunLedger
    from repro.workloads.synthetic import parallel_nonpriv_loop

    loop = parallel_nonpriv_loop("ledger-gate", elements=512, iterations=24)
    # serve_hits=False keeps the archive recording while always
    # re-simulating — the write path, not the read path.
    ledger = RunLedger(str(tmp_path), serve_hits=False)
    # The warm-up trial makes the genuine first write.
    overhead, bare, ledgered = _paired_overhead(
        lambda: _measure_ledger_run(loop, None),
        lambda: _measure_ledger_run(loop, ledger),
    )
    assert len(list(ledger.records(kind="run"))) == 1  # it did archive
    assert overhead < 0.03, (
        f"ledger write-path overhead {overhead:.2%} "
        f"(off {bare * 1e3:.2f}ms, ledgered {ledgered * 1e3:.2f}ms)"
    )
