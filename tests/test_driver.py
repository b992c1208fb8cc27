"""Integration tests for the scenario drivers (Serial/Ideal/SW/HW)."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.params import MachineParams
from repro.runtime import (
    RunConfig,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    run_hw,
    run_ideal,
    run_serial,
    run_sw,
)
from repro.trace import ArraySpec, Loop, compute, read, write
from repro.types import ProtocolKind, Scenario


def parallel_loop(protocol=ProtocolKind.NONPRIV, n=256, iters=32, rng=None):
    """Each iteration touches its own disjoint elements.

    Any permutation keeps iterations disjoint, so tests pass the shared
    ``seeded_rng`` fixture (REPRO_TEST_SEED-controlled) where they can.
    """
    rng = rng or random.Random(7)
    perm = list(range(n))
    rng.shuffle(perm)
    per = n // iters
    body = []
    for i in range(iters):
        ops = []
        for k in range(per):
            j = perm[i * per + k]
            ops += [read("A", j), compute(40), write("A", j)]
        body.append(ops)
    return Loop("parallel", [ArraySpec("A", n, 8, protocol)], body)


def serial_dep_loop(n=256, iters=32):
    """iteration i reads what iteration i-1 wrote."""
    body = []
    for i in range(iters):
        body.append([read("A", i % n), compute(40), write("A", (i + 1) % n)])
    return Loop("serial-dep", [ArraySpec("A", n, 8, ProtocolKind.NONPRIV)], body)


def priv_loop(n=128, iters=32, live_out=False):
    """Every iteration uses A as scratch: write then read (privatizable)."""
    body = []
    for i in range(iters):
        e = i % 8  # heavy element reuse across iterations
        body.append([write("A", e), compute(40), read("A", e)])
    spec = ArraySpec("A", n, 8, ProtocolKind.PRIV, live_out=live_out)
    return Loop("priv", [spec], body)


PARAMS = MachineParams(num_processors=4)
DYN = RunConfig(schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK))
PW = RunConfig(schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 2, VirtualMode.PROCESSOR))
STATIC_CHUNKS = ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 2, VirtualMode.CHUNK)


class TestSerial:
    def test_serial_runs_one_processor(self, seeded_rng):
        r = run_serial(parallel_loop(rng=seeded_rng), PARAMS)
        assert r.scenario is Scenario.SERIAL
        assert r.num_processors == 1
        assert r.passed and r.wall > 0

    def test_breakdown_sums_to_wall(self, seeded_rng):
        r = run_serial(parallel_loop(rng=seeded_rng), PARAMS)
        assert abs(r.breakdown.wall - r.wall) < 1.0

    def test_serial_has_no_sync(self, seeded_rng):
        r = run_serial(parallel_loop(rng=seeded_rng), PARAMS)
        assert r.breakdown.sync == 0


class TestIdeal:
    def test_ideal_faster_than_serial_with_enough_work(self, seeded_rng):
        loop = parallel_loop(iters=32, rng=seeded_rng)
        # Give iterations enough compute for parallelism to pay off.
        for ops in loop.iterations:
            ops.append(compute(3000))
        s = run_serial(loop, PARAMS)
        i = run_ideal(loop, PARAMS, DYN)
        assert i.wall < s.wall

    def test_ideal_never_fails(self):
        r = run_ideal(serial_dep_loop(), PARAMS, DYN)
        assert r.passed


class TestHW:
    def test_passes_parallel_loop(self, seeded_rng):
        r = run_hw(parallel_loop(rng=seeded_rng), PARAMS, DYN)
        assert r.passed
        assert r.failure is None
        assert "backup" in r.phases and "loop" in r.phases

    def test_fails_serial_loop_early(self):
        r = run_hw(serial_dep_loop(), PARAMS, DYN)
        assert not r.passed
        assert r.failure is not None
        assert "restore" in r.phases and "serial-reexec" in r.phases
        # Early abort: detection long before a full loop execution.
        assert r.detection_cycle is not None
        assert r.detection_cycle < r.phases["serial-reexec"]

    def test_failed_wall_close_to_serial(self):
        """§6.2: HW failure costs only a bit more than Serial — provided
        the loop's work dwarfs the backup/restore of its arrays (the
        paper's Track loop is the exception for exactly this reason)."""
        loop = serial_dep_loop(n=256, iters=400)
        s = run_serial(loop, PARAMS)
        r = run_hw(loop, PARAMS, DYN, serial_result=s)
        assert r.wall < 1.5 * s.wall

    def test_privatization_loop_passes(self):
        r = run_hw(priv_loop(), PARAMS, DYN)
        assert r.passed

    def test_copy_out_phase_when_live_out(self):
        r = run_hw(priv_loop(live_out=True), PARAMS, DYN)
        assert r.passed
        assert "copy-out" in r.phases

    def test_no_copy_out_when_dead(self):
        r = run_hw(priv_loop(live_out=False), PARAMS, DYN)
        assert "copy-out" not in r.phases

    def test_spec_messages_counted(self, seeded_rng):
        r = run_hw(parallel_loop(rng=seeded_rng), PARAMS, DYN)
        assert r.spec_messages > 0

    def test_static_schedule_also_works(self, seeded_rng):
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.CHUNK)
        )
        r = run_hw(parallel_loop(rng=seeded_rng), PARAMS, cfg)
        assert r.passed


class TestSW:
    def test_passes_parallel_loop_iteration_wise(self, seeded_rng):
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION)
        )
        r = run_sw(parallel_loop(rng=seeded_rng), PARAMS, cfg)
        assert r.passed
        assert r.lrpd is not None and r.lrpd.passed
        assert "merge-analysis" in r.phases

    def test_fails_serial_loop_after_completion(self):
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION)
        )
        loop = serial_dep_loop()
        r = run_sw(loop, PARAMS, cfg)
        assert not r.passed
        # SW pays the whole parallel execution before detecting failure.
        assert "merge-analysis" in r.phases and "serial-reexec" in r.phases

    def test_processor_wise_passes_chunk_local_dependences(self):
        # Dependences only between adjacent iterations land in the same
        # static chunk except at the 3 chunk borders... build a loop with
        # dependences strictly inside chunks.
        n, iters, procs = 256, 32, 4
        per_chunk = iters // procs
        body = []
        for i in range(iters):
            within = i % per_chunk
            if within == 0:
                body.append([write("A", i)])
            else:
                body.append([read("A", i - 1), write("A", i)])
        loop = Loop("chunk-dep", [ArraySpec("A", n, 8, ProtocolKind.NONPRIV)], body)
        r_pw = run_sw(loop, PARAMS, PW)
        assert r_pw.passed
        cfg_iter = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION)
        )
        r_iw = run_sw(loop, PARAMS, cfg_iter)
        assert not r_iw.passed

    def test_sw_slower_than_hw_on_marked_heavy_loop(self, seeded_rng):
        loop = parallel_loop(rng=seeded_rng)
        hw = run_hw(loop, PARAMS, DYN)
        sw = run_sw(loop, PARAMS, PW)
        assert sw.wall > hw.wall

    def test_merge_phase_shadow_names_linear_in_processors(self, monkeypatch):
        """Every processor's merge reads the same P x kinds private
        shadow names; building that list per processor made the phase
        O(P^2) in names (7.4 s at 512 processors on a tiny loop)."""
        import repro.runtime.driver as driver

        built = []
        real = driver.shadow_name

        def counting(array, kind, proc):
            built.append(proc)
            return real(array, kind, proc)

        monkeypatch.setattr(driver, "shadow_name", counting)
        procs = 256
        loop = Loop(
            "tiny", [ArraySpec("A", 24, 8, ProtocolKind.NONPRIV)],
            [[read("A", i), write("A", i)] for i in range(8)],
        )
        r = run_sw(loop, MachineParams(num_processors=procs), PW)
        assert r.passed
        # Three kinds (Ar, Aw, Anp), each named once per processor when
        # allocated, when zeroed and for the merge.
        assert len(built) == 3 * 3 * procs

    def test_processor_wise_requires_static(self):
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError):
            ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.PROCESSOR)


class TestAccounting:
    def test_breakdown_matches_phase_sum(self, seeded_rng):
        for runner, cfg in ((run_hw, DYN), (run_sw, PW)):
            r = runner(parallel_loop(rng=seeded_rng), PARAMS, cfg)
            assert abs(r.breakdown.wall - sum(r.phases.values())) < 1.0

    def test_failed_run_includes_serial_breakdown(self):
        loop = serial_dep_loop()
        r = run_hw(loop, PARAMS, DYN)
        assert abs(r.breakdown.wall - sum(r.phases.values())) < 1.0
        assert abs(r.wall - sum(r.phases.values())) < 1.0


class TestRunConfigValidation:
    """An impossible time-stamp width is a configuration error when the
    config is built, not deep inside a run (where HW used to raise
    ``SchedulingError`` and SW silently ran)."""

    @pytest.mark.parametrize("bits", [0, -1, True, False, 2.0, "3"])
    def test_rejects_bad_timestamp_bits(self, bits):
        with pytest.raises(ConfigurationError, match="timestamp_bits"):
            RunConfig(timestamp_bits=bits)

    @pytest.mark.parametrize("bits", [None, 1, 16])
    def test_accepts_valid_timestamp_bits(self, bits):
        config = RunConfig(schedule=STATIC_CHUNKS, timestamp_bits=bits)
        assert config.timestamp_bits == bits

    @pytest.mark.parametrize(
        "schedule",
        [
            ScheduleSpec(),  # dynamic
            ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.ITERATION),
            ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION),
            ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.PROCESSOR),
            ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 2, VirtualMode.ITERATION),
        ],
        ids=lambda s: f"{s.policy.value}/{s.virtual_mode.value}",
    )
    def test_rejects_timestamps_without_static_chunk_numbering(self, schedule):
        # Time-stamp epochs need a static plan of chunk-numbered blocks;
        # HW used to raise this mid-run, SW ran it.
        with pytest.raises(ConfigurationError, match="timestamp_bits"):
            RunConfig(schedule=schedule, timestamp_bits=4)
        assert RunConfig(schedule=schedule).timestamp_bits is None

    @pytest.mark.parametrize("policy", [SchedulePolicy.STATIC_CHUNK,
                                        SchedulePolicy.BLOCK_CYCLIC])
    def test_timestamped_static_chunk_schedules_run(self, policy):
        config = RunConfig(
            schedule=ScheduleSpec(policy, 2, VirtualMode.CHUNK), timestamp_bits=2
        )
        assert run_hw(priv_loop(), PARAMS, config).passed
