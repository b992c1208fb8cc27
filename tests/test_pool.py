"""Tests for the process-pool experiment execution engine.

The contract under test (ISSUE 5): submission-order assembly,
deterministic per-task seeding, per-task timeout + bounded retry with
exponential backoff, graceful degradation to inline execution (dead or
hung workers, unpicklable tasks, ``jobs=1``), pool events on the obs
bus, and — the acceptance criterion — results bit-identical to serial
execution of the same task list.
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.experiments.pool import (
    PoolTask,
    derive_seed,
    resolve_jobs,
    run_tasks,
)
from repro.obs import (
    EventBus,
    EventRecorder,
    PoolEndEvent,
    PoolStartEvent,
    PoolTaskEvent,
    PoolWorkerFailureEvent,
)


# ----------------------------------------------------------------------
# Module-level task functions (pool workers pickle them by reference)
# ----------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    time.sleep(0.01 * (x % 3))
    return x * x


def _draw() -> float:
    return random.random()


def _boom() -> None:
    raise ValueError("deterministic task failure")


def _die_in_worker(parent_pid: int) -> str:
    """Kill any worker process running this; succeed only inline."""
    if os.getpid() != parent_pid:
        os._exit(13)
    return "survived"


def _hang_in_worker(parent_pid: int) -> str:
    """Hang any worker process running this; succeed only inline."""
    if os.getpid() != parent_pid:
        time.sleep(120)
    return "finished"


def _recording_bus():
    bus = EventBus()
    recorder = EventRecorder().subscribe(bus)
    return bus, recorder


# ----------------------------------------------------------------------
# Ordering and equivalence
# ----------------------------------------------------------------------
class TestOrdering:
    def test_results_in_submission_order(self):
        tasks = [PoolTask(_slow_square, (i,)) for i in range(8)]
        assert run_tasks(tasks, jobs=4) == [i * i for i in range(8)]

    def test_parallel_matches_inline(self):
        tasks = [PoolTask(_square, (i,)) for i in range(6)]
        assert run_tasks(tasks, jobs=1) == run_tasks(tasks, jobs=4)

    def test_empty_task_list(self):
        assert run_tasks([], jobs=4) == []


class TestSeeding:
    def test_seeded_tasks_are_deterministic_across_modes(self):
        tasks = [PoolTask(_draw, seed=derive_seed(7, i)) for i in range(4)]
        inline = run_tasks(tasks, jobs=1)
        pooled = run_tasks(tasks, jobs=4)
        assert inline == pooled == run_tasks(tasks, jobs=4)
        assert len(set(inline)) == len(inline)  # distinct per-task seeds

    def test_inline_seeding_restores_caller_rng_state(self):
        random.seed(123)
        expected = [random.random() for _ in range(3)]
        random.seed(123)
        first = random.random()
        run_tasks([PoolTask(_draw, seed=1), PoolTask(_draw, seed=2)], jobs=1)
        assert [first, random.random(), random.random()] == expected

    def test_derive_seed_stable_and_mixed(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(7, 3) != derive_seed(8, 3)

    def test_resolve_jobs(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Degradation paths: no task is ever lost
# ----------------------------------------------------------------------
class TestDegradation:
    def test_unpicklable_task_runs_inline(self):
        captured = []  # closure => the lambda cannot be pickled
        tasks = [PoolTask(_square, (3,)),
                 PoolTask(lambda: captured.append(1) or 42)]
        bus, recorder = _recording_bus()
        assert run_tasks(tasks, jobs=2, bus=bus) == [9, 42]
        assert captured == [1]
        kinds = [e.kind for e in recorder.of_type(PoolWorkerFailureEvent)]
        assert kinds == ["unpicklable"]

    def test_killed_worker_is_retried_then_inlined(self):
        bus, recorder = _recording_bus()
        tasks = [PoolTask(_die_in_worker, (os.getpid(),), label="die")]
        out = run_tasks(tasks, jobs=2, retries=1, backoff=0.01, bus=bus)
        assert out == ["survived"]
        deaths = recorder.of_type(PoolWorkerFailureEvent)
        assert [e.kind for e in deaths] == ["worker-died"] * 2  # retries+1
        assert [e.attempt for e in deaths] == [1, 2]
        (done,) = recorder.of_type(PoolTaskEvent)
        assert done.inline and done.label == "die"

    def test_hung_worker_times_out_and_inlines(self):
        bus, recorder = _recording_bus()
        tasks = [PoolTask(_hang_in_worker, (os.getpid(),), label="hang")]
        start = time.perf_counter()
        out = run_tasks(tasks, jobs=2, retries=0, timeout=1.0, bus=bus)
        assert out == ["finished"]
        assert time.perf_counter() - start < 30  # the hung worker was killed
        kinds = [e.kind for e in recorder.of_type(PoolWorkerFailureEvent)]
        assert kinds == ["timeout"]
        (done,) = recorder.of_type(PoolTaskEvent)
        assert done.inline

    def test_sibling_tasks_survive_a_killed_worker(self):
        tasks = [PoolTask(_square, (i,)) for i in range(4)]
        tasks.insert(2, PoolTask(_die_in_worker, (os.getpid(),)))
        out = run_tasks(tasks, jobs=2, retries=0, backoff=0.01)
        assert out == [0, 1, "survived", 4, 9]

    def test_task_exception_propagates_like_serial(self):
        with pytest.raises(ValueError, match="deterministic task failure"):
            run_tasks([PoolTask(_boom)], jobs=2, backoff=0.01)
        with pytest.raises(ValueError, match="deterministic task failure"):
            run_tasks([PoolTask(_boom)], jobs=1)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestPoolEvents:
    def test_clean_run_emits_start_task_end(self):
        bus, recorder = _recording_bus()
        run_tasks([PoolTask(_square, (i,), label=f"t{i}") for i in range(3)],
                  jobs=2, bus=bus)
        (start,) = recorder.of_type(PoolStartEvent)
        assert start.jobs == 2 and start.tasks == 3
        done = recorder.of_type(PoolTaskEvent)
        assert [e.index for e in done] == [0, 1, 2]
        assert all(not e.inline for e in done)
        (end,) = recorder.of_type(PoolEndEvent)
        assert end.completed == 3 and end.failures == 0 and end.inline_tasks == 0
        assert recorder.subsystems() == {"pool": 5}

    def test_inline_run_emits_the_same_shape(self):
        bus, recorder = _recording_bus()
        run_tasks([PoolTask(_square, (2,))], jobs=1, bus=bus)
        (end,) = recorder.of_type(PoolEndEvent)
        assert end.completed == 1 and end.inline_tasks == 1

    def test_no_bus_is_fine(self):
        assert run_tasks([PoolTask(_square, (5,))], jobs=2) == [25]


class TestPoolTimebase:
    def test_events_share_one_monotonic_clock(self):
        """Start/task/end timestamps come from one clock anchored at
        pool start — the start event is measured, not hardcoded 0.0."""
        bus, recorder = _recording_bus()
        run_tasks([PoolTask(_slow_square, (i,)) for i in range(3)],
                  jobs=2, bus=bus)
        (start,) = recorder.of_type(PoolStartEvent)
        done = recorder.of_type(PoolTaskEvent)
        (end,) = recorder.of_type(PoolEndEvent)
        assert 0.0 <= start.time < 1.0
        assert all(start.time <= e.time <= end.time for e in done)
        assert end.time > 0.0

    def test_inline_events_share_the_clock_too(self):
        bus, recorder = _recording_bus()
        run_tasks([PoolTask(_slow_square, (2,))], jobs=1, bus=bus)
        (start,) = recorder.of_type(PoolStartEvent)
        (task,) = recorder.of_type(PoolTaskEvent)
        (end,) = recorder.of_type(PoolEndEvent)
        assert start.time <= task.time <= end.time


# ----------------------------------------------------------------------
# Cross-process span capture and trace merging
# ----------------------------------------------------------------------
def _sim_task(i: int):
    """Small speculative run: real phase/epoch spans in the worker."""
    from repro.params import small_test_params
    from repro.runtime.driver import RunConfig, run_hw
    from repro.runtime.schedule import SchedulePolicy, ScheduleSpec
    from repro.workloads.synthetic import parallel_nonpriv_loop

    loop = parallel_nonpriv_loop(f"pool-sim-{i}", elements=64, iterations=8)
    config = RunConfig(schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK))
    result = run_hw(loop, small_test_params(2), config)
    return (i, result.passed, result.wall)


class TestProfiledPool:
    def _tasks(self):
        return [PoolTask(_sim_task, (i,), seed=derive_seed(7, i),
                         label=f"sim{i}") for i in range(8)]

    def test_profiled_pool_matches_unprofiled_inline(self):
        from repro.obs.spans import ProfileSession

        plain = run_tasks(self._tasks(), jobs=1)
        session = ProfileSession(label="test")
        profiled = run_tasks(self._tasks(), jobs=4, profile=session)
        assert profiled == plain  # capture must not perturb verdicts

    def test_merged_trace_is_union_of_worker_spans(self):
        from repro.obs.spans import ProfileSession

        session = ProfileSession(label="test")
        run_tasks(self._tasks(), jobs=4, profile=session)
        assert len(session.tasks) == 8
        doc = session.merged_trace()
        events = doc["traceEvents"]

        # One task root span per pooled task, across >1 worker process.
        task_spans = [e for e in events if e.get("cat") == "task"]
        assert len(task_spans) == 8
        worker_pids = {e["pid"] for e in task_spans}
        assert len(worker_pids) >= 2
        assert os.getpid() not in worker_pids

        # The merged span set is the union of the per-worker captures.
        merged_names = sorted(
            e["name"] for e in events
            if e.get("cat") in ("task", "run", "phase")
        )
        capture_names = sorted(
            s["name"]
            for t in session.tasks
            for s in t["capture"]["profile"]["spans"]
            if s["cat"] in ("task", "run", "phase")
        )
        assert merged_names == capture_names

        # Worker-side phase spans are present for every worker used.
        assert {e["pid"] for e in events if e.get("cat") == "phase"} \
            == worker_pids

        # Distinct pid tracks get process_name metadata, parent included.
        meta = {e["pid"]: e["args"]["name"]
                for e in events if e["ph"] == "M"}
        assert meta[os.getpid()] == "parent"
        assert all(meta[pid] == f"worker-{pid}" for pid in worker_pids)

        # No timestamp inversions after the wall-clock rebase.
        ts = [e["ts"] for e in events if e["ph"] != "M"]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)

    def test_rollup_reports_pool_and_tiers(self):
        from repro.obs.spans import ProfileSession

        session = ProfileSession(label="test")
        run_tasks(self._tasks(), jobs=4, profile=session)
        rollup = session.rollup()
        assert rollup["tasks"] == 8
        assert rollup["pool"]["jobs"] == 4
        assert rollup["inline_tasks"] == 0
        assert rollup["task_wall_s"]["p95"] >= rollup["task_wall_s"]["p50"] > 0
        assert all(q >= 0 for q in rollup["queue_wait_s"].values()
                   if q is not None)
        assert 0 < rollup["worker_utilization"] <= 1.0
        assert "scalar" in rollup["phase_breakdown_s"]
