"""Span profiler, worker capture and multi-process trace merging."""

import dataclasses
import json
import pickle

import pytest

from repro.obs import spans
from repro.obs.export import merged_chrome_trace, span_trace_events
from repro.obs.spans import (
    ProfileSession,
    SpanProfiler,
    WorkerCapture,
    percentile,
)
from repro.params import ContentionModel, small_test_params
from repro.runtime.driver import RunConfig, run_hw
from repro.runtime.schedule import SchedulePolicy, ScheduleSpec
from repro.testing.vector_oracle import failing_elements
from repro.workloads.synthetic import parallel_nonpriv_loop


@pytest.fixture(autouse=True)
def _clean_ambient():
    """No test may leak an installed profiler/capture into the next."""
    yield
    spans.uninstall()
    spans._CAPTURE = None
    assert spans.current() is None


def _small_loop():
    return parallel_nonpriv_loop("span-test", elements=64, iterations=8)


def _config():
    return RunConfig(schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK))


class TestSpanProfiler:
    def test_nesting_and_parenting(self):
        prof = SpanProfiler()
        outer = prof.begin("outer")
        inner = prof.begin("inner")
        prof.end(inner)
        prof.end(outer)
        snap = prof.snapshot()
        by_name = {s["name"]: s for s in snap["spans"]}
        assert by_name["inner"]["parent"] == by_name["outer"]["sid"]
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["t1"] <= by_name["outer"]["t1"]

    def test_contextmanager_and_args(self):
        prof = SpanProfiler()
        with prof.span("work", cat="phase", phase="loop"):
            pass
        (span,) = prof.spans
        assert span["cat"] == "phase"
        assert span["args"] == {"phase": "loop"}
        assert span["t1"] >= span["t0"]

    def test_count_goes_to_innermost_open_span(self):
        prof = SpanProfiler()
        outer = prof.begin("outer")
        inner = prof.begin("inner")
        prof.count("hits", 3)
        prof.end(inner)
        prof.count("hits")  # now attaches to outer
        prof.end(outer)
        by_name = {s["name"]: s for s in prof.spans}
        assert by_name["inner"]["counters"] == {"hits": 3}
        assert by_name["outer"]["counters"] == {"hits": 1}

    def test_count_without_open_span_goes_to_profiler(self):
        prof = SpanProfiler()
        prof.count("loose", 2)
        assert prof.counters == {"loose": 2}
        assert prof.snapshot()["counters"] == {"loose": 2}

    def test_end_counters_merge(self):
        prof = SpanProfiler()
        h = prof.begin("x")
        prof.count("n", 1)
        prof.end(h, n=4, m=2)
        assert prof.spans[0]["counters"] == {"n": 5, "m": 2}

    def test_end_closes_dangling_children(self):
        prof = SpanProfiler()
        outer = prof.begin("outer")
        prof.begin("leaked")
        prof.end(outer)  # must also close "leaked"
        assert {s["name"] for s in prof.spans} == {"outer", "leaked"}
        assert all(s["t1"] is not None for s in prof.spans)

    def test_snapshot_closes_open_spans_and_pickles(self):
        prof = SpanProfiler()
        prof.begin("open")
        snap = prof.snapshot()
        assert snap["spans"][0]["t1"] is not None
        assert pickle.loads(pickle.dumps(snap)) == snap
        json.dumps(snap)  # plain JSON types only

    def test_resource_sampling(self):
        prof = SpanProfiler()
        h = prof.begin("sampled", sample=True)
        prof.end(h)
        res = prof.spans[0]["resources"]
        assert res["rss_kb"] > 0
        assert res["cpu_s"] >= 0
        assert "gc_collections" in res

    def test_percentile(self):
        assert percentile([], 50) is None
        assert percentile([5.0], 95) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0


class TestNullPath:
    """No profiler installed => zero span work, pinned by booby-trap —
    the spans twin of ``TestGuardedEmissionSites``."""

    def test_no_profiler_no_span_work(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("span work on the null path")

        monkeypatch.setattr(SpanProfiler, "begin", boom)
        monkeypatch.setattr(SpanProfiler, "end", boom)
        monkeypatch.setattr(SpanProfiler, "count", boom)
        monkeypatch.setattr(WorkerCapture, "attach", boom)
        loop = _small_loop()
        params = small_test_params(2)
        assert spans.current() is None
        assert run_hw(loop, params, _config()).passed
        assert failing_elements(loop, params, _config()) == {"A": set()}
        dynamic = RunConfig(schedule=ScheduleSpec(policy=SchedulePolicy.DYNAMIC))
        assert failing_elements(loop, params, dynamic) is None


class TestAmbientProfile:
    def test_scalar_run_span_hierarchy(self):
        spans.install(SpanProfiler())
        try:
            result = run_hw(_small_loop(), small_test_params(2), _config())
        finally:
            prof = spans.current()
            spans.uninstall()
        assert result.passed
        recorded = prof.snapshot()["spans"]
        by_sid = {s["sid"]: s for s in recorded}
        names = [s["name"] for s in recorded]
        assert "run" in names and "engine:scalar" in names
        assert "phase:loop" in names and "epoch#0" in names
        run = next(s for s in recorded if s["name"] == "run")
        tier = next(s for s in recorded if s["name"] == "engine:scalar")
        phase = next(s for s in recorded if s["name"] == "phase:loop")
        assert tier["parent"] == run["sid"]
        assert phase["parent"] == tier["sid"]
        epochs = [s for s in recorded if s["cat"] == "epoch"]
        assert epochs
        assert all(by_sid[s["parent"]]["cat"] == "phase" for s in epochs)
        assert run["args"]["engine"] == "scalar"
        assert phase["args"]["engine"] == "scalar"
        assert phase["counters"]["engine.events"] > 0

    @pytest.mark.parametrize(
        "contention", [True, False], ids=["contention-on", "contention-off"]
    )
    def test_vector_dynamic_schedule_counts_delegation(self, contention):
        """The kernel oracle declines a dynamic schedule and counts one
        ``vector.delegations`` — the counter sweep-small reports — with
        no span of its own."""
        prof = SpanProfiler()
        spans.install(prof)
        config = RunConfig(schedule=ScheduleSpec(policy=SchedulePolicy.DYNAMIC))
        params = dataclasses.replace(
            small_test_params(2),
            contention=ContentionModel(enabled=contention),
        )
        try:
            assert failing_elements(_small_loop(), params, config) is None
        finally:
            spans.uninstall()
        snap = prof.snapshot()
        assert snap["spans"] == []
        assert snap["counters"].get("vector.delegations") == 1


class TestWorkerCapture:
    def test_capture_records_spans_metrics_events(self):
        cap = WorkerCapture(label="t0")
        cap.install()
        try:
            run_hw(_small_loop(), small_test_params(2), _config())
        finally:
            cap.uninstall()
        snap = cap.snapshot()
        assert snap["label"] == "t0"
        assert snap["pid"] > 0
        names = {s["name"] for s in snap["profile"]["spans"]}
        assert {"task", "run", "phase:loop"} <= names
        # The task root span wraps everything else.
        root = next(
            s for s in snap["profile"]["spans"] if s["cat"] == "task"
        )
        assert root["parent"] is None
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry.from_snapshot(snap["metrics"])
        assert reg.total("mem.accesses") > 0
        assert snap["events_recorded"] > 0
        assert all(
            ev["ph"] in ("X", "i") for ev in snap["trace_events"]
        )
        pickle.loads(pickle.dumps(snap))

    def test_explicit_telemetry_wins_over_capture(self):
        from repro.obs import Telemetry

        telemetry = Telemetry()
        cap = WorkerCapture(label="t1")
        cap.install()
        try:
            config = RunConfig(
                schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK),
                telemetry=telemetry,
            )
            run_hw(_small_loop(), small_test_params(2), config)
        finally:
            cap.uninstall()
        snap = cap.snapshot()
        # Spans are ambient and still recorded ...
        assert any(s["name"] == "run" for s in snap["profile"]["spans"])
        # ... but the machine's bus belonged to the explicit telemetry.
        assert snap["events_recorded"] == 0
        assert telemetry.registry.total("mem.accesses") > 0

    def test_capture_does_not_change_results(self):
        loop, params = _small_loop(), small_test_params(2)
        plain = run_hw(loop, params, _config())
        cap = WorkerCapture(label="t2")
        cap.install()
        try:
            captured = run_hw(loop, params, _config())
        finally:
            cap.uninstall()
        assert captured.passed == plain.passed
        assert captured.wall == plain.wall
        assert captured.phases == plain.phases


class TestMergedTrace:
    @staticmethod
    def _fake_capture(pid, t0_wall, label="w"):
        return {
            "label": label,
            "pid": pid,
            "profile": {
                "track": "task",
                "pid": pid,
                "t0_wall": t0_wall,
                "counters": {},
                "spans": [
                    {"sid": 0, "parent": None, "name": "task", "cat": "task",
                     "tid": 0, "t0": 0.0, "t1": 0.5, "args": {},
                     "counters": {}},
                    {"sid": 1, "parent": 0, "name": "run", "cat": "run",
                     "tid": 0, "t0": 0.1, "t1": 0.4, "args": {},
                     "counters": {}},
                ],
            },
            "metrics": {"counters": {}, "histograms": {}},
            "trace_events": [
                {"ph": "X", "ts": 100.0, "dur": 50.0, "pid": 0, "tid": 2,
                 "name": "miss", "cat": "memsys"},
            ],
            "events_recorded": 1,
            "events_dropped": 0,
        }

    def test_merge_is_union_with_distinct_pids(self):
        captures = [
            self._fake_capture(101, 1000.0),
            self._fake_capture(202, 1000.2),
        ]
        doc = merged_chrome_trace(None, captures, metadata={"k": "v"})
        events = doc["traceEvents"]
        spans_only = [e for e in events if e.get("cat") in ("task", "run")]
        assert len(spans_only) == 4  # union of both workers' span sets
        assert {e["pid"] for e in spans_only} == {101, 202}
        meta = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        assert meta == {101: "worker-101", 202: "worker-202"}
        assert doc["metadata"] == {"k": "v"}

    def test_no_timestamp_inversions_and_wall_rebase(self):
        captures = [
            self._fake_capture(101, 1000.0),
            self._fake_capture(202, 1000.2),
        ]
        doc = merged_chrome_trace(None, captures)
        body = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        ts = [e["ts"] for e in body]
        assert ts == sorted(ts)
        assert all(t >= 0 for t in ts)
        # Worker 202 started 0.2s later on the shared wall clock.
        task_ts = {
            e["pid"]: e["ts"] for e in body
            if e.get("cat") == "task"
        }
        assert task_ts[202] - task_ts[101] == pytest.approx(0.2e6, rel=1e-3)

    def test_sim_events_rescaled_into_task_window(self):
        capture = self._fake_capture(101, 1000.0)
        doc = merged_chrome_trace(None, [capture])
        miss = next(
            e for e in doc["traceEvents"] if e.get("name") == "miss"
        )
        task = next(
            e for e in doc["traceEvents"] if e.get("cat") == "task"
        )
        assert miss["pid"] == 101
        assert task["ts"] <= miss["ts"] <= task["ts"] + task["dur"]
        assert miss["args"]["sim_ts_cycles"] == 100.0

    def test_span_trace_events_carries_counters_and_resources(self):
        snap = {
            "t0_wall": 10.0,
            "spans": [
                {"sid": 0, "parent": None, "name": "x", "cat": "span",
                 "tid": 3, "t0": 0.0, "t1": 1.0,
                 "args": {"a": 1}, "counters": {"n": 2},
                 "resources": {"rss_kb": 5.0}},
            ],
        }
        (ev,) = span_trace_events(snap, pid=7, anchor_wall=10.0)
        assert ev["tid"] == 3 and ev["pid"] == 7
        assert ev["args"]["counters"] == {"n": 2}
        assert ev["args"]["resources"] == {"rss_kb": 5.0}
        assert ev["dur"] == pytest.approx(1e6)


class TestProfileSession:
    def test_rollup_from_pooled_inline_run(self):
        from repro.experiments.pool import PoolTask, run_tasks

        session = ProfileSession(label="unit")
        tasks = [
            PoolTask(_profiled_task, (i,), seed=i, label=f"t{i}")
            for i in range(3)
        ]
        results = run_tasks(tasks, jobs=1, profile=session)
        assert results == [0, 1, 4]
        assert len(session.tasks) == 3
        rollup = session.rollup()
        assert rollup["tasks"] == 3
        assert rollup["pool"]["jobs"] == 1
        assert rollup["task_wall_s"]["p50"] is not None
        assert rollup["inline_tasks"] == 3
        # scalar phases aggregated per tier
        assert "scalar" in rollup["phase_breakdown_s"]
        doc = session.merged_trace()
        assert any(e.get("cat") == "pool" for e in doc["traceEvents"])
        from repro.experiments.report import render_profile_rollup

        text = render_profile_rollup(rollup)
        assert "task wall" in text and "scalar" in text


def _profiled_task(i):
    run_hw(_small_loop(), small_test_params(2), _config())
    return i * i
