"""Span profiler, its run -> phase -> epoch tree, and span trace export."""

import dataclasses
import json
import pickle

import pytest

from repro.obs import spans
from repro.obs.export import span_trace_events
from repro.obs.spans import SpanProfiler, percentile
from repro.params import ContentionModel, small_test_params
from repro.runtime.driver import RunConfig, run_hw
from repro.runtime.schedule import SchedulePolicy, ScheduleSpec
from repro.testing.vector_oracle import failing_elements
from repro.workloads.synthetic import parallel_nonpriv_loop


@pytest.fixture(autouse=True)
def _clean_ambient():
    """No test may leak an installed profiler into the next."""
    yield
    spans.uninstall()
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
        assert "run" in names
        assert "phase:loop" in names and "epoch#0" in names
        # run -> phase -> epoch, with no engine-tier level between.
        assert {s["cat"] for s in recorded} == {"run", "phase", "epoch"}
        run = next(s for s in recorded if s["name"] == "run")
        phases = [s for s in recorded if s["cat"] == "phase"]
        assert all(s["parent"] == run["sid"] for s in phases)
        epochs = [s for s in recorded if s["cat"] == "epoch"]
        assert epochs
        assert all(by_sid[s["parent"]]["cat"] == "phase" for s in epochs)
        assert "engine" not in run["args"]
        phase = next(s for s in phases if s["name"] == "phase:loop")
        assert phase["args"] == {"phase": "loop"}
        assert phase["counters"]["engine.events"] > 0

    def test_profiler_changes_no_result_and_attaches_no_bus(self):
        loop, params = _small_loop(), small_test_params(2)
        plain = run_hw(loop, params, _config())
        buses = []
        config = dataclasses.replace(
            _config(), machine_hook=lambda machine: buses.append(machine.bus)
        )
        spans.install(SpanProfiler())
        try:
            profiled = run_hw(loop, params, config)
        finally:
            spans.uninstall()
        assert (profiled.passed, profiled.wall, profiled.phases) == (
            plain.passed, plain.wall, plain.phases
        )
        # A run's event bus is only the one its RunConfig attaches.
        assert buses == [None]

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


class TestSpanTrace:
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
