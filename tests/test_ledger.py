"""Tests for the provenance-keyed run ledger (repro.obs.ledger)."""

import dataclasses
import json

import pytest

from repro.experiments import ledgercli
from repro.experiments.pool import PoolTask, run_tasks
from repro.experiments.serialize import run_result_from_dict, run_result_to_dict
from repro.obs import RunLedger, Telemetry, as_ledger, ledger_key
from repro.obs.events import LedgerHitEvent, LedgerWriteEvent, RunStartEvent
from repro.params import small_test_params
from repro.runtime.driver import RunConfig, run_hw, run_ideal, run_serial, run_sw
from repro.runtime.schedule import SchedulePolicy, ScheduleSpec
from repro.testing.diffcheck import result_signature
from repro.types import Scenario
from repro.workloads.synthetic import (
    failing_loop,
    parallel_nonpriv_loop,
    privatizable_loop,
)


def _static(**extra):
    return RunConfig(
        schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK), **extra
    )


def _loop(name="ledger-loop", iterations=8):
    return parallel_nonpriv_loop(name, elements=64, iterations=iterations)


# ----------------------------------------------------------------------
# serialization round-trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_passing_hw_run(self):
        result = run_hw(_loop(), small_test_params(4), _static())
        doc = json.loads(json.dumps(run_result_to_dict(result)))
        restored = run_result_from_dict(doc)
        assert restored == result  # dataclass equality incl. provenance
        assert restored.provenance == result.provenance
        assert run_result_to_dict(restored) == run_result_to_dict(result)

    def test_failing_hw_run(self):
        loop = failing_loop(4, "ledger-fail", elements=32, iterations=8)
        result = run_hw(loop, small_test_params(4), _static())
        assert not result.passed
        doc = json.loads(json.dumps(run_result_to_dict(result)))
        restored = run_result_from_dict(doc)
        # SpeculationFailure is an Exception (identity equality), so the
        # failing-run contract is dict-level equality + full attribution.
        assert run_result_to_dict(restored) == run_result_to_dict(result)
        assert restored.failure.reason == result.failure.reason
        assert restored.failure.element == result.failure.element
        assert restored.failure.detected_at == result.failure.detected_at
        assert restored.failure.processor == result.failure.processor

    def test_sw_run_with_lrpd(self):
        loop = privatizable_loop("ledger-sw", elements=64, iterations=8)
        result = run_sw(loop, small_test_params(4), _static())
        restored = run_result_from_dict(
            json.loads(json.dumps(run_result_to_dict(result)))
        )
        assert restored == result
        assert restored.lrpd.passed == result.lrpd.passed
        assert set(restored.lrpd.arrays) == set(result.lrpd.arrays)


# ----------------------------------------------------------------------
# the archive itself
# ----------------------------------------------------------------------
class TestLedgerStore:
    def test_write_read_and_dedupe(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        params = small_test_params(4)
        config = _static(ledger=ledger)
        result = run_hw(_loop(), params, config)
        key = ledger_key(Scenario.HW, _loop(), params, config)
        record = ledger.lookup(key)
        assert record is not None and record["kind"] == "run"
        assert record["result"] == json.loads(
            json.dumps(run_result_to_dict(result))
        )
        assert record["host_wall_s"] is not None
        # Second identical invocation serves the archive: still one
        # index line, one record file.
        run_hw(_loop(), params, config)
        assert len(list(ledger.records())) == 1

    def test_key_sensitivity(self):
        params = small_test_params(4)
        base = ledger_key(Scenario.HW, _loop(), params, _static())
        assert base != ledger_key(Scenario.SW, _loop(), params, _static())
        assert base != ledger_key(
            Scenario.HW, _loop(), params, _static(sparse_backup=True)
        )
        assert base != ledger_key(
            Scenario.HW, _loop("other-name"), params, _static()
        )
        assert base != ledger_key(
            Scenario.HW, _loop(iterations=9), params, _static()
        )
        # The ledger knob itself never enters the content address.
        assert base == ledger_key(
            Scenario.HW, _loop(), params, _static(ledger=RunLedger("/x"))
        )

    def test_resolve_prefix(self, tmp_path):
        ledger = RunLedger(str(tmp_path))
        run_serial(_loop(), small_test_params(4), RunConfig(ledger=ledger))
        (entry,) = ledger.records()
        assert ledger.resolve(entry["key"][:10]) == entry["key"]
        with pytest.raises(KeyError):
            ledger.resolve("zzzz")

    def test_as_ledger_coercion_and_pickle(self, tmp_path):
        import pickle

        ledger = as_ledger(str(tmp_path))
        assert isinstance(ledger, RunLedger) and ledger.root == str(tmp_path)
        assert as_ledger(ledger) is ledger
        config = _static(ledger=ledger)
        assert pickle.loads(pickle.dumps(config)).ledger == ledger

    def test_span_rollup_recorded(self, tmp_path):
        from repro.obs import spans

        ledger = RunLedger(str(tmp_path))
        params = small_test_params(4)
        config = _static(ledger=ledger)
        spans.install(spans.SpanProfiler())
        try:
            run_hw(_loop(), params, config)
        finally:
            spans.uninstall()
        (entry,) = ledger.records()
        rollup = ledger.lookup(entry["key"])["span_rollup"]
        assert rollup["run_wall_s"] > 0
        assert rollup["phase_s"]["count"] >= 2  # backup + loop at least
        # One flat {phase span: seconds} map: the span tree has no
        # engine-tier level.
        breakdown = rollup["phase_breakdown_s"]
        assert "phase:loop" in breakdown
        assert all(isinstance(v, float) for v in breakdown.values())


# ----------------------------------------------------------------------
# the cache-read path
# ----------------------------------------------------------------------
class TestCacheHit:
    def test_bit_identical_without_engine_invocation(self, tmp_path, monkeypatch):
        params = small_test_params(4)
        ledger = RunLedger(str(tmp_path))
        fresh = run_hw(_loop(), params, _static())
        first = run_hw(_loop(), params, _static(ledger=ledger))
        # Prove the second run never builds a machine: every driver
        # constructs one, so a poisoned constructor shows any attempt
        # to simulate.
        def boom(*a, **k):
            raise AssertionError("simulation ran despite a ledger hit")

        monkeypatch.setattr("repro.runtime.driver.Machine", boom)
        served = run_hw(_loop(), params, _static(ledger=ledger))
        # diffcheck's full-signature compare (result projection).
        assert result_signature(served) == result_signature(first)
        assert result_signature(served) == result_signature(fresh)
        assert served == first == fresh
        assert served.provenance == fresh.provenance

    @pytest.mark.parametrize(
        "runner,loop_fn",
        [
            (run_serial, _loop),
            (run_ideal, _loop),
            (run_sw, lambda: privatizable_loop("lsw", 64, 8)),
        ],
    )
    def test_all_scenarios_serve(self, tmp_path, monkeypatch, runner, loop_fn):
        params = small_test_params(4)
        config = _static(ledger=RunLedger(str(tmp_path)))
        first = runner(loop_fn(), params, config)
        monkeypatch.setattr(
            "repro.runtime.driver.Machine",
            lambda *a, **k: pytest.fail("re-simulated"),
        )
        assert runner(loop_fn(), params, config) == first

    def test_hit_and_write_events(self, tmp_path):
        params = small_test_params(4)
        ledger = RunLedger(str(tmp_path))
        t1 = Telemetry()
        run_hw(_loop(), params, _static(ledger=ledger, telemetry=t1))
        writes = [e for e in t1.events if isinstance(e, LedgerWriteEvent)]
        assert len(writes) == 1 and not writes[0].deduped
        assert writes[0].kind == "run" and writes[0].passed

        t2 = Telemetry()
        run_hw(_loop(), params, _static(ledger=ledger, telemetry=t2))
        hits = [e for e in t2.events if isinstance(e, LedgerHitEvent)]
        assert len(hits) == 1
        assert hits[0].key == writes[0].key
        assert hits[0].scenario == "HW" and hits[0].loop_name == _loop().name
        # No simulation happened: no run-start, no write.
        assert not [e for e in t2.events if isinstance(e, RunStartEvent)]
        assert not [e for e in t2.events if isinstance(e, LedgerWriteEvent)]

    def test_monitors_and_hooks_disable_serving(self, tmp_path):
        from repro.obs import MonitorSuite

        params = small_test_params(4)
        ledger = RunLedger(str(tmp_path))
        config = _static(ledger=ledger, monitors=MonitorSuite())
        r1 = run_hw(_loop(), params, config)
        assert r1.violations == []
        # Re-run is NOT served (monitors need a live machine), but the
        # content address dedupes the archive.
        t = Telemetry()
        run_hw(_loop(), params, dataclasses.replace(
            config, monitors=MonitorSuite(), telemetry=t))
        assert [e for e in t.events if isinstance(e, RunStartEvent)]
        writes = [e for e in t.events if isinstance(e, LedgerWriteEvent)]
        assert len(writes) == 1 and writes[0].deduped
        hook_calls = []
        served = run_hw(
            _loop(), params,
            _static(ledger=ledger, machine_hook=hook_calls.append),
        )
        assert hook_calls, "machine_hook run must not be served from disk"
        assert served.passed

    def test_served_metrics_bit_identical_under_telemetry(self, tmp_path):
        # Telemetry stamps a metrics snapshot into the result; histogram
        # buckets are int-keyed, which plain JSON would stringify.  The
        # revival in run_result_from_dict must undo that exactly.
        params = small_test_params(4)
        ledger = RunLedger(str(tmp_path))
        first = run_hw(
            _loop(), params,
            _static(ledger=ledger, telemetry=Telemetry()),
        )
        assert first.metrics is not None
        served = run_hw(
            _loop(), params,
            _static(ledger=ledger, telemetry=Telemetry()),
        )
        assert served.metrics == first.metrics
        assert served == first

    def test_serve_hits_off_records_but_resimulates(self, tmp_path):
        params = small_test_params(4)
        write_only = RunLedger(str(tmp_path), serve_hits=False)
        t = Telemetry()
        run_hw(_loop(), params, _static(ledger=write_only, telemetry=t))
        t2 = Telemetry()
        run_hw(_loop(), params, _static(ledger=write_only, telemetry=t2))
        assert [e for e in t2.events if isinstance(e, RunStartEvent)]
        assert not [e for e in t2.events if isinstance(e, LedgerHitEvent)]


# ----------------------------------------------------------------------
# concurrent appends through the experiment pool
# ----------------------------------------------------------------------
def _pool_run(iterations: int, root: str):
    """Module-level (picklable) pool task: one distinct-keyed run."""
    loop = parallel_nonpriv_loop(
        f"pool-{iterations}", elements=64, iterations=iterations
    )
    config = RunConfig(
        schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK),
        ledger=RunLedger(root),
    )
    return run_result_to_dict(run_hw(loop, small_test_params(4), config))


def _pool_run_same_key(root: str):
    """Module-level pool task: every invocation shares one key."""
    loop = parallel_nonpriv_loop("pool-same", elements=64, iterations=8)
    config = RunConfig(
        schedule=ScheduleSpec(policy=SchedulePolicy.STATIC_CHUNK),
        ledger=RunLedger(root),
    )
    return run_result_to_dict(run_hw(loop, small_test_params(4), config))


class TestConcurrentAppend:
    def test_distinct_keys_all_archived(self, tmp_path):
        root = str(tmp_path)
        tasks = [
            PoolTask(_pool_run, (8 + i, root), label=f"run-{i}")
            for i in range(8)
        ]
        results = run_tasks(tasks, jobs=4)
        assert len(results) == 8
        ledger = RunLedger(root)
        entries = list(ledger.records(kind="run"))
        keys = [e["key"] for e in entries]
        assert len(keys) == 8 and len(set(keys)) == 8
        for key in keys:  # every record file is complete, parseable JSON
            record = ledger.lookup(key)
            assert record["kind"] == "run"
            run_result_from_dict(record["result"])

    def test_same_key_dedupes_across_workers(self, tmp_path):
        root = str(tmp_path)
        tasks = [
            PoolTask(_pool_run_same_key, (root,), label=f"dup-{i}")
            for i in range(4)
        ]
        results = run_tasks(tasks, jobs=4)
        assert all(doc == results[0] for doc in results)
        assert len(list(RunLedger(root).records())) == 1


# ----------------------------------------------------------------------
# CLI verb family
# ----------------------------------------------------------------------
class TestLedgerCli:
    def _record_two_runs(self, root):
        ledger = RunLedger(str(root))
        params = small_test_params(4)
        run_hw(_loop(), params, _static(ledger=ledger))
        run_hw(_loop(), params, _static(sparse_backup=True, ledger=ledger))
        return [e["key"] for e in ledger.records()]

    def test_list_and_show(self, tmp_path, capsys):
        keys = self._record_two_runs(tmp_path)
        assert ledgercli.main(["--ledger-dir", str(tmp_path), "list"]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out and out.count(" HW ") == 2
        assert ledgercli.main(
            ["--ledger-dir", str(tmp_path), "show", keys[0][:12]]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["key"] == keys[0] and doc["result"]["passed"] is True

    def test_diff(self, tmp_path, capsys):
        keys = self._record_two_runs(tmp_path)
        assert ledgercli.main(
            ["--ledger-dir", str(tmp_path), "diff", keys[0], keys[1]]
        ) == 0
        out = capsys.readouterr().out
        # dense and sparse backup runs differ at least in provenance
        # (the sparse_backup knob enters the config hash).
        assert "differing field" in out
        assert "config_hash" in out

    @pytest.mark.parametrize("verb", ["show", "diff"])
    def test_unknown_key_is_a_usage_error(self, tmp_path, capsys, verb):
        argv = ["--ledger-dir", str(tmp_path), verb, "abc"]
        if verb == "diff":
            argv.append("abd")
        with pytest.raises(SystemExit) as exc:
            ledgercli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "ledger: no ledger record matches 'abc'\n"

    @pytest.mark.parametrize("verb", ["show", "diff"])
    def test_ambiguous_key_is_a_usage_error(self, tmp_path, capsys, verb):
        keys = self._record_two_runs(tmp_path)
        # The empty prefix matches both records.
        argv = ["--ledger-dir", str(tmp_path), verb, ""]
        if verb == "diff":
            argv.append(keys[0])
        with pytest.raises(SystemExit) as exc:
            ledgercli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("ledger: ambiguous key prefix ''")
        assert len(err.splitlines()) == 1

    def test_experiments_cli_dispatches_ledger_verb(self, tmp_path, capsys):
        from repro.experiments.cli import main

        assert main(["ledger", "--ledger-dir", str(tmp_path), "list"]) == 0
        assert "no records" in capsys.readouterr().out
