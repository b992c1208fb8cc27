"""Tests for the experiment harness — including the paper's headline
shape claims at a reduced simulation size."""

import collections

import pytest

from repro.experiments import figures, scenarios
from repro.experiments.figures import (
    PRESETS,
    fig11_speedups,
    fig12_breakdown,
    fig13_failure,
    fig14_scalability,
    make_workload,
    preset_executions,
    table1_workloads,
    table2_state,
)
from repro.experiments.report import (
    render_fig11,
    render_fig12,
    render_fig13,
    render_fig14,
    render_table1,
    render_table2,
)
from repro.experiments.scenarios import run_workload
from repro.types import Scenario
from repro.workloads import AdmWorkload


DRIVERS = ("run_serial", "run_ideal", "run_sw", "run_hw")


def _count_driver_calls(mp, calls, modules=(scenarios, figures)):
    """Count scenario-driver calls, per driver, where ``modules`` look
    the drivers up (``figures`` holds Fig 13's)."""
    for module in modules:
        for name in DRIVERS:
            if not hasattr(module, name):
                continue

            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            mp.setattr(module, name, counted)


@pytest.fixture(scope="module")
def fig11_rows():
    return fig11_speedups(preset="quick")


@pytest.fixture(scope="module")
def fig13_rows():
    return fig13_failure(preset="quick")


class TestScenarioRunner:
    def test_run_workload_small(self):
        res = run_workload(AdmWorkload(scale=0.2), executions=1)
        assert set(res.scenarios) == {
            Scenario.SERIAL, Scenario.IDEAL, Scenario.SW, Scenario.HW,
        }
        assert res.speedup(Scenario.SERIAL) == 1.0
        assert 0 < res.efficiency(Scenario.HW) <= 1.0

    def test_breakdown_normalization(self):
        res = run_workload(AdmWorkload(scale=0.2), executions=1)
        serial_bd = res.normalized_breakdown(Scenario.SERIAL)
        assert serial_bd.wall == pytest.approx(1.0, abs=0.01)


class TestFig11Shape:
    """The paper's headline claims, checked as *shape* properties."""

    def test_hw_between_sw_and_ideal(self, fig11_rows):
        for row in fig11_rows:
            assert row.sw <= row.hw * 1.05, row.workload
            assert row.hw <= row.ideal * 1.05, row.workload

    def test_hw_beats_sw_on_average(self, fig11_rows):
        hw = sum(r.hw for r in fig11_rows) / len(fig11_rows)
        sw = sum(r.sw for r in fig11_rows) / len(fig11_rows)
        assert hw > 1.5 * sw  # paper: ~2x

    def test_everything_passes(self, fig11_rows):
        for row in fig11_rows:
            for scenario in (Scenario.SW, Scenario.HW):
                assert row.results.scenarios[scenario].failures == 0, row.workload

    def test_ocean_runs_on_8(self, fig11_rows):
        by_name = {r.workload: r for r in fig11_rows}
        assert by_name["Ocean"].num_processors == 8
        assert by_name["Adm"].num_processors == 16


class TestFig12Shape:
    def test_rows_cover_all_scenarios(self):
        rows = fig12_breakdown(preset="quick", workloads=["Adm"])
        assert len(rows) == 4
        assert rows[0].scenario is Scenario.SERIAL
        assert rows[0].total == pytest.approx(1.0, abs=0.01)

    def test_parallel_total_below_serial(self):
        rows = fig12_breakdown(preset="quick", workloads=["Adm"])
        for row in rows:
            if row.scenario is not Scenario.SERIAL:
                assert row.total < 1.0

    def test_sw_busier_than_hw(self):
        """§6.1: the software scheme's extra instructions raise Busy."""
        rows = fig12_breakdown(preset="quick", workloads=["Adm", "Track"])
        by_key = {(r.workload, r.scenario): r for r in rows}
        for name in ("Adm", "Track"):
            assert (
                by_key[(name, Scenario.SW)].busy
                > by_key[(name, Scenario.HW)].busy
            )


class TestFig13Shape:
    def test_hw_detects_early_and_costs_less(self, fig13_rows):
        by_key = {(r.workload, r.scenario): r for r in fig13_rows}
        for name in ("Ocean", "P3m", "Adm", "Track"):
            hw = by_key[(name, Scenario.HW)]
            sw = by_key[(name, Scenario.SW)]
            assert hw.normalized_time < sw.normalized_time, name
            assert hw.detection_cycle is not None

    def test_hw_overhead_moderate_except_track(self, fig13_rows):
        """§6.2: HW takes a bit longer than Serial; Track is the
        exception (backup/restore dominates its tiny loop)."""
        by_key = {(r.workload, r.scenario): r for r in fig13_rows}
        for name in ("Ocean", "P3m", "Adm"):
            assert by_key[(name, Scenario.HW)].normalized_time < 2.0, name

    def test_all_scenarios_present(self, fig13_rows):
        assert len(fig13_rows) == 12  # 4 loops x 3 scenarios


class TestFig14Shape:
    @pytest.fixture(scope="class")
    def rows(self):
        return fig14_scalability(preset="quick", workloads=["Adm", "Track"])

    def test_hw_scales_better_than_sw(self, rows):
        """§6.3: from 8 to 16 processors HW gains more than SW."""
        by_key = {(r.workload, r.num_processors): r for r in rows}
        for name in ("Adm", "Track"):
            hw_gain = by_key[(name, 16)].hw / by_key[(name, 8)].hw
            sw_gain = by_key[(name, 16)].sw / by_key[(name, 8)].sw
            assert hw_gain > sw_gain * 0.95, name

    def test_ocean_excluded_by_default(self):
        rows = fig14_scalability(preset="quick", workloads=None)
        assert all(r.workload != "Ocean" for r in rows)


class TestRunStore:
    """Builders handed one RunStore simulate each distinct run once."""

    def test_shared_store_rows_equal_unshared_rows(self, monkeypatch):
        fresh12 = fig12_breakdown(preset="quick", workloads=["Adm"])
        fresh14 = fig14_scalability(preset="quick", workloads=["Adm"])
        calls = collections.Counter()
        _count_driver_calls(monkeypatch, calls, modules=(scenarios,))
        runs = {}
        assert fig12_breakdown(preset="quick", workloads=["Adm"], runs=runs) == fresh12
        assert fig14_scalability(preset="quick", workloads=["Adm"], runs=runs) == fresh14
        # One entry per run: Adm runs on 16 processors, so Fig 14's
        # 16-processor bars are Fig 12's runs, and every Serial run is
        # keyed at 1 processor, so the 8-processor bars reuse it too.
        per_pair = preset_executions("Adm", "quick")
        assert set(runs) == {
            ("Adm", "quick", 2026, index, scenario, procs)
            for index in range(per_pair)
            for scenario, procs in [(Scenario.SERIAL, 1)] + [
                (s, p) for s in (Scenario.IDEAL, Scenario.SW, Scenario.HW)
                for p in (8, 16)
            ]
        }
        assert calls == {
            "run_serial": per_pair, "run_ideal": 2 * per_pair,
            "run_sw": 2 * per_pair, "run_hw": 2 * per_pair,
        }

    def test_table3_and_fig13_read_the_store(self, monkeypatch):
        fresh13 = fig13_failure(preset="quick", workloads=["Track"])
        fresh3 = figures.table3_traffic(preset="quick", workloads=["Track"])
        calls = collections.Counter()
        _count_driver_calls(monkeypatch, calls)
        runs = {}
        assert fig13_failure(preset="quick", workloads=["Track"], runs=runs) == fresh13
        assert figures.table3_traffic(preset="quick", workloads=["Track"], runs=runs) == fresh3
        # Track fails on its dependent execution 3, unmodified, and Table
        # 3 picks that execution too: they share its Serial run.
        assert ("Track", "quick", 2026, 3, Scenario.SERIAL, 1) in runs
        assert calls == {"run_serial": 1, "run_sw": 2, "run_hw": 2}
        calls.clear()
        assert fig13_failure(preset="quick", workloads=["Track"], runs=runs) == fresh13
        assert figures.table3_traffic(preset="quick", workloads=["Track"], runs=runs) == fresh3
        assert not calls

    def test_fig13_builds_one_loop_per_workload(self, monkeypatch):
        """Each forced-failure instance is built from exactly one
        execution; Track's is its dependent one, not execution 0."""
        built = []
        for name, cls in figures.WORKLOAD_CLASSES.items():
            def counting(self, index, rng, _name=name, _build=cls.build_execution):
                built.append((_name, index))
                return _build(self, index, rng)

            monkeypatch.setattr(cls, "build_execution", counting)
        fig13_failure(preset="quick")
        assert built == [("Ocean", 0), ("P3m", 0), ("Adm", 0), ("Track", 3)]

    def test_all_json_simulates_each_distinct_run_once(self, monkeypatch, capsys):
        """Every driver call of ``all --json`` is a distinct run by
        content (the run ledger's key; Serial at its uniprocessor)."""
        from repro.experiments.cli import main
        from repro.obs.ledger import ledger_key
        from repro.runtime import driver

        keys = []
        for module in (scenarios, figures, driver):
            for name in DRIVERS:
                if not hasattr(module, name):
                    continue
                scenario = Scenario[name[len("run_"):].upper()]

                def keyed(loop, params, config=None, *args, _fn=getattr(module, name),
                          _scenario=scenario, **kwargs):
                    machine = params
                    if _scenario is Scenario.SERIAL:
                        machine = driver._serial_params(params)
                    keys.append(ledger_key(_scenario, loop, machine, config))
                    return _fn(loop, params, config, *args, **kwargs)

                monkeypatch.setattr(module, name, keyed)
        assert main(["all", "--json", "--preset", "quick"]) == 0
        capsys.readouterr()
        repeats = len(keys) - len(set(keys))
        assert repeats == 0
        # Fig 11's 32 runs, Fig 13's 12, Fig 14's 8-processor Ideal/SW/HW
        # (18) and Table 3's Track execution 3 under HW and SW (2).
        assert len(keys) == 64


class TestTables:
    def test_table1_covers_all_workloads(self):
        rows = table1_workloads(preset="quick")
        assert [r.name for r in rows] == ["Ocean", "P3m", "Adm", "Track"]
        assert all(r.measured_accesses > 0 for r in rows)

    def test_table2_hw_always_cheaper(self):
        for row in table2_state():
            assert row.hw_bits < row.sw_bits


class TestRendering:
    def test_all_renderers_produce_text(self, fig11_rows, fig13_rows):
        outputs = [
            render_fig11(fig11_rows),
            render_fig12(fig12_breakdown(preset="quick", workloads=["Adm"])),
            render_fig13(fig13_rows),
            render_fig14(fig14_scalability(preset="quick", workloads=["Adm"])),
            render_table1(table1_workloads(preset="quick")),
            render_table2(table2_state()),
        ]
        for text in outputs:
            assert isinstance(text, str) and len(text.splitlines()) > 3

    def test_presets_defined_for_all_workloads(self):
        for preset, table in PRESETS.items():
            assert set(table) == {"Ocean", "P3m", "Adm", "Track"}, preset

    def test_make_workload_applies_scale(self):
        quick = make_workload("Ocean", "quick")
        full = make_workload("Ocean", "full")
        assert quick.scale < full.scale


class TestCLI:
    def test_cli_runs_table2(self, capsys):
        from repro.experiments.cli import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_cli_rejects_unknown(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize(
        "module, argv, flag, minimum",
        [
            ("experiments", ["diffsweep", "--diff-count", "-5"],
             "--diff-count", 1),
            ("experiments", ["diffsweep", "--diff-count", "1",
                             "--jobs", "-2"], "--jobs", 0),
            ("experiments", ["bench", "--bench-reps", "0"],
             "--bench-reps", 1),
            ("experiments", ["doctor", "--doctor-processors", "0"],
             "--doctor-processors", 1),
            ("diffcheck", ["--count", "0"], "--count", 1),
            ("diffcheck", ["--count", "1", "--jobs", "-1"], "--jobs", 0),
            ("experiments", ["ledger", "list", "--limit", "-1"],
             "--limit", 0),
        ],
        ids=["diff-count", "jobs", "bench-reps", "doctor-processors",
             "diffcheck-count", "diffcheck-jobs", "ledger-limit"],
    )
    def test_cli_rejects_out_of_range_counts(
        self, capsys, module, argv, flag, minimum
    ):
        # A count below its floor is a usage error (exit 2) found while
        # parsing, not an empty sweep reported as conforming or a
        # traceback after the warm-up runs.
        if module == "experiments":
            from repro.experiments.cli import main
        else:
            from repro.testing.diffcheck import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least {minimum}" in (
            capsys.readouterr().err
        )

    def test_cli_rejects_empty_sweep_values(self, capsys):
        # Naming no value would run an empty sweep and exit 0.
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--workload", "Track", "--sweep-values", ","])
        assert exc.value.code == 2
        assert "argument --sweep-values: must name at least one value" in (
            capsys.readouterr().err
        )

    def test_cli_doctor_smoke(self, capsys):
        from repro.experiments.cli import main

        assert main(["doctor", "--doctor-processors", "2"]) == 0
        out = capsys.readouterr().out
        assert "doctor: OK" in out
        assert "forensic report" in out  # at least one abort was explained

    def test_cli_bench_smoke(self, tmp_path, capsys):
        import json

        from repro.experiments.cli import main

        out_path = tmp_path / "bench.json"
        assert main(["bench", "--bench-out", str(out_path),
                     "--bench-reps", "1"]) == 0
        doc = json.loads(out_path.read_text())
        assert set(doc) == {
            "benchmark", "workload", "reps", "engines", "provenance",
        }
        assert doc["benchmark"] == "simulator-throughput"
        scalar = doc["engines"]["scalar"]
        assert "overhead_pct" in scalar["telemetry"]
        assert "overhead_pct" in scalar["monitors"]
        assert doc["provenance"]["config_hash"]
        # The matrix covers every instrumentation level, plus the
        # bare-only FAIL-heavy and dynamic scenario rows.
        scenario_rows = {"scalar-fail", "scalar-dynamic"}
        assert set(doc["engines"]) == {"scalar"} | scenario_rows
        for engine, levels in doc["engines"].items():
            if engine in scenario_rows:
                assert set(levels) == {"bare"}
            else:
                assert set(levels) == {"bare", "telemetry", "monitors"}
            assert levels["bare"]["iters_per_s"] > 0
        out = capsys.readouterr().out
        assert "wrote" in out and "loop iterations/s" in out
        assert "vector" not in out
        assert "fail" in out and "dynamic" in out

    def test_cli_sweep_smoke(self, capsys):
        from repro.experiments.cli import main

        assert main(["sweep", "--workload", "Track",
                     "--sweep-field", "num_processors",
                     "--sweep-values", "2,4", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "sweep: num_processors" in out
        assert "speedup" in out

    def test_cli_diffsweep_smoke(self, capsys):
        from repro.experiments.cli import main

        assert main(["diffsweep", "--diff-count", "5", "--jobs", "2"]) == 0
        assert "5/5 cases conform" in capsys.readouterr().out

    def test_cli_all_json_runs_every_row_producer(self, monkeypatch, capsys):
        # Stubbed producers keep this fast; "all --json" must select the
        # experiments with a row format (not verdict) and exit 0.
        import repro.experiments.cli as cli

        called = []
        for name in list(cli.ROW_PRODUCERS):
            monkeypatch.setitem(
                cli.ROW_PRODUCERS, name,
                lambda args, name=name: called.append(name) or [],
            )
        assert cli.main(["all", "--json"]) == 0
        assert called == sorted(cli.ROW_PRODUCERS)
        assert capsys.readouterr().out.split() == ["[]"] * len(called)

    def test_cli_json_refused_before_any_work(self, monkeypatch):
        import repro.experiments.cli as cli

        called = []
        monkeypatch.setitem(
            cli.ROW_PRODUCERS, "fig11", lambda args: called.append("fig11") or []
        )
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig11", "verdict", "--json"])
        assert exc.value.code == 2
        assert called == []

    def test_cli_sweep_diffsweep_not_in_all(self):
        # "all" regenerates tables/figures only; the parameterized
        # exploration verbs must stay explicit-only.
        import repro.experiments.cli as cli

        assert {"sweep", "diffsweep", "bench", "trace", "doctor"} <= set(
            cli.EXPERIMENTS
        )

    @staticmethod
    def _span_cats(path) -> set:
        import json

        doc = json.loads(path.read_text())
        return {e["cat"] for e in doc["traceEvents"]}

    def test_cli_profile_smoke(self, tmp_path, capsys):
        # --profile-out on a reproduction verb: one in-process profiler
        # records run -> phase -> epoch spans (no engine-tier level)
        # and changes no row of the output.
        from repro.experiments.cli import main

        out_path = tmp_path / "spans.json"
        assert main(["verdict", "--preset", "quick"]) == 0
        plain = capsys.readouterr()
        assert main(["verdict", "--preset", "quick",
                     "--profile-out", str(out_path)]) == 0
        profiled = capsys.readouterr()
        rows = lambda out: [l for l in out.splitlines()
                            if not l.startswith("[verdict:")]
        assert rows(profiled.out) == rows(plain.out)
        cats = self._span_cats(out_path)
        assert {"cli", "verb", "run", "phase", "epoch"} <= cats
        assert "tier" not in cats
        assert "wrote" in profiled.err and "phase_breakdown_s" in profiled.err

    def test_cli_json_profile_out_keeps_stdout_rows_only(self, tmp_path, capsys):
        import json

        from repro.experiments.cli import main

        out_path = tmp_path / "f13.json"
        assert main(["fig13", "--json", "--profile-out", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)
        assert "run" in self._span_cats(out_path)
        assert "run_wall_s" in captured.err

    def test_cli_sweep_profile_out(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out_path = tmp_path / "sweep-prof.json"
        assert main(["sweep", "--workload", "Track",
                     "--sweep-field", "num_processors",
                     "--sweep-values", "2,4",
                     "--profile-out", str(out_path)]) == 0
        assert {"verb", "run", "phase"} <= self._span_cats(out_path)
        assert "sweep: num_processors" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["sweep", "diffsweep"])
    def test_cli_profile_out_refuses_jobs(self, tmp_path, capsys, verb):
        # Worker processes would record spans this process never sees.
        from repro.experiments.cli import main

        out_path = tmp_path / "spans.json"
        with pytest.raises(SystemExit) as exc:
            main([verb, "--jobs", "2", "--profile-out", str(out_path)])
        assert exc.value.code == 2
        assert "argument --profile-out: needs --jobs 1" in (
            capsys.readouterr().err
        )
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--sweep-field", "bogus"],
             "argument --sweep-field: MachineParams has no field 'bogus'"),
            (["--sweep-field", "contention.bogus"],
             "argument --sweep-field: ContentionModel has no field 'bogus'"),
            (["--sweep-values", "4,0"],
             "argument --sweep-values: num_processors=0 is rejected"),
            (["--sweep-field", "contention", "--sweep-values", "5"],
             "argument --sweep-values: contention=5 is rejected: "
             "contention takes a ContentionModel, not int"),
        ],
        ids=["field", "nested-field", "value", "nested-model-value"],
    )
    def test_cli_sweep_bad_point_is_a_usage_error(
        self, monkeypatch, capsys, argv, message
    ):
        # Every point's params are built before any run.
        import repro.experiments.sweeps as sweeps
        from repro.experiments.cli import main

        monkeypatch.setattr(
            sweeps, "sweep_machine",
            lambda *a, **k: pytest.fail("a sweep ran with a bad point"),
        )
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--workload", "Track"] + argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestCharts:
    def test_chart_fig11(self, fig11_rows):
        from repro.experiments.charts import chart_fig11

        text = chart_fig11(fig11_rows)
        assert "Ideal" in text and "#" in text
        # One bar block per workload.
        assert text.count("procs)") == len(fig11_rows)

    def test_chart_fig12(self):
        from repro.experiments.charts import chart_fig12
        from repro.experiments.figures import fig12_breakdown

        rows = fig12_breakdown(preset="quick", workloads=["Adm"])
        text = chart_fig12(rows)
        assert "Serial1" in text and "|" in text

    def test_chart_fig14(self):
        from repro.experiments.charts import chart_fig14
        from repro.experiments.figures import fig14_scalability

        rows = fig14_scalability(preset="quick", workloads=["Adm"])
        text = chart_fig14(rows)
        assert "@ 8 processors" in text and "@ 16 processors" in text

    def test_hbar_clamps(self):
        from repro.experiments.charts import hbar

        assert hbar(100.0, 1.0, max_width=10) == "#" * 10
        assert hbar(0.0, 1.0) == ""

    def test_stacked_bar_chars(self):
        from repro.experiments.charts import stacked_bar

        bar = stacked_bar((0.2, 0.1, 0.3), 0.1)
        assert bar == "##+..."

    def test_cli_chart_flag(self, capsys):
        from repro.experiments.cli import main

        assert main(["table2", "--chart"]) == 0


class TestClaims:
    @pytest.fixture(scope="class")
    def evaluation(self):
        from repro.experiments.claims import evaluate_claims

        calls = collections.Counter()
        with pytest.MonkeyPatch.context() as mp:
            _count_driver_calls(mp, calls)
            results = evaluate_claims(preset="quick")
        return results, calls

    @pytest.fixture(scope="class")
    def claim_results(self, evaluation):
        return evaluation[0]

    def test_one_evaluation_simulates_each_workload_once(self, evaluation):
        # Quick preset: Fig 11 runs 8 loops (Ocean 2, P3m 1, Adm 2,
        # Track 3) under all four scenarios, Fig 13 one forced-failure
        # loop per workload under Serial/SW/HW, and Fig 14 only its
        # 8-processor P3m/Adm/Track loops (6) under Ideal/SW/HW; Fig 12,
        # Fig 14's 16-processor bars and every 8-processor Serial reuse
        # Fig 11's runs.
        _, calls = evaluation
        assert calls == {
            "run_serial": 12, "run_ideal": 14, "run_sw": 18, "run_hw": 18,
        }
        assert sum(calls.values()) == 62

    def test_all_claims_reproduce_at_quick_preset(self, claim_results):
        failed = [r.claim_id for r in claim_results if not r.passed]
        assert not failed, failed

    def test_claim_ids_unique(self, claim_results):
        ids = [r.claim_id for r in claim_results]
        assert len(set(ids)) == len(ids) == 7

    def test_render_verdict(self, claim_results):
        from repro.experiments.claims import render_verdict

        text = render_verdict(claim_results)
        assert "7/7 claims reproduced" in text

    def test_cli_verdict(self, capsys):
        from repro.experiments.cli import main

        assert main(["verdict"]) == 0
        assert "claims reproduced" in capsys.readouterr().out

    def test_json_rejected_for_verdict(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["verdict", "--json"])
