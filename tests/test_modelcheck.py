"""Gating model-checking tests (tier-1 sizes: 2 processors, 2 elements).

Every reachable terminal state of each protocol model is cross-checked
four ways (serial predicate, monitor replay, dependence oracle, scalar
engine); these suites assert zero divergences at the smallest
configurations, plus the machinery itself: canonicalization, witness
traces, program minimization, fault injection (a seeded protocol bug
must be caught with a minimized reproducer) and the CLI verb.

The deeper enumerations (3 processors, 4 elements) live in
``test_modelcheck_deep.py`` under the ``slow`` marker.
"""

from __future__ import annotations

import json

import pytest

from repro.lrpd.analysis import serial_access_verdict
from repro.modelcheck import (
    ModelConfig,
    ProtocolModel,
    check_config,
    explore,
)
from repro.modelcheck.cli import main as modelcheck_main
from repro.modelcheck.crosscheck import program_rows
from repro.modelcheck.reproduce import minimize_programs
from repro.runtime import RunConfig, SchedulePolicy, ScheduleSpec, VirtualMode, run_hw
from repro.types import ProtocolKind


def _check(config: ModelConfig, **kw):
    kw.setdefault("engine_cap", 25)
    report = check_config(config, **kw)
    assert not report.truncated
    return report


class TestTier1Exhaustive:
    """Zero divergences across every reachable terminal state."""

    def test_nonpriv_cold(self):
        report = _check(ModelConfig(ProtocolKind.NONPRIV, procs=2, elements=2))
        assert report.ok, [d.to_text() for d in report.divergences]
        assert report.done > 0 and report.failed > 0
        assert report.engine_runs > 0
        assert report.symmetry

    def test_nonpriv_warm(self):
        """The warm root exercises the First_update race paths the cold
        root structurally cannot reach."""
        report = _check(
            ModelConfig(ProtocolKind.NONPRIV, procs=2, elements=2, warm=True)
        )
        assert report.ok, [d.to_text() for d in report.divergences]
        assert not report.symmetry  # warm segments distinguish processors

    def test_priv(self):
        report = _check(ModelConfig(ProtocolKind.PRIV, procs=2, elements=2))
        assert report.ok, [d.to_text() for d in report.divergences]
        assert report.done > 0 and report.failed > 0

    def test_priv_round_robin_timestamps(self):
        """Time-stamped PRIV: round-robin numbering, epoch barriers."""
        config = ModelConfig(
            ProtocolKind.PRIV, procs=2, elements=2, iters=2, ops_per_iter=1,
            timestamp_bits=2,
        )
        report = _check(config)
        assert report.ok, [d.to_text() for d in report.divergences]
        result = explore(config)
        assert any(
            n.action and n.action.startswith("epoch-sync")
            for n in result.nodes.values()
        )

    def test_priv_simple(self):
        report = _check(ModelConfig(ProtocolKind.PRIV_SIMPLE, procs=2, elements=2))
        assert report.ok, [d.to_text() for d in report.divergences]
        assert report.done > 0 and report.failed > 0
        assert report.symmetry

    def test_priv_single_bit_timestamps(self):
        """capacity-1 epochs: a barrier between every pair of effective
        iterations.  This config's engine cross-check originally caught
        a real deadlock (an aborted processor replaying a stale epoch
        BarrierOp into the restore phase)."""
        report = _check(
            ModelConfig(
                ProtocolKind.PRIV, procs=2, elements=2, iters=3,
                ops_per_iter=1, timestamp_bits=1,
            ),
            engine_cap=40,
        )
        assert report.ok, [d.to_text() for d in report.divergences]


class TestModelStructure:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(ProtocolKind.NONPRIV, timestamp_bits=2)
        with pytest.raises(ValueError):
            ModelConfig(ProtocolKind.PRIV, warm=True)
        with pytest.raises(ValueError):
            ModelConfig(ProtocolKind.PLAIN)

    def test_symmetry_collapses_permuted_states(self):
        """In free-program mode a processor permutation must map to the
        same canonical key; fixed (asymmetric) programs that are
        permutations of each other must still explore isomorphic
        terminal sets."""
        model = ProtocolModel(
            ModelConfig(ProtocolKind.PRIV_SIMPLE, procs=2, elements=2)
        )
        root = model.initial_state()
        # P0 reads element 0 vs P1 reads element 0: same canonical key.
        by_action = {}
        for edge in model.successors(root):
            by_action[edge.action] = model.canon(edge.state)
        assert by_action["P0:r0@1"] == by_action["P1:r0@1"]
        assert by_action["P0:r0@1"] != by_action["P0:w0@1"]

        prog_a = (((0, 0), (1, 1)),)  # one iteration: R0 W1
        prog_b = (((1, 0),),)         # one iteration: W0
        cfg_ab = ModelConfig(
            ProtocolKind.PRIV_SIMPLE, procs=2, elements=2,
            programs=(prog_a, prog_b),
        )
        cfg_ba = ModelConfig(
            ProtocolKind.PRIV_SIMPLE, procs=2, elements=2,
            programs=(prog_b, prog_a),
        )
        res_ab, res_ba = explore(cfg_ab), explore(cfg_ba)
        assert not res_ab.symmetry and not res_ba.symmetry

        def verdicts(result):
            from repro.modelcheck.model import DONE
            return sorted(
                result.nodes[k].state.status == DONE for k in result.terminals
            )

        assert verdicts(res_ab) == verdicts(res_ba)

    def test_witness_and_actions_reconstruct_a_path(self):
        config = ModelConfig(
            ProtocolKind.PRIV, procs=2, elements=2,
            programs=((((0, 0),),), (((1, 0),),)),  # P0: R0; P1: W0
        )
        result = explore(config)
        assert result.terminals
        for key in result.terminals:
            actions = result.actions(key)
            assert actions  # a terminal is never the root here
            events = result.witness(key)
            assert events
            # event times follow the BFS depth: non-decreasing
            times = [e.time for e in events]
            assert times == sorted(times)

    def test_program_of_failed_state_is_executed_prefix(self):
        config = ModelConfig(ProtocolKind.PRIV_SIMPLE, procs=2, elements=2)
        result = explore(config)
        from repro.modelcheck.model import FAILED
        failed = [
            k for k in result.terminals
            if result.nodes[k].state.status == FAILED
        ]
        assert failed
        for key in failed[:20]:
            programs = result.program_of(key)
            rows = program_rows(config, programs)
            assert not serial_access_verdict(config.protocol, rows)


class TestMinimizer:
    def test_minimize_programs_reaches_a_fixed_point(self):
        # Diverges iff some write to element 0 and some read of element
        # 0 both survive; everything else is noise the minimizer must
        # strip while keeping the iteration structure.
        programs = (
            (((0, 0), (1, 1), (1, 0)), ((0, 1),)),
            (((0, 0), (1, 1)),),
        )

        def diverges(progs):
            flat = [a for body in progs for it in body for a in it]
            return (1, 0) in flat and (0, 0) in flat

        minimized = minimize_programs(programs, diverges)
        flat = [a for body in minimized for it in body for a in it]
        assert sorted(flat) == [(0, 0), (1, 0)]
        # iteration structure preserved: still 2 iterations for P0
        assert len(minimized[0]) == 2 and len(minimized[1]) == 1


class TestFaultInjection:
    """A seeded protocol bug must be caught and minimized."""

    def test_disabled_guards_produce_minimized_divergence(self):
        config = ModelConfig(
            ProtocolKind.PRIV_SIMPLE, procs=2, elements=2,
            faults=frozenset({"ps-shared-read", "ps-shared-write"}),
        )
        report = check_config(config, engine_cap=5, max_divergences=1)
        assert not report.ok
        div = report.divergences[0]
        assert div.kind == "facts"
        assert div.expected == "fail" and div.observed == "pass"
        # minimized to the theoretical minimum: one cross-processor
        # read-first / write pair — and proven to re-diverge
        assert div.minimized_reproduces is True
        assert sum(len(it) for body in div.minimized for it in body) == 2
        # the standalone reproducer config replays the divergence
        repro_cfg = div.reproducer_config()
        assert repro_cfg.programs == div.minimized
        re_report = check_config(repro_cfg, engine_cap=5, minimize=False)
        assert not re_report.ok

    def test_report_renders_both_ways(self):
        config = ModelConfig(
            ProtocolKind.PRIV_SIMPLE, procs=2, elements=2,
            faults=frozenset({"ps-shared-read", "ps-shared-write"}),
        )
        report = check_config(
            config, engine=False, max_divergences=1, minimize=False
        )
        div = report.divergences[0]
        text = div.to_text()
        assert "modelcheck divergence" in text and "interleaving" in text
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ok"] is False
        assert doc["divergences"][0]["kind"] == "facts"


class TestCLI:
    def test_cli_clean_run_writes_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = modelcheck_main([
            "--protocol", "priv", "--procs", "2", "--elements", "2",
            "--engine-cap", "5", "--json-out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert doc["reports"][0]["protocol"] == "priv"
        assert doc["reports"][0]["states"] > 0
        assert len(doc["fingerprint"]) == 64
        assert "OK" in capsys.readouterr().out

    def test_cli_fingerprint_ignores_timing(self, tmp_path, monkeypatch):
        # A check this small can time equal twice by chance: a stub
        # clock makes the second run report a different elapsed time.
        import types
        from repro.modelcheck import cli

        docs = []
        for step, name in ((1.0, "a.json"), (2.5, "b.json")):
            ticks = iter(range(100))
            monkeypatch.setattr(cli, "time", types.SimpleNamespace(
                perf_counter=lambda: step * next(ticks)
            ))
            out = tmp_path / name
            assert modelcheck_main([
                "--protocol", "nonpriv", "--procs", "2", "--elements", "1",
                "--engine-cap", "5", "--json-out", str(out),
            ]) == 0
            docs.append(json.loads(out.read_text()))
        assert [doc["reports"][0]["elapsed_seconds"] for doc in docs] == [1.0, 2.5]
        assert docs[0]["fingerprint"] == docs[1]["fingerprint"]

    def test_cli_seeded_fault_fails_nonzero(self, capsys):
        rc = modelcheck_main([
            "--protocol", "priv-simple", "--procs", "2", "--elements", "2",
            "--fault", "ps-shared-read", "--fault", "ps-shared-write",
            "--no-engine", "--no-minimize",
        ])
        assert rc > 0
        assert "DIVERGED" in capsys.readouterr().out


class TestSerialVerdictVsEngine:
    """Satellite: pin the iteration-serial predicate against the real
    scalar engine on *dynamic* schedules (the realized assignment
    changes with timing, which the predicate must absorb)."""

    ELEMS = 4

    def _loop(self, trace, protocol):
        from repro.trace import ArraySpec, Loop, read, write
        iters = [
            [write("A", e) if w else read("A", e) for (w, e) in ops]
            for ops in trace
        ]
        return Loop("dyn", [ArraySpec("A", self.ELEMS, 8, protocol)], iters)

    def _rows(self, loop, assignment):
        rows = []
        for p, its in enumerate(assignment):
            for it in its:
                for op in loop.iterations[it - 1]:
                    rows.append(
                        (p, it, op.index, op.kind.name == "WRITE")
                    )
        return rows

    @pytest.mark.parametrize(
        "protocol",
        [ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE],
        ids=["priv", "priv-simple"],
    )
    def test_dynamic_schedule_matches_serial_predicate(self, protocol, seeded_rng):
        import dataclasses as dc
        from repro.params import CacheGeometry, small_test_params

        params = dc.replace(
            small_test_params(2),
            l1=CacheGeometry(1024, 8), l2=CacheGeometry(4096, 8),
        )
        config = RunConfig(
            schedule=ScheduleSpec(
                SchedulePolicy.DYNAMIC, 1, VirtualMode.ITERATION
            )
        )
        for _ in range(12):
            trace = [
                [(seeded_rng.random() < 0.5, seeded_rng.randrange(self.ELEMS))
                 for _ in range(seeded_rng.randint(0, 3))]
                for _ in range(seeded_rng.randint(2, 6))
            ]
            loop = self._loop(trace, protocol)
            result = run_hw(loop, params, config)
            assert result.assignment is not None
            verdict = serial_access_verdict(
                protocol, self._rows(loop, result.assignment)
            )
            assert result.passed == verdict, trace
