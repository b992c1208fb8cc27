"""Differential conformance suite: the scalar engine and the vector tier.

Sweeps seeded randomized cases through ``repro.testing.diffcheck``.
The scalar reference engine is checked against the independent
dependence oracle (a PASS must never hide a dependence the run's
protocol is meant to catch), and the vector tier is held to the
relaxed ``verdict`` signature (pass/fail, failure attribution,
detection cycle, assignment) against scalar over the same corpus.

Any mismatch raises ``DiffMismatch`` whose message embeds the failing
seed, engine and signature mode, and the one-line repro::

    python -m repro.testing.diffcheck --seed <N> --engine <E> --verbose
"""

from __future__ import annotations

import random

import pytest

from repro.obs import spans
from repro.obs.spans import SpanProfiler
from repro.runtime.driver import RunConfig, run_hw
from repro.runtime.schedule import (
    SchedulePolicy,
    cyclic_blocks,
    plan_static,
    virtual_of,
)
from repro.testing import diffcheck
from repro.testing.diffcheck import (
    DiffMismatch,
    build_case,
    check_seed,
    run_case,
    run_seeds,
    seed_verdict,
    signature_mode_of,
    verdict_signature,
)
from repro.trace.oracle import DependenceOracle
from repro.types import ProtocolKind


def _counter_total(prof: SpanProfiler, name: str) -> float:
    """Sum a counter over the root and every recorded span frame."""
    total = prof.counters.get(name, 0)
    for span in prof.spans:
        total += span.get("counters", {}).get(name, 0)
    return total

# 240 fixed seeds (the ISSUE floor is 200), swept in groups so a failure
# pinpoints its block while collection stays cheap.
GROUP = 10
GROUPS = 24


def _oracle_allows_pass(case, result) -> bool:
    """Whether the dependence oracle admits a PASS of ``case``'s
    protocol under the numbering the run actually used.

    The non-privatization test is processor-wise (an element must be
    read-only or touched by one processor), so iterations map to their
    realized processor.  The privatization tests compare virtual
    iteration numbers (§3.3), so iterations map to what
    :func:`virtual_of` gave them: blocks come from the static plan or,
    for dynamic self-scheduling, from the queue's blocks in iteration
    order, with the processor that actually ran each one.
    """
    loop, spec = case.loop, case.schedule
    proc_of = {it: p for p, its in enumerate(result.assignment) for it in its}
    if case.protocol is ProtocolKind.NONPRIV:
        imap = {it: p + 1 for it, p in proc_of.items()}
        return DependenceOracle(loop, imap).analyze().is_doall
    if spec.policy is SchedulePolicy.DYNAMIC:
        blocks = cyclic_blocks(loop.num_iterations, spec.chunk_iterations)
    else:
        blocks = [
            block
            for per_proc in plan_static(
                spec, loop.num_iterations, case.params.num_processors
            )
            for block in per_proc
        ]
    imap = {
        it: virtual_of(block, it, spec.virtual_mode, proc_of[it])
        for block in blocks
        for it in block.iterations()
    }
    report = DependenceOracle(loop, imap).analyze()
    if case.protocol is ProtocolKind.PRIV:
        return report.is_priv_rico
    return report.is_privatizable


@pytest.mark.parametrize("base", [g * GROUP for g in range(GROUPS)])
def test_conformance_sweep(base):
    """The reference engine against the independent oracle: every
    scalar PASS in the corpus must be one the dependence oracle admits
    (FAILs may be conservative: per-line bits, time-stamp epochs)."""
    for seed in range(base, base + GROUP):
        case = build_case(seed)
        result = run_hw(case.loop, case.params, RunConfig(
            engine="scalar",
            schedule=case.schedule,
            timestamp_bits=case.timestamp_bits,
            per_line_bits=case.per_line_bits,
        ))
        if result.passed:
            assert _oracle_allows_pass(case, result), (
                f"scalar PASS hides a dependence: {case.describe()}"
            )


def test_randomized_seed_sweep(seeded_rng: random.Random):
    """Property-style extension of the fixed vector sweep: fresh seeds
    drawn from the shared deterministic fixture, so this block explores
    seeds outside 0..239 while still replaying exactly on failure."""
    for _ in range(20):
        check_seed(seeded_rng.randrange(1_000_000))


def test_case_generation_is_deterministic():
    a = build_case(12345)
    b = build_case(12345)
    assert a.describe() == b.describe()
    assert a.loop.iterations == b.loop.iterations


def test_sweep_covers_the_interesting_axes():
    """The fixed 240-seed sweep must actually exercise every protocol,
    both schedule policies, injected dependences, and the timestamp /
    per-line variants — otherwise the conformance guarantee is hollow."""
    cases = [build_case(s) for s in range(GROUPS * GROUP)]
    protocols = {c.protocol for c in cases}
    assert protocols == {
        ProtocolKind.NONPRIV,
        ProtocolKind.PRIV,
        ProtocolKind.PRIV_SIMPLE,
    }
    assert {c.schedule.policy.value for c in cases} == {"dynamic", "static-chunk"}
    assert any(c.injected_dependence for c in cases)
    assert any(not c.injected_dependence for c in cases)
    assert any(c.timestamp_bits is not None for c in cases)
    assert any(c.per_line_bits for c in cases)


def test_sweep_exercises_both_verdicts():
    """Some seeds must PASS and some must FAIL, so the differential
    comparison covers commit *and* abort paths end to end."""
    verdicts = set()
    for seed in range(60):
        scalar_sig, _ = run_case(build_case(seed))
        verdicts.add(scalar_sig["passed"])
        if verdicts == {True, False}:
            return
    raise AssertionError(f"only saw verdicts {verdicts} in 60 seeds")


_REAL_RUN_CASE = diffcheck.run_case


def _shift_detection(case, engine="vector"):
    """``run_case`` with the candidate's detection cycle corrupted."""
    scalar_sig, other_sig = _REAL_RUN_CASE(case, engine)
    other_sig = dict(other_sig)
    other_sig["detection_cycle"] = (scalar_sig["detection_cycle"] or 0) + 1
    return scalar_sig, other_sig


def test_mismatch_message_carries_the_repro_line(monkeypatch):
    """A divergence must print the failing seed for one-line repro."""
    monkeypatch.setattr(diffcheck, "run_case", _shift_detection)
    with pytest.raises(DiffMismatch) as excinfo:
        diffcheck.check_seed(777)
    message = str(excinfo.value)
    assert "python -m repro.testing.diffcheck --seed 777 --engine vector" in message
    assert "signature mode: verdict" in message
    assert "detection_cycle" in message


def test_parallel_seed_sweep_matches_serial():
    """The pooled sweep (jobs=4) must return verdicts bit-identical to
    the serial sweep of the same seeds, in seed order (ISSUE 5)."""
    seeds = list(range(12))
    serial = run_seeds(seeds, jobs=1)
    pooled = run_seeds(seeds, jobs=4)
    assert serial == pooled
    assert [v["seed"] for v in pooled] == seeds


def test_seed_verdict_preserves_the_repro_line(monkeypatch):
    """A mismatching seed's verdict must carry the one-line repro, so
    parallel sweeps lose nothing over the serial FAIL output."""
    monkeypatch.setattr(diffcheck, "run_case", _shift_detection)
    verdict = seed_verdict(42)
    assert not verdict["conforms"]
    assert "python -m repro.testing.diffcheck --seed 42" in verdict["message"]


def test_diffcheck_cli_jobs_and_verdicts_out(tmp_path, capsys):
    import json

    out = tmp_path / "verdicts.json"
    code = diffcheck.main(
        ["--count", "4", "--jobs", "2", "--verdicts-out", str(out)]
    )
    assert code == 0
    assert "4/4 cases conform" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["harness"] == "diffcheck"
    assert set(doc["verdicts"]) == {"0", "1", "2", "3"}
    for verdict in doc["verdicts"].values():
        assert verdict["conforms"] is True
        assert isinstance(verdict["passed"], bool)


def test_signature_includes_directory_state():
    """The full conformance signature must capture protocol-table and
    coherence-directory end-state, not just the verdict."""
    scalar_sig, vector_sig = run_case(build_case(3))
    assert "coherence_dirs" in scalar_sig and scalar_sig["coherence_dirs"]
    tables = (
        scalar_sig["nonpriv_tables"]
        or scalar_sig["priv_tables"]
        or scalar_sig["priv_simple_tables"]
    )
    assert tables, "no element-state table captured"
    assert verdict_signature(scalar_sig) == verdict_signature(vector_sig)


# ----------------------------------------------------------------------
# Vector conformance over the fixed corpus
# ----------------------------------------------------------------------
class TestThreeWayConformance:
    """The vector tier's contract over the same fixed 240-seed corpus:
    vector agrees with scalar on the relaxed verdict signature —
    pass/fail, failure attribution, detection cycle, iteration
    assignment — while scalar reproduces itself on the full one."""

    @pytest.mark.parametrize("base", [g * GROUP for g in range(GROUPS)])
    def test_vector_verdict_sweep(self, base):
        for seed in range(base, base + GROUP):
            check_seed(seed, engine="vector")

    def test_three_way_agreement(self):
        """Two scalar runs and one vector run of each case: scalar is
        deterministic on the full signature, vector agrees with it on
        the verdict signature."""
        for seed in (0, 3, 7, 11, 19):
            case = build_case(seed)
            scalar_sig, _ = run_case(case, engine="vector")
            scalar_again, vector_sig = run_case(case, engine="vector")
            assert scalar_sig == scalar_again
            assert verdict_signature(vector_sig) == verdict_signature(scalar_sig)

    def test_signature_modes(self):
        assert signature_mode_of("scalar") == "full"
        assert signature_mode_of("vector") == "verdict"

    def test_verdict_signature_is_a_strict_projection(self):
        scalar_sig, _ = run_case(build_case(5))
        relaxed = verdict_signature(scalar_sig)
        assert set(relaxed) == {
            "passed", "failure", "detection_cycle", "assignment"
        }
        assert "wall" in scalar_sig and "wall" not in relaxed

    def test_vector_mismatch_names_engine_and_mode(self, monkeypatch):
        real_run_case = diffcheck.run_case

        def corrupted(case, engine="vector"):
            scalar_sig, other_sig = real_run_case(case, engine)
            other_sig = dict(other_sig)
            other_sig["passed"] = not other_sig["passed"]
            return scalar_sig, other_sig

        monkeypatch.setattr(diffcheck, "run_case", corrupted)
        with pytest.raises(DiffMismatch) as excinfo:
            diffcheck.check_seed(9, engine="vector")
        message = str(excinfo.value)
        assert "--seed 9 --engine vector" in message
        assert "signature mode: verdict" in message


# ----------------------------------------------------------------------
# The vector fast path: static runs decided natively, dynamic delegated
# ----------------------------------------------------------------------
class TestVectorFastPathCoverage:
    """The vector tier must *decide* — not delegate — every
    static-schedule corpus case, PASS and FAIL alike, and must hand
    every dynamic-schedule case to scalar exactly once: the emergent
    grab order is known only to the op-by-op engine.  The delegate spans
    prove which path ran."""

    GROUP = 30

    def _run(self, case):
        """Check one case's verdict conformance; return the reasons of
        its delegations and whether scalar passed."""
        prof = SpanProfiler()
        spans.install(prof)
        try:
            scalar_sig, vector_sig = run_case(case, engine="vector")
        finally:
            spans.uninstall()
        assert verdict_signature(scalar_sig) == verdict_signature(
            vector_sig
        ), case.describe()
        reasons = [
            s["args"]["reason"] for s in prof.spans
            if s["name"] == "vector.delegate"
        ]
        assert _counter_total(prof, "vector.delegations") == len(reasons)
        return reasons, scalar_sig["passed"]

    def _static_sweep(self, seeds):
        """Sweep the static-schedule baseline cases; return the FAILs."""
        fails = 0
        for seed in seeds:
            case = build_case(seed, "baseline")
            if case.schedule.policy is SchedulePolicy.DYNAMIC:
                continue  # the dynamic-nocontention sweep covers these
            reasons, passed = self._run(case)
            assert reasons == [], (
                f"vector tier delegated a static case: {case.describe()}"
            )
            fails += not passed
        return fails

    @pytest.mark.parametrize("base", [0, 60, 120, 180])
    def test_static_corpus_decided_natively(self, base):
        self._static_sweep(range(base, base + self.GROUP))

    @pytest.mark.parametrize("base", [0, 60, 120, 180])
    def test_dynamic_nocontention_corpus_delegates(self, base):
        for seed in range(base, base + self.GROUP):
            case = build_case(seed, "dynamic-nocontention")
            reasons, _ = self._run(case)
            assert reasons == ["dynamic-schedule"], case.describe()

    def test_fail_cases_are_covered_without_delegation(self):
        """The zero-delegation guarantee must include FAIL verdicts, or
        the localized-FAIL claim is hollow."""
        assert self._static_sweep(range(0, 60)) > 0

    def test_dynamic_variant_reshapes_only_the_schedule(self):
        base = build_case(17, "baseline")
        dyn = build_case(17, "dynamic-nocontention")
        assert dyn.schedule.policy is SchedulePolicy.DYNAMIC
        assert dyn.timestamp_bits is None
        assert not dyn.params.contention.enabled
        assert dyn.loop.iterations == base.loop.iterations
        assert dyn.protocol == base.protocol
        assert dyn.params.num_processors == base.params.num_processors
        assert "variant=dynamic-nocontention" in dyn.describe()


# ----------------------------------------------------------------------
# The shared seeded-RNG fixture itself
# ----------------------------------------------------------------------
def test_seeded_rng_is_deterministic_per_test(request):
    import zlib

    rng = request.getfixturevalue("seeded_rng")
    expected_seed = zlib.crc32(request.node.nodeid.encode()) & 0x7FFFFFFF
    assert rng.random() == random.Random(expected_seed).random()
    recorded = dict(request.node.user_properties)
    assert recorded["seeded_rng_seed"] == expected_seed


def test_seeded_rng_env_override(request, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_SEED", "424242")
    rng = request.getfixturevalue("seeded_rng")
    assert rng.random() == random.Random(424242).random()
