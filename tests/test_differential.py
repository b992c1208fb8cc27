"""Differential conformance suite: the scalar engine and the kernel oracle.

Sweeps seeded randomized cases through ``repro.testing.diffcheck``.
The scalar reference engine is checked against the independent
dependence oracle (a PASS must never hide a dependence the run's
protocol is meant to catch), and against the kernel verdict oracle
(``repro.testing.vector_oracle``) over the same corpus: equal
verdicts, a FAIL element inside the oracle's failing set, and the
static assignment.

Any mismatch raises ``DiffMismatch`` whose message embeds the failing
seed and the one-line repro::

    python -m repro.testing.diffcheck --seed <N> --verbose
"""

from __future__ import annotations

import random

import pytest

from repro.obs import spans
from repro.obs.spans import SpanProfiler
from repro.runtime.driver import run_hw
from repro.runtime.schedule import (
    SchedulePolicy,
    cyclic_blocks,
    plan_static,
    virtual_of,
)
from repro.testing import diffcheck, vector_oracle
from repro.testing.diffcheck import (
    DiffMismatch,
    build_case,
    case_config,
    check_seed,
    run_case,
    run_seeds,
    seed_verdict,
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
        result = run_hw(case.loop, case.params, case_config(case))
        if result.passed:
            assert _oracle_allows_pass(case, result), (
                f"scalar PASS hides a dependence: {case.describe()}"
            )


def test_randomized_seed_sweep(seeded_rng: random.Random):
    """Property-style extension of the fixed oracle sweep: fresh seeds
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


def _shift_assignment(case):
    """``run_case`` with scalar's realized assignment corrupted."""
    scalar_sig, failing = _REAL_RUN_CASE(case)
    scalar_sig = dict(scalar_sig)
    scalar_sig["assignment"] = list(reversed(scalar_sig["assignment"]))
    return scalar_sig, failing


def _first_static_seed(passed: bool, start: int = 0) -> int:
    """The first baseline seed on a static schedule with this verdict."""
    for seed in range(start, 240):
        case = build_case(seed)
        if case.schedule.policy is SchedulePolicy.DYNAMIC:
            continue
        if run_case(case)[0]["passed"] is passed:
            return seed
    raise AssertionError(f"no static seed with passed={passed}")


def test_mismatch_message_carries_the_repro_line(monkeypatch):
    """A divergence must print the failing seed for one-line repro."""
    seed = _first_static_seed(True)
    monkeypatch.setattr(diffcheck, "run_case", _shift_assignment)
    with pytest.raises(DiffMismatch) as excinfo:
        diffcheck.check_seed(seed)
    message = str(excinfo.value)
    assert f"python -m repro.testing.diffcheck --seed {seed} --verbose" in message
    assert "scalar/kernel-oracle divergence" in message
    assert "assignment" in message


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
    seed = _first_static_seed(True, start=42)
    monkeypatch.setattr(diffcheck, "run_case", _shift_assignment)
    verdict = seed_verdict(seed)
    assert not verdict["conforms"]
    assert f"python -m repro.testing.diffcheck --seed {seed}" in verdict["message"]


def test_seed_verdict_rejects_other_engines():
    with pytest.raises(ValueError, match="'scalar'"):
        seed_verdict(0, "scalar")


# ----------------------------------------------------------------------
# Oracle disagreements are reported, never masked
# ----------------------------------------------------------------------
def _static_nonpriv_seed(passed: bool) -> int:
    for seed in range(240):
        case = build_case(seed)
        if (
            case.schedule.policy is not SchedulePolicy.DYNAMIC
            and case.protocol is ProtocolKind.NONPRIV
            and run_case(case)[0]["passed"] is passed
        ):
            return seed
    raise AssertionError(f"no static NONPRIV seed with passed={passed}")


def test_spurious_kernel_fail_on_a_scalar_pass_is_a_mismatch(monkeypatch):
    """The non-privatization kernel reports an element scalar never
    fails on: the scalar PASS must be reported against it."""
    seed = _static_nonpriv_seed(True)
    real = vector_oracle.nonpriv_failing
    monkeypatch.setattr(
        vector_oracle, "nonpriv_failing",
        lambda procs, elems, writes, length: real(procs, elems, writes, length)
        | {length - 1},
    )
    with pytest.raises(DiffMismatch, match="passed"):
        check_seed(seed)
    verdict = seed_verdict(seed)
    assert verdict["conforms"] is False
    assert verdict["passed"] is True


def test_scalar_fail_element_outside_the_kernel_set_is_a_mismatch(monkeypatch):
    """The kernel still FAILs but leaves out scalar's element: the
    attribution must be reported, not accepted."""
    seed = _static_nonpriv_seed(False)
    sig, failing = run_case(build_case(seed))
    element = sig["failure"][1]
    assert element[1] in failing[element[0]]
    real = vector_oracle.nonpriv_failing
    monkeypatch.setattr(
        vector_oracle, "nonpriv_failing",
        lambda procs, elems, writes, length: (
            real(procs, elems, writes, length) - {element[1]}
        ) or {element[1] + 1},
    )
    with pytest.raises(DiffMismatch, match="failure element"):
        check_seed(seed)
    verdict = seed_verdict(seed)
    assert verdict["conforms"] is False
    assert verdict["passed"] is False


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
    scalar_sig, failing = run_case(build_case(3))
    assert "coherence_dirs" in scalar_sig and scalar_sig["coherence_dirs"]
    tables = (
        scalar_sig["nonpriv_tables"]
        or scalar_sig["priv_tables"]
        or scalar_sig["priv_simple_tables"]
    )
    assert tables, "no element-state table captured"
    assert failing is None or not diffcheck.disagreements(
        build_case(3), scalar_sig, failing
    )


# ----------------------------------------------------------------------
# Kernel-oracle conformance over the fixed corpus
# ----------------------------------------------------------------------
class TestThreeWayConformance:
    """Scalar against the kernel oracle over the same fixed 240-seed
    corpus — equal verdicts, FAIL element inside the oracle's set,
    static assignment — while scalar reproduces itself on the full
    signature."""

    @pytest.mark.parametrize("base", [g * GROUP for g in range(GROUPS)])
    def test_vector_verdict_sweep(self, base):
        for seed in range(base, base + GROUP):
            check_seed(seed)

    def test_three_way_agreement(self):
        """Two scalar runs and one oracle pass of each case: scalar is
        deterministic on the full signature and agrees with the oracle."""
        for seed in (0, 3, 7, 11, 19):
            case = build_case(seed)
            scalar_sig, failing = run_case(case)
            scalar_again, failing_again = run_case(case)
            assert scalar_sig == scalar_again
            assert failing == failing_again
            assert not diffcheck.disagreements(case, scalar_sig, failing)

    def test_verdict_signature_is_a_strict_projection(self):
        scalar_sig, _ = run_case(build_case(5))
        relaxed = verdict_signature(scalar_sig)
        assert set(relaxed) == {
            "passed", "failure", "detection_cycle", "assignment"
        }
        assert "wall" in scalar_sig and "wall" not in relaxed

    def test_vector_mismatch_names_engine_and_mode(self, monkeypatch):
        """A flipped oracle verdict is reported with the seed, the
        kernel oracle and both verdicts."""
        real_run_case = diffcheck.run_case
        seed = _first_static_seed(True, start=9)

        def corrupted(case):
            scalar_sig, failing = real_run_case(case)
            return scalar_sig, {name: {0} for name in failing}

        monkeypatch.setattr(diffcheck, "run_case", corrupted)
        with pytest.raises(DiffMismatch) as excinfo:
            diffcheck.check_seed(seed)
        message = str(excinfo.value)
        assert f"--seed {seed} --verbose" in message
        assert "scalar/kernel-oracle divergence" in message
        assert "scalar: True" in message and "oracle: False" in message


# ----------------------------------------------------------------------
# The oracle decides static schedules and declines dynamic ones
# ----------------------------------------------------------------------
class TestVectorFastPathCoverage:
    """The kernel oracle must *decide* every static-schedule corpus
    case, PASS and FAIL alike, and must decline every dynamic-schedule
    case exactly once, counting one ``vector.delegations``: the
    emergent grab order is known only to the op-by-op engine."""

    GROUP = 30

    def _run(self, case):
        """Check one case; return the oracle's sets (None when declined),
        its declination count and whether scalar passed."""
        prof = SpanProfiler()
        spans.install(prof)
        try:
            scalar_sig, failing = run_case(case)
        finally:
            spans.uninstall()
        assert not diffcheck.disagreements(case, scalar_sig, failing), (
            case.describe()
        )
        declined = _counter_total(prof, "vector.delegations")
        assert declined == (failing is None)
        return failing, scalar_sig["passed"]

    def _static_sweep(self, seeds):
        """Sweep the static-schedule baseline cases; return the FAILs."""
        fails = 0
        for seed in seeds:
            case = build_case(seed, "baseline")
            if case.schedule.policy is SchedulePolicy.DYNAMIC:
                continue  # the dynamic-nocontention sweep covers these
            failing, passed = self._run(case)
            assert failing is not None, (
                f"oracle declined a static case: {case.describe()}"
            )
            assert set(failing) == {case.loop.arrays[0].name}
            fails += not passed
        return fails

    @pytest.mark.parametrize("base", [0, 60, 120, 180])
    def test_static_corpus_decided_natively(self, base):
        self._static_sweep(range(base, base + self.GROUP))

    @pytest.mark.parametrize("base", [0, 60, 120, 180])
    def test_dynamic_nocontention_corpus_delegates(self, base):
        for seed in range(base, base + self.GROUP):
            case = build_case(seed, "dynamic-nocontention")
            failing, _ = self._run(case)
            assert failing is None, case.describe()

    def test_fail_cases_are_covered_without_delegation(self):
        """The decided cases must include FAIL verdicts, or the
        FAIL-element check is hollow."""
        assert self._static_sweep(range(0, 60)) > 0

    def test_baseline_corpus_counts(self):
        """Over the whole baseline corpus the oracle decides every static
        case (32 of them FAIL) and declines the 127 dynamic ones."""
        prof = SpanProfiler()
        spans.install(prof)
        decided = fails = 0
        try:
            for seed in range(GROUPS * GROUP):
                case = build_case(seed)
                scalar_sig, failing = run_case(case)
                assert not diffcheck.disagreements(case, scalar_sig, failing)
                if failing is not None:
                    decided += 1
                    fails += not scalar_sig["passed"]
        finally:
            spans.uninstall()
        assert (decided, fails) == (113, 32)
        assert _counter_total(prof, "vector.delegations") == 127

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
