"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

run._require_source()

import cases  # noqa: E402


def _bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def sweep_traced():
    return _bench("sweep-small", 1)


def test_perturbed_golden_digest_is_a_failed_operation():
    golden = cases.load_golden()
    output = cases.run_fail_restore(2026)
    attempted, problems = cases.check_fail_restore(2026, output, golden)
    assert (attempted, problems) == (12, [])

    perturbed = copy.deepcopy(golden)
    rows = perturbed["fail-restore"]["2026"]
    rows["fig13/Adm/HW"] = "0" * 16
    attempted, problems = cases.check_fail_restore(2026, output, perturbed)
    assert attempted == 12
    assert len(problems) == 1 and problems[0].startswith("fig13/Adm/HW")


def test_perturbed_sweep_verdict_is_a_failed_operation():
    baseline = cases.load_sweep_baseline()
    order = list(range(8))
    output = cases.run_sweep_small(order)
    assert cases.check_sweep_small(order, output, baseline) == (8, [])
    baseline[3] = not baseline[3]
    attempted, problems = cases.check_sweep_small(order, output, baseline)
    assert attempted == 8 and len(problems) == 1 and problems[0].startswith("seed 3 ")


def _raise(inp):
    raise ValueError("simulated regression")


@pytest.mark.parametrize("traced", [False, True])
def test_a_run_that_raises_fails_all_its_operations(traced):
    workload = dataclasses.replace(cases.WORKLOADS["fail-restore"], run=_raise)
    report = run.timed_run(workload, 2026, workload.setup(), traced=traced)
    assert report["attempted"] == report["failed"] == 12
    assert "simulated regression" in report["problems"][0]
    assert ("layers" in report) == traced


def test_printed_metric_names_equal_declared(declared, sweep_traced):
    untraced = _bench("sweep-small", 0)
    for doc, section in ((untraced, "end_to_end"), (sweep_traced, "per_layer")):
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        printed = {name: m["unit"] for name, m in doc["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared[section]}


def test_layer_shares_sum_to_at_most_one(sweep_traced):
    shares = [m["value"] for name, m in sweep_traced["metrics"].items()
              if name.endswith(".self_share")]
    assert len(shares) == 11
    assert all(s >= 0 for s in shares)
    assert 0 < sum(shares) <= 1 + 1e-9


def test_sweep_small_exercises_the_vector_tier_without_repeats(sweep_traced):
    metrics = sweep_traced["metrics"]
    assert metrics["experiments.repeat_runs"]["value"] == 0
    assert metrics["runtime.vector.delegations"]["value"] > 0


def test_counts_repeat_exactly_across_traced_runs():
    workload = cases.WORKLOADS["repro-quick"]
    golden = workload.setup()
    first, second = (run.timed_run(workload, 2026, golden, traced=True) for _ in range(2))
    assert first["problems"] == [] and second["problems"] == []
    names = ["experiments.repeat_runs", "experiments.runs", "memsys.accesses",
             "memsys.misses", "memsys.invalidations", "memsys.writebacks"]
    assert [first["layers"][n] for n in names] == [second["layers"][n] for n in names]
    assert first["layers"]["experiments.repeat_runs"][0] > 0
