"""The benchmark's workloads and the checks on their outputs.

Each workload is one call into the public API, the same call a user's
command makes:

* ``repro-quick`` -- ``claims.evaluate_claims("quick", seed)`` (the
  ``verdict`` verb): Figs 11-14 and Table 2 at the quick preset.
* ``fail-restore`` -- ``figures.fig13_failure("default", seed)``: the four
  section 6.2 forced-failure loops at the size EXPERIMENTS.md records.
* ``sweep-small`` -- ``diffcheck.seed_verdict(seed, "vector")`` over the
  240-seed baseline corpus (the CI vector diffsweep).

An *operation* is one claim, one figure-row digest or one seed verdict.
A figure row passes when its digest equals the committed golden digest
(``golden.json``); a speculation FAIL that matches the golden value is a
success.  ``python3 perfbench/run.py --write-golden`` regenerates the
golden digests after a deliberate change to the simulated results.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import random
from typing import Callable, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_PATH = os.path.join(HERE, "golden.json")
DIFFSWEEP_BASELINE = os.path.join(ROOT, "DIFFSWEEP_BASELINE.json")

#: workload seeds with committed golden digests: the default seed and a
#: held-out one.  Every measured invocation runs both, alternating, so
#: its median does not depend on which one the benchmark seed picks first.
GOLDEN_SEEDS = (2026, 7)
SWEEP_CORPUS = range(240)

#: significant digits kept when hashing a float: enough to catch any real
#: change in a figure, few enough that a change of summation order does
#: not count as one.
DIGITS = 10

#: fields naming a row within its figure (the rest is the row's value)
ROW_KEYS = {
    "fig11": ("workload",),
    "fig12": ("workload", "scenario"),
    "fig13": ("workload", "scenario"),
    "fig14": ("workload", "num_processors"),
    "table2": ("num_processors", "read_in"),
}


def _canon(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    if dataclasses.is_dataclass(value):
        return {f.name: _canon(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def row_digests(figure: str, rows: Sequence[object]) -> Dict[str, str]:
    """``{"<figure>/<key>...": digest}`` for one figure's rows.

    Fig 11 rows also carry the raw ``WorkloadResults`` they were computed
    from; only the plotted values are hashed."""
    out: Dict[str, str] = {}
    for row in rows:
        doc = {
            f.name: _canon(getattr(row, f.name))
            for f in dataclasses.fields(row)
            if f.name != "results"
        }
        label = "/".join([figure] + [str(doc[k]) for k in ROW_KEYS[figure]])
        text = json.dumps(doc, sort_keys=True)
        out[label] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return out


def compare_digests(seen: Dict[str, str], golden: Dict[str, str]) -> List[str]:
    """One message per row that is missing, extra or different."""
    problems = []
    for label in sorted(set(seen) | set(golden)):
        if seen.get(label) != golden.get(label):
            problems.append(
                f"{label}: digest {seen.get(label)} != golden {golden.get(label)}"
            )
    return problems


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def load_sweep_baseline() -> Dict[int, bool]:
    """Seed -> expected verdict (``passed``) from the committed diffsweep
    baseline; every seed there must also conform."""
    with open(DIFFSWEEP_BASELINE) as fh:
        doc = json.load(fh)
    return {int(seed): v["passed"] for seed, v in doc["verdicts"].items()}


# ----------------------------------------------------------------------
# repro-quick
# ----------------------------------------------------------------------
def run_repro_quick(seed: int):
    from repro.experiments import claims

    data = claims.gather("quick", seed)
    return data, claims.evaluate_claims(data=data)


def quick_digests(output) -> Dict[str, str]:
    data, _ = output
    out: Dict[str, str] = {}
    for figure in ("fig11", "fig12", "fig13", "fig14", "table2"):
        out.update(row_digests(figure, getattr(data, figure)))
    return out


def check_repro_quick(seed: int, output, golden: dict) -> Tuple[int, List[str]]:
    _, results = output
    problems = [
        f"claim {r.claim_id} not reproduced: {r.detail}" for r in results if not r.passed
    ]
    expected = golden["repro-quick"][str(seed)]
    problems += compare_digests(quick_digests(output), expected)
    return len(results) + len(expected), problems


def quick_operations(seed: int, golden: dict) -> int:
    from repro.experiments import claims

    return len(claims.CLAIMS) + len(golden["repro-quick"][str(seed)])


# ----------------------------------------------------------------------
# fail-restore
# ----------------------------------------------------------------------
def run_fail_restore(seed: int):
    """Fig 13 rows plus ``(workload loop, scenario, passed)`` for every SW
    and HW run, recorded where ``figures`` looks the drivers up."""
    from repro.experiments import figures

    verdicts: List[Tuple[str, str, bool]] = []

    def recording(fn: Callable) -> Callable:
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            verdicts.append((result.loop_name, result.scenario.value, result.passed))
            return result
        return call

    saved = {name: getattr(figures, name) for name in ("run_sw", "run_hw")}
    for name, fn in saved.items():
        setattr(figures, name, recording(fn))
    try:
        rows = figures.fig13_failure("default", seed=seed)
    finally:
        for name, fn in saved.items():
            setattr(figures, name, fn)
    return rows, verdicts


def fail_digests(output) -> Dict[str, str]:
    rows, _ = output
    return row_digests("fig13", rows)


def check_fail_restore(seed: int, output, golden: dict) -> Tuple[int, List[str]]:
    _, verdicts = output
    expected = golden["fail-restore"][str(seed)]
    problems = compare_digests(fail_digests(output), expected)
    problems += [
        f"{loop} {scenario} passed; every forced-failure run must FAIL"
        for loop, scenario, passed in verdicts
        if passed
    ]
    speculative = sum(not label.endswith("/Serial") for label in expected)
    if len(verdicts) != speculative:
        problems.append(f"expected {speculative} SW/HW runs, saw {len(verdicts)}")
    return len(expected), problems


def fail_operations(seed: int, golden: dict) -> int:
    return len(golden["fail-restore"][str(seed)])


# ----------------------------------------------------------------------
# sweep-small
# ----------------------------------------------------------------------
def run_sweep_small(order: Sequence[int]):
    from repro.testing import diffcheck

    return [diffcheck.seed_verdict(seed, "vector") for seed in order]


def check_sweep_small(order, output, baseline: Dict[int, bool]) -> Tuple[int, List[str]]:
    problems = []
    for verdict in output:
        seed = verdict["seed"]
        if not verdict["conforms"]:
            problems.append(f"seed {seed} does not conform: {verdict.get('message')}")
        elif verdict["passed"] != baseline.get(seed):
            problems.append(
                f"seed {seed} passed={verdict['passed']}, baseline {baseline.get(seed)}"
            )
    if [v["seed"] for v in output] != list(order):
        problems.append("verdicts do not cover the corpus in order")
    return len(order), problems


def sweep_operations(order, baseline) -> int:
    return len(order)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    #: input -> output; the timed call
    run: Callable
    #: (input, output, setup data) -> (operations attempted, problems)
    check: Callable
    #: (input, setup data) -> operations one run attempts; all of them
    #: count as failed when the run raises
    operations: Callable
    #: imports and data loading done before the first timed run
    setup: Callable[[], object]
    #: benchmark seed -> the inputs one measured invocation cycles through
    inputs: Callable[[int], list]


def _golden_seed_cycle(bench_seed: int) -> List[int]:
    first = bench_seed % len(GOLDEN_SEEDS)
    return [GOLDEN_SEEDS[(first + i) % len(GOLDEN_SEEDS)] for i in range(len(GOLDEN_SEEDS))]


def _shuffled_corpus(bench_seed: int) -> List[List[int]]:
    order = list(SWEEP_CORPUS)
    random.Random(bench_seed).shuffle(order)
    return [order]


def _setup_figures():
    from repro.experiments import claims, figures  # noqa: F401

    return load_golden()


def _setup_sweep():
    from repro.testing import diffcheck  # noqa: F401

    return load_sweep_baseline()


WORKLOADS: Dict[str, Workload] = {
    "repro-quick": Workload(
        run_repro_quick, check_repro_quick, quick_operations, _setup_figures, _golden_seed_cycle
    ),
    "fail-restore": Workload(
        run_fail_restore, check_fail_restore, fail_operations, _setup_figures, _golden_seed_cycle
    ),
    "sweep-small": Workload(
        run_sweep_small, check_sweep_small, sweep_operations, _setup_sweep, _shuffled_corpus
    ),
}


def write_golden() -> dict:
    """Recompute and write ``golden.json`` for every golden seed."""
    doc = {"repro-quick": {}, "fail-restore": {}}
    for seed in GOLDEN_SEEDS:
        doc["repro-quick"][str(seed)] = quick_digests(run_repro_quick(seed))
        doc["fail-restore"][str(seed)] = fail_digests(run_fail_restore(seed))
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc
