"""Differential conformance harness: scalar engine vs kernel oracle.

The hardware scheme's FAIL conditions are whole-loop predicates over
the access trace, and :mod:`repro.testing.vector_oracle` evaluates them
as plain-Python set computations — an implementation independent of
the op-by-op protocols.  This module is the machine check that the two agree: build
a seeded random case (loop shape x schedule x protocol x injected
dependence), run it once on the scalar engine, and hold the run to the
oracle's failing-element sets:

* the scalar verdict equals the oracle verdict;
* on FAIL, the scalar ``failure.element`` lies in the oracle's set for
  its array;
* the realized assignment is the static plan.

The oracle decides static schedules only; a dynamic self-scheduled
case's grab order emerges from the simulated timing, so the oracle
declines it (counting one ``vector.delegations``) and the case
conforms trivially.

The full signature (:func:`conformance_signature`) covers the verdict,
the final speculation-directory and coherence-directory state, the
timing surface and the memory-system counters; tests use it to pin the
scalar engine's own behaviour, and :func:`verdict_signature` projects
it to the outcome.

Every mismatch message embeds the seed, so a failing randomized test
reproduces with one line::

    python -m repro.testing.diffcheck --seed 12345 --verbose

``tests/test_differential.py`` sweeps seeds 0..N (N >= 200) through
:func:`check_seed`.  :func:`run_seeds` fans a seed batch out across
worker processes (``--jobs`` on the CLI); every case is derived purely
from its seed, so the parallel sweep's verdicts are bit-identical to
the serial sweep's and each failure still carries its one-line repro.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..params import (
    ContentionModel,
    MachineParams,
    default_params,
    small_test_params,
)
from ..runtime.driver import RunConfig, RunResult, run_hw
from ..runtime.schedule import (
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    static_assignment,
)
from ..trace.loop import ArraySpec, Loop
from ..trace.ops import compute, read, write
from ..types import ProtocolKind
from . import vector_oracle


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CaseSpec:
    """One generated conformance case (everything derived from ``seed``)."""

    seed: int
    loop: Loop
    params: MachineParams
    schedule: ScheduleSpec
    timestamp_bits: Optional[int]
    per_line_bits: bool
    protocol: ProtocolKind
    injected_dependence: bool
    #: corpus variant this case belongs to (see :data:`VARIANTS`)
    variant: str = "baseline"

    def describe(self) -> str:
        tag = "" if self.variant == "baseline" else f"variant={self.variant} "
        return (
            f"{tag}seed={self.seed} loop={self.loop.name!r} "
            f"procs={self.params.num_processors} "
            f"sched={self.schedule.policy.value}/chunk={self.schedule.chunk_iterations}"
            f"/{self.schedule.virtual_mode.value} "
            f"ts_bits={self.timestamp_bits} per_line={self.per_line_bits} "
            f"protocol={self.protocol.value} injected={self.injected_dependence}"
        )


def _random_body(
    rng: random.Random,
    protocol: ProtocolKind,
    elements: int,
    iterations: int,
) -> Tuple[List[List[object]], bool]:
    """Random per-iteration op lists for one array under test.

    The baseline pattern is well-formed for the chosen protocol (disjoint
    slices for the non-privatization test, write-before-read scratch for
    the privatization tests); with ~40% probability a cross-iteration
    dependence is injected so the FAIL paths — detection, culprit
    attribution, abort timing — get differential coverage too.
    """
    body: List[List[object]] = []
    per = max(1, elements // iterations)
    for i in range(iterations):
        ops: List[object] = []
        accesses = rng.randint(2, min(6, per * 2))
        if protocol is ProtocolKind.NONPRIV:
            # Each iteration owns a disjoint slice; random read/write mix.
            lo = (i * per) % elements
            for _ in range(accesses):
                j = lo + rng.randrange(per)
                if rng.random() < 0.5:
                    ops.append(read("A", j))
                else:
                    ops.append(write("A", j))
                if rng.random() < 0.7:
                    ops.append(compute(rng.randint(5, 60)))
        else:
            # Scratch usage: write a slot, compute, read it back.
            for _ in range(accesses):
                slot = rng.randrange(elements)
                ops.append(write("A", slot))
                if rng.random() < 0.7:
                    ops.append(compute(rng.randint(5, 60)))
                if rng.random() < 0.8:
                    ops.append(read("A", slot))
        body.append(ops)

    injected = iterations >= 2 and rng.random() < 0.4
    if injected:
        # A flow dependence between two distinct iterations on one
        # element: earlier iteration writes it, a later one touches it.
        i1 = rng.randrange(iterations - 1)
        i2 = rng.randrange(i1 + 1, iterations)
        elem = rng.randrange(elements)
        body[i1].append(write("A", elem))
        if protocol is ProtocolKind.NONPRIV and rng.random() < 0.5:
            body[i2].insert(0, read("A", elem))
        else:
            # For the privatization tests a read *before* any write in
            # the iteration is what breaks privatizability.
            body[i2].insert(0, read("A", elem))
            body[i2].append(write("A", elem))
    return body, injected


#: Corpus variants.  ``baseline`` is the original seeded corpus (its
#: 0..N cases are byte-identical across releases — baselines depend on
#: that).  ``dynamic-nocontention`` reshapes every case, *after* all
#: RNG draws, into a dynamically self-scheduled run on a contention-free
#: machine: a corpus on which the kernel oracle declines every case (one
#: ``vector.delegations`` count each).
VARIANTS = ("baseline", "dynamic-nocontention")


def build_case(seed: int, variant: str = "baseline") -> CaseSpec:
    """Deterministically derive a full case from ``seed`` (and corpus
    ``variant`` — every variant consumes the RNG identically, so a
    seed's loop body is shared across variants)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown diffcheck variant {variant!r}")
    rng = random.Random(seed)
    procs = rng.choice([2, 4])
    params = (
        small_test_params(procs) if rng.random() < 0.7 else default_params(procs)
    )
    protocol = rng.choice(
        [ProtocolKind.NONPRIV, ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE]
    )
    elements = rng.randint(16, 64)
    iterations = rng.randint(4, 12)
    body, injected = _random_body(rng, protocol, elements, iterations)
    loop = Loop(
        f"diff-{seed}",
        [ArraySpec("A", elements, 8, protocol)],
        body,
    )

    policy = rng.choice([SchedulePolicy.DYNAMIC, SchedulePolicy.STATIC_CHUNK])
    chunk = rng.choice([1, 2, 4])
    if policy is SchedulePolicy.STATIC_CHUNK:
        virtual = rng.choice([VirtualMode.CHUNK, VirtualMode.ITERATION])
    else:
        virtual = VirtualMode.CHUNK
    schedule = ScheduleSpec(
        policy=policy, chunk_iterations=chunk, virtual_mode=virtual
    )
    # Time-stamp epochs require a static schedule with chunk numbering.
    timestamp_bits: Optional[int] = None
    if (
        policy is SchedulePolicy.STATIC_CHUNK
        and virtual is VirtualMode.CHUNK
        and rng.random() < 0.3
    ):
        timestamp_bits = rng.choice([2, 3])
    per_line_bits = protocol is ProtocolKind.NONPRIV and rng.random() < 0.1
    if variant == "dynamic-nocontention":
        # Reshape after every RNG draw so the loop body, machine size
        # and protocol stay byte-identical to the baseline case.
        params = dataclasses.replace(
            params, contention=ContentionModel(enabled=False)
        )
        schedule = ScheduleSpec(
            policy=SchedulePolicy.DYNAMIC,
            chunk_iterations=schedule.chunk_iterations,
            virtual_mode=VirtualMode.CHUNK,
        )
        timestamp_bits = None
    return CaseSpec(
        seed=seed,
        loop=loop,
        params=params,
        schedule=schedule,
        timestamp_bits=timestamp_bits,
        per_line_bits=per_line_bits,
        protocol=protocol,
        injected_dependence=injected,
        variant=variant,
    )


# ----------------------------------------------------------------------
# Running and comparing
# ----------------------------------------------------------------------
def _table_state(protocol_obj) -> Dict[str, Dict[str, list]]:
    """Every element-state table of one protocol object, as
    ``{table: {field: values}}``: a per-array or shared table under the
    array name, a per-processor private table under ``name@proc``."""
    out: Dict[str, Dict[str, list]] = {}
    for attr in ("_tables", "_shared", "_private"):
        for key, table in sorted(getattr(protocol_obj, attr, {}).items()):
            name = key if isinstance(key, str) else f"{key[0]}@{key[1]}"
            out[name] = {
                field: list(value)
                for field, value in vars(table).items()
                if isinstance(value, list)
            }
    return out


def _directory_state(machine) -> list:
    """Coherence-directory end-state: per node, per line, the stable
    (state, owner, sharers) triple."""
    snap = []
    for directory in machine.memsys.directories:
        lines = []
        for line_addr in sorted(directory.known_lines()):
            entry = directory.peek(line_addr)
            lines.append(
                (
                    line_addr,
                    entry.state.value,
                    entry.owner,
                    tuple(sorted(entry.sharers)),
                )
            )
        snap.append(lines)
    return snap


def conformance_signature(result: RunResult, machine) -> dict:
    """Everything the conformance contract compares, as one dict."""
    failure = result.failure
    mem = result.mem
    spec = machine.spec if machine is not None else None
    return {
        "passed": result.passed,
        "failure": (
            (failure.reason, failure.element, failure.iteration, failure.processor)
            if failure is not None
            else None
        ),
        "detection_cycle": result.detection_cycle,
        "wall": result.wall,
        "phases": dict(result.phases),
        "spec_messages": result.spec_messages,
        "mem": (
            (
                mem.reads, mem.writes, mem.l1_hits, mem.l2_hits,
                mem.local_misses, mem.remote_2hop, mem.remote_3hop,
                mem.writebacks, mem.invalidations,
            )
            if mem is not None
            else None
        ),
        "assignment": result.assignment,
        "nonpriv_tables": _table_state(spec.nonpriv) if spec else {},
        "priv_tables": _table_state(spec.priv) if spec else {},
        "priv_simple_tables": _table_state(spec.priv_simple) if spec else {},
        "coherence_dirs": (
            _directory_state(machine) if machine is not None else {}
        ),
    }


def result_signature(result: RunResult) -> dict:
    """The result-only projection of :func:`conformance_signature` —
    everything it compares that lives on the ``RunResult`` itself, no
    machine required.  This is the full-signature compare available to
    consumers holding only archived results (the run ledger's cache-hit
    bit-identity check): two results with equal ``result_signature`` are
    bit-identical in verdict, failure attribution, timing, phase times,
    traffic counters and realized assignment.
    """
    sig = conformance_signature(result, machine=None)
    return {
        k: v
        for k, v in sig.items()
        if k not in ("nonpriv_tables", "priv_tables", "priv_simple_tables",
                     "coherence_dirs")
    }


#: Signature fields the ``verdict`` projection keeps: everything a
#: user observes about the *outcome* of the speculation, nothing about
#: how the simulation got there.
VERDICT_KEYS = ("passed", "failure", "detection_cycle", "assignment")


def verdict_signature(sig: dict) -> dict:
    """Project a full conformance signature down to the
    verdict/failure-attribution subset."""
    return {key: sig[key] for key in VERDICT_KEYS}


class DiffMismatch(AssertionError):
    """Raised when scalar and the kernel oracle disagree; the message
    carries the one-line repro."""


def case_config(case: CaseSpec, **extra) -> RunConfig:
    """The :class:`RunConfig` a case runs under."""
    return RunConfig(
        schedule=case.schedule,
        timestamp_bits=case.timestamp_bits,
        per_line_bits=case.per_line_bits,
        **extra,
    )


def run_case(case: CaseSpec) -> Tuple[dict, Optional[Dict[str, Set[int]]]]:
    """Run one case on scalar; return its full conformance signature and
    the kernel oracle's failing-element sets (``None`` when the oracle
    declines a dynamic schedule)."""
    captured: List[object] = []
    config = case_config(case, machine_hook=captured.append)
    result = run_hw(case.loop, case.params, config)
    sig = conformance_signature(result, captured[0])
    return sig, vector_oracle.failing_elements(case.loop, case.params, config)


def _sorted(failing: Dict[str, Set[int]]) -> Dict[str, List[int]]:
    return {name: sorted(elems) for name, elems in failing.items()}


def disagreements(
    case: CaseSpec, sig: dict, failing: Optional[Dict[str, Set[int]]]
) -> List[str]:
    """Every way the scalar signature contradicts the oracle, as
    message lines; empty when they agree or the oracle declined.

    Checked: the verdicts are equal; a FAIL's element lies in the
    oracle's set for its array; the assignment is the static plan.
    """
    if failing is None:
        return []
    problems = []
    oracle_passed = not any(failing.values())
    if sig["passed"] != oracle_passed:
        problems.append(
            f"  passed:\n    scalar: {sig['passed']!r}\n"
            f"    oracle: {oracle_passed!r} (failing elements {_sorted(failing)})"
        )
    elif not sig["passed"]:
        element = sig["failure"][1]
        if element is None or element[1] not in failing.get(element[0], ()):
            problems.append(
                f"  failure element:\n    scalar: {element!r}\n"
                f"    oracle: not in {_sorted(failing)}"
            )
    expected = static_assignment(
        case.schedule, case.loop.num_iterations, case.params.num_processors
    )
    if sig["assignment"] != expected:
        problems.append(
            f"  assignment:\n    scalar: {sig['assignment']!r}\n"
            f"    static plan: {expected!r}"
        )
    return problems


def _mismatch_message(case: CaseSpec, problems: List[str]) -> str:
    variant = "" if case.variant == "baseline" else f" --variant {case.variant}"
    detail = "\n".join(problems)
    return (
        f"scalar/kernel-oracle divergence on {case.describe()}\n{detail}\n"
        f"reproduce: python -m repro.testing.diffcheck "
        f"--seed {case.seed}{variant} --verbose"
    )


def check_seed(seed: int, variant: str = "baseline") -> CaseSpec:
    """Build, run and check one seed against the kernel oracle; raise
    :class:`DiffMismatch` with a one-line repro on any disagreement."""
    case = build_case(seed, variant)
    problems = disagreements(case, *run_case(case))
    if problems:
        raise DiffMismatch(_mismatch_message(case, problems))
    return case


def seed_verdict(
    seed: int, engine: str = "vector", variant: str = "baseline"
) -> Dict[str, object]:
    """One seed's sweep record, as plain data (pool-task friendly).

    ``engine`` names the checker and must be ``"vector"`` (the kernel
    oracle).  Keys: ``seed``, ``describe``, ``conforms`` (scalar agrees
    with the oracle), ``passed`` (the scalar run's verdict), and — on a
    mismatch only — ``message`` carrying the detail plus the one-line
    repro.
    """
    if engine != "vector":
        raise ValueError(f"unknown diffcheck engine {engine!r}: use 'vector'")
    case = build_case(seed, variant)
    sig, failing = run_case(case)
    problems = disagreements(case, sig, failing)
    verdict: Dict[str, object] = {
        "seed": seed,
        "describe": case.describe(),
        "conforms": not problems,
        "passed": bool(sig["passed"]),
    }
    if problems:
        verdict["message"] = _mismatch_message(case, problems)
    return verdict


def run_seeds(
    seeds: Sequence[int],
    jobs: int = 1,
    timeout: Optional[float] = None,
    bus=None,
    variant: str = "baseline",
) -> List[Dict[str, object]]:
    """Sweep ``seeds`` through :func:`seed_verdict`, fanning out across
    ``jobs`` worker processes; verdicts come back in seed order and are
    identical to a serial sweep of the same seeds."""
    # Imported here, not at module level: the pool pulls in
    # multiprocessing, concurrent.futures, logging and socket, which a
    # caller of ``seed_verdict`` alone never needs.
    from ..experiments.pool import PoolTask, run_tasks

    tasks = [
        PoolTask(seed_verdict, (seed, "vector", variant), label=f"seed:{seed}")
        for seed in seeds
    ]
    return run_tasks(tasks, jobs=jobs, timeout=timeout, bus=bus)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.diffcheck",
        description="Replay differential conformance cases "
        "(scalar engine vs kernel oracle).",
    )
    parser.add_argument("--seed", type=int, help="run one specific seed")
    parser.add_argument(
        "--variant", choices=VARIANTS, default="baseline",
        help="corpus variant: baseline keeps each seed's generated "
        "schedule/machine; dynamic-nocontention reshapes every case "
        "into dynamic self-scheduling on a contention-free machine "
        "(which the kernel oracle declines)",
    )
    parser.add_argument(
        "--count", type=int, default=50,
        help="without --seed: number of consecutive seeds to run",
    )
    parser.add_argument(
        "--start", type=int, default=0,
        help="without --seed: first seed of the sweep",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print each case description"
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sweep (0 = one per core); "
        "verdicts are identical to --jobs 1",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-seed timeout in seconds before the worker is retried",
    )
    parser.add_argument(
        "--verdicts-out", default=None,
        help="write per-seed {conforms, passed} verdicts as JSON (the "
        "CI parallel-conformance job diffs this against the committed "
        "serial baseline)",
    )
    args = parser.parse_args(argv)
    # An empty sweep would report "0/0 cases conform" and succeed.
    for name, minimum in (("count", 1), ("jobs", 0)):
        value = getattr(args, name)
        if value < minimum:
            parser.error(f"argument --{name}: must be at least {minimum}, "
                         f"got {value}")

    seeds = (
        [args.seed]
        if args.seed is not None
        else list(range(args.start, args.start + args.count))
    )
    verdicts = run_seeds(
        seeds, jobs=args.jobs, timeout=args.timeout, variant=args.variant,
    )
    failures = 0
    for verdict in verdicts:
        if not verdict["conforms"]:
            failures += 1
            print(f"FAIL {verdict['message']}")
        elif args.verbose:
            print(f"ok   {verdict['describe']}")
    print(
        f"{len(seeds) - failures}/{len(seeds)} cases conform "
        f"(scalar vs kernel oracle)"
    )
    if args.verdicts_out:
        doc = {
            "harness": "diffcheck",
            "variant": args.variant,
            "seeds": [seeds[0], seeds[-1]] if seeds else [],
            "verdicts": {
                str(v["seed"]): {"conforms": v["conforms"], "passed": v["passed"]}
                for v in verdicts
            },
        }
        with open(args.verdicts_out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.verdicts_out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
