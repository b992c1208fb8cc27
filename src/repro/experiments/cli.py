"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments all --preset quick
    python -m repro.experiments fig11 fig13 --preset default
    repro-experiments fig14 --preset quick --seed 7
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List

from . import charts, claims, figures, report, serialize

# The side verbs' modules (bench, doctor, tracerun, profile) are
# imported inside the verbs that use them: bench alone pulls in the
# process pool, ``multiprocessing`` and ``concurrent.futures``, and a
# figure or table run needs none of them.

EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {}

#: row producers for --json output
ROW_PRODUCERS: Dict[str, Callable[[argparse.Namespace], list]] = {
    "fig11": lambda a: figures.fig11_speedups(a.preset, seed=a.seed, runs=a.runs),
    "fig12": lambda a: figures.fig12_breakdown(a.preset, seed=a.seed, runs=a.runs),
    "fig13": lambda a: figures.fig13_failure(a.preset, seed=a.seed),
    "fig14": lambda a: figures.fig14_scalability(a.preset, seed=a.seed, runs=a.runs),
    "table1": lambda a: figures.table1_workloads(a.preset, seed=a.seed),
    "table2": lambda a: figures.table2_state(),
    "table3": lambda a: figures.table3_traffic(a.preset, seed=a.seed),
}


def _register(name: str):
    def wrap(fn):
        EXPERIMENTS[name] = fn
        return fn

    return wrap


@_register("fig11")
def _fig11(args) -> str:
    rows = figures.fig11_speedups(args.preset, seed=args.seed, runs=args.runs)
    text = report.render_fig11(rows)
    if args.chart:
        text += "\n\n" + charts.chart_fig11(rows)
    return text


@_register("fig12")
def _fig12(args) -> str:
    rows = figures.fig12_breakdown(args.preset, seed=args.seed, runs=args.runs)
    text = report.render_fig12(rows)
    if args.chart:
        text += "\n\n" + charts.chart_fig12(rows)
    return text


@_register("fig13")
def _fig13(args) -> str:
    return report.render_fig13(figures.fig13_failure(args.preset, seed=args.seed))


@_register("fig14")
def _fig14(args) -> str:
    rows = figures.fig14_scalability(args.preset, seed=args.seed, runs=args.runs)
    text = report.render_fig14(rows)
    if args.chart:
        text += "\n\n" + charts.chart_fig14(rows)
    return text


@_register("table1")
def _table1(args) -> str:
    return report.render_table1(figures.table1_workloads(args.preset, seed=args.seed))


@_register("table3")
def _table3(args) -> str:
    return report.render_table3(figures.table3_traffic(args.preset, seed=args.seed))


@_register("verdict")
def _verdict(args) -> str:
    data = claims.gather(args.preset, args.seed, runs=args.runs)
    results = claims.evaluate_claims(data=data)
    return claims.render_verdict(results)


@_register("table2")
def _table2(args) -> str:
    return report.render_table2(figures.table2_state())


@_register("doctor")
def _doctor(args) -> str:
    from . import doctor

    return doctor.run_doctor(num_processors=args.doctor_processors)


@_register("bench")
def _bench(args) -> str:
    from . import bench

    session = _profile_session(args, "bench")
    text = bench.run_bench(out=args.bench_out, reps=args.bench_reps,
                           jobs=args.jobs, profile=session,
                           ledger=_ledger(args))
    return _with_profile(args, session, text)


def _ledger(args):
    """The --ledger-dir archive, or None (the default null path)."""
    if not getattr(args, "ledger_dir", None):
        return None
    from ..obs.ledger import RunLedger

    return RunLedger(args.ledger_dir)


def _profile_session(args, label: str):
    if not getattr(args, "profile_out", None):
        return None
    from ..obs.spans import ProfileSession

    return ProfileSession(label=label)


def _with_profile(args, session, text: str) -> str:
    if session is None:
        return text
    from . import profile as profilerun

    return text + "\n" + profilerun.write_profile_outputs(
        session, args.profile_out
    )


def _sweep_value(text: str):
    """Parse one --sweep-values item: int, then float, then bare string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


@_register("sweep")
def _sweep(args) -> str:
    from ..params import default_params
    from ..types import Scenario
    from .sweeps import format_sweep, sweep_machine

    workload = figures.make_workload(args.workload, args.preset, args.seed)
    loop = next(iter(workload.executions(1)))
    values = [_sweep_value(v) for v in args.sweep_values.split(",") if v]
    session = _profile_session(args, f"sweep:{args.sweep_field}")
    ledger = _ledger(args)
    config = None
    if ledger is not None:
        # Every sweep point (and the memoized serial baseline) is then
        # archived — and re-sweeping identical points serves from disk.
        from ..runtime.driver import RunConfig

        config = RunConfig(ledger=ledger)
    points = sweep_machine(
        loop,
        args.sweep_field,
        values,
        scenario=Scenario[args.sweep_scenario.upper()],
        base_params=default_params(workload.num_processors),
        config=config,
        jobs=args.jobs,
        profile=session,
    )
    header = (
        f"sweep: {args.sweep_field} over {loop.name!r} "
        f"({args.sweep_scenario}, jobs={args.jobs})"
    )
    text = header + "\n" + format_sweep(points, label=args.sweep_field)
    return _with_profile(args, session, text)


@_register("diffsweep")
def _diffsweep(args) -> str:
    from ..testing.diffcheck import run_seeds

    seeds = list(range(args.diff_start, args.diff_start + args.diff_count))
    session = _profile_session(args, "diffsweep")
    verdicts = run_seeds(seeds, jobs=args.jobs, profile=session)
    lines = [
        f"FAIL {v['message']}" for v in verdicts if not v["conforms"]
    ]
    conforming = len(seeds) - len(lines)
    lines.append(
        f"{conforming}/{len(seeds)} cases conform (jobs={args.jobs})"
    )
    ledger = _ledger(args)
    if ledger is not None:
        key, _ = ledger.record_diffsweep(
            {
                "seeds": len(seeds),
                "start": args.diff_start,
                "conforming": conforming,
                "failures": lines[:-1],
            },
            label=f"diffsweep:{args.diff_start}+{len(seeds)}",
        )
        lines.append(f"archived as ledger record {key[:12]}")
    return _with_profile(args, session, "\n".join(lines))


@_register("trace")
def _trace(args) -> str:
    from . import tracerun

    return tracerun.run_trace(
        preset=args.preset,
        seed=args.seed,
        workload=args.workload,
        out=args.out,
        profile_out=args.profile_out or "",
    )


@_register("profile")
def _profile(args) -> str:
    from . import profile as profilerun

    return profilerun.run_profile(
        preset=args.preset,
        seed=args.seed,
        workload=args.workload,
        out=args.profile_out or "repro-profile.json",
        jobs=args.jobs,
    )


def main(argv: "List[str] | None" = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "ledger":
        # The ledger verb family has its own subcommand grammar
        # (list/show/diff/import/trend/regressions); dispatch before the
        # experiments parser sees it.
        from . import ledgercli

        return ledgercli.main(argv[1:])
    if argv and argv[0] == "modelcheck":
        # Exhaustive small-config model checking of the speculation
        # protocols; its own grammar, dispatched the same way.
        from ..modelcheck import cli as modelcheckcli

        return modelcheckcli.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the evaluation of 'Hardware for Speculative "
        "Run-Time Parallelization in DSMs' (HPCA 1998).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which tables/figures to regenerate (plus the 'ledger' "
        "verb family: ledger list/show/diff/import/trend/regressions; "
        "and 'modelcheck' for exhaustive protocol model checking)",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=("quick", "default", "full"),
        help="simulation size (quick for a fast look, default for the "
        "EXPERIMENTS.md numbers, full for long runs)",
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--chart", action="store_true",
        help="append ASCII bar charts to the figure tables",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON rows instead of tables",
    )
    parser.add_argument(
        "--out", default="repro-trace.json",
        help="trace: output path for the Chrome trace-event JSON "
        "(a .jsonl event stream is written next to it)",
    )
    parser.add_argument(
        "--workload", default="Adm",
        choices=sorted(figures.WORKLOAD_CLASSES),
        help="trace: which workload to instrument",
    )
    parser.add_argument(
        "--doctor-processors", type=int, default=4,
        help="doctor: processor count for the monitored self-check runs",
    )
    parser.add_argument(
        "--bench-out", default="BENCH_BASELINE.json",
        help="bench: output path for the throughput JSON",
    )
    parser.add_argument(
        "--bench-reps", type=int, default=7,
        help="bench: repetitions per instrumentation level (best-of)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep/bench/diffsweep/profile (0 = "
        "one per core); results are identical to --jobs 1",
    )
    parser.add_argument(
        "--profile-out", default=None,
        help="write a merged multi-process Chrome trace (spans + "
        "rollup JSON next to it) for profile/sweep/bench/diffsweep/"
        "trace; the profile verb defaults to repro-profile.json",
    )
    parser.add_argument(
        "--sweep-field", default="num_processors",
        help="sweep: dotted MachineParams field to vary",
    )
    parser.add_argument(
        "--sweep-values", default="2,4,8",
        help="sweep: comma-separated values for the swept field",
    )
    parser.add_argument(
        "--sweep-scenario", default="hw",
        choices=("serial", "ideal", "sw", "hw"),
        help="sweep: scenario to run at each point",
    )
    parser.add_argument(
        "--diff-count", type=int, default=50,
        help="diffsweep: number of consecutive conformance seeds",
    )
    parser.add_argument(
        "--diff-start", type=int, default=0,
        help="diffsweep: first seed of the sweep",
    )
    parser.add_argument(
        "--ledger-dir", default=None,
        help="archive bench/sweep/diffsweep results (and serve identical "
        "re-runs) from the run ledger rooted here; query it with the "
        "'ledger' verb family",
    )
    args = parser.parse_args(argv)
    # One invocation simulates each workload once: fig11, fig12, fig14
    # and verdict read the same figures.RunStore.
    args.runs = {}

    # "all" regenerates every table/figure; trace, bench and profile
    # (which write files), doctor (a self-check, not an evaluation
    # result) and the parameterized explorations (sweep, diffsweep)
    # stay explicit-only.  With --json it means every one with a row
    # format.
    if "all" in args.experiments:
        chosen = sorted(
            n for n in EXPERIMENTS
            if n not in ("trace", "doctor", "bench", "sweep", "diffsweep",
                         "profile")
            and (not args.json or n in ROW_PRODUCERS)
        )
    else:
        chosen = args.experiments
    if args.json:
        # Refuse before simulating anything, not after the figures
        # that do have a row format.
        for name in chosen:
            if name not in ROW_PRODUCERS:
                parser.error(f"{name} has no JSON row format")
    for name in chosen:
        # Monotonic clock: time.time() can jump (NTP slew) mid-run and
        # skew the reported per-experiment timings.
        start = time.perf_counter()
        if args.json:
            text = serialize.rows_to_json(ROW_PRODUCERS[name](args))
        else:
            text = EXPERIMENTS[name](args)
        elapsed = time.perf_counter() - start
        print(text)
        if not args.json:
            print(f"[{name}: {elapsed:.1f}s, preset={args.preset}]")
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
