"""Benchmark of the paper reproduction's host time, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload repro-quick --seed 1 --seconds 30 --trace 0

Workloads (see ``cases.py``): ``repro-quick``, ``fail-restore``,
``sweep-small``.  The load is one process, one timed run at a time, with
no pool workers.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines
are a human-readable summary.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- seconds from process start to the point where the first
  timed run could begin (interpreter start, imports, golden data).  It is
  measured in ``SETUP_PROBES`` fresh processes spread evenly over the
  measured window, between timed runs, so the probes sample the host's
  fast and slow phases as the timed runs do; the median is reported.  It
  holds only deterministic work.
* ``wall_s`` -- host seconds of one timed run of the workload's fixed
  work: the mean over all timed runs of the invocation (the count and
  every run are printed).  The mean, not the median: the host's speed
  switches between phases lasting seconds, so the per-run times are
  bimodal and their median jumps between the modes, while the mean
  averages them.  Over ten seeds of 30 s each the median's quartile
  spread was 0.11 / 0.19 / 0.23 (repro-quick / fail-restore /
  sweep-small) against the mean's 0.08 / 0.16 / 0.14.  No tail
  percentile: a 30 s budget gives too few runs to have ten samples
  beyond any percentile.
* ``peak_rss_mb`` -- median peak resident memory of a timed run.

``--trace 1`` runs untraced and traced timed runs in pairs and reports
the per-layer metrics of ``layers.py`` plus ``bench.trace_overhead``
(traced ``wall_s`` / untraced ``wall_s`` - 1).  Traced runs all use the
input of benchmark seed ``TRACE_SEED``, whatever ``--seed`` is, so the
counts do not change with the seed.  Counts come from one traced run
(they repeat exactly); times are means over traced runs; self shares
pool all samples.

A timed run that raises counts every operation it would have attempted
as failed; the invocation still prints its result line.

Every timed run is a child forked from the set-up process, so each starts
from the same post-setup state: process-level memos (the vector tier's
extraction LRU, the ledger's loop-fingerprint memo) cannot carry over
from an earlier run.  The interpreter runs as users run it, GC on.

Metric shapes deliberately left out, because they were not steady:
percentiles with fewer than ten samples beyond them; ms-scale per-call
latencies as end-to-end metrics; simulated accesses per host second as an
end-to-end metric (removing repeated runs would move it as a side effect),
so it is per-layer only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 10

#: benchmark seed whose first input every traced run uses
TRACE_SEED = 0


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no repro package under {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def _probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def _failed_report(workload, inp, setup_data, wall: float, error: str) -> dict:
    """Report of a run that raised or died: every operation failed."""
    operations = workload.operations(inp, setup_data)
    return {
        "wall_s": wall,
        "attempted": operations,
        "failed": operations,
        "problems": [f"timed run raised:\n{error}"],
    }


def _timed_child(workload, inp, setup_data, traced: bool) -> dict:
    """Body of one forked timed run; returns a JSON-able report."""
    trace = None
    if traced:
        from layers import LayerTrace

        trace = LayerTrace()
        trace.install()
    t0 = time.perf_counter()
    error = None
    try:
        output = workload.run(inp)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    if trace is not None:
        trace.uninstall()
    if error is None:
        try:
            attempted, problems = workload.check(inp, output, setup_data)
        except Exception:
            error = traceback.format_exc()
    if error is None:
        report = {"wall_s": wall, "attempted": attempted, "failed": len(problems),
                  "problems": problems}
    else:
        report = _failed_report(workload, inp, setup_data, wall, error)
    if trace is not None:
        report["layers"] = trace.metrics()
    return report


def timed_run(workload, inp, setup_data, traced: bool = False) -> dict:
    """Fork, run one timed run in the child, return its report plus the
    child's peak RSS."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(read_fd)
            payload = json.dumps(_timed_child(workload, inp, setup_data, traced))
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        data = payload.encode()
        while data:
            data = data[os.write(write_fd, data):]
        os.close(write_fd)
        os._exit(code)
    os.close(write_fd)
    t0 = time.perf_counter()
    chunks = []
    with os.fdopen(read_fd, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    try:
        report = json.loads(b"".join(chunks))
    except ValueError:
        report = {"error": "the child wrote no report"}
    if "error" in report or status != 0:
        error = f"{report.get('error', '')} (exit status {status})"
        report = _failed_report(workload, inp, setup_data, time.perf_counter() - t0, error)
        if traced:
            from layers import LayerTrace

            report["layers"] = LayerTrace().metrics()
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return report


def measure(workload, name: str, bench_seed: int, seconds: float, trace: bool, setup_data) -> dict:
    if trace:
        inp = workload.inputs(TRACE_SEED)[0]
        plan = [(inp, False), (inp, True)]
    else:
        plan = [(inp, False) for inp in workload.inputs(bench_seed)]
    probes = 0 if trace else SETUP_PROBES
    setup_times: List[float] = []
    runs: List[tuple] = []
    t0 = time.perf_counter()
    while not runs or time.perf_counter() - t0 < seconds:
        # Whole cycles only, so every invocation weighs each input equally.
        for inp, traced in plan:
            # probe i is due at i / probes of the window
            while len(setup_times) < probes and (
                time.perf_counter() - t0 >= len(setup_times) * seconds / probes
            ):
                setup_times.append(_probe_setup(name))
            runs.append((traced, timed_run(workload, inp, setup_data, traced)))
    while len(setup_times) < probes:
        setup_times.append(_probe_setup(name))
    result = summarize(runs, trace)
    if setup_times:
        setup_s = statistics.median(setup_times)
        each = ", ".join(f"{t:.3f}" for t in setup_times)
        print(f"setup_s: median of {len(setup_times)} fresh processes: {setup_s:.4f} s ({each})")
        result["metrics"]["setup_s"] = (setup_s, "s")
    return result


def summarize(runs, trace: bool) -> dict:
    plain = [r for traced, r in runs if not traced]
    traced = [r for t, r in runs if t]
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    for _, r in runs:
        for p in r["problems"]:
            print(f"FAILED {p}")
    wall = statistics.fmean(r["wall_s"] for r in plain)
    each = ", ".join(f"{r['wall_s']:.3f}" for r in plain)
    print(f"wall_s: mean of {len(plain)} untraced timed runs: {wall:.4f} s ({each})")
    result = {"attempted": attempted, "failed": failed}
    if not trace:
        result["metrics"] = {
            "wall_s": (wall, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
        return result
    traced_wall = statistics.fmean(r["wall_s"] for r in traced)
    print(f"traced wall_s: mean of {len(traced)} traced runs: {traced_wall:.4f} s")
    metrics = {name: tuple(v) for name, v in traced[0]["layers"].items()}
    for name, (value, unit) in metrics.items():
        if unit in ("s", "ms", "1/s"):
            metrics[name] = (statistics.fmean(r["layers"][name][0] for r in traced), unit)
    samples = sum(r["layers"]["bench.samples"][0] for r in traced)
    for name, (_, unit) in metrics.items():
        if unit == "fraction":
            pooled = sum(r["layers"][name][0] * r["layers"]["bench.samples"][0] for r in traced)
            metrics[name] = (pooled / samples if samples else 0.0, unit)
    metrics["bench.samples"] = (samples, "count")
    metrics["bench.trace_overhead"] = (traced_wall / wall - 1.0, "fraction")
    print(f"sampled self time by layer ({samples} samples, "
          f"trace overhead {metrics['bench.trace_overhead'][0]:+.1%}):")
    for name, (share, unit) in sorted(metrics.items(), key=lambda kv: -kv[1][0]):
        if name.endswith(".self_share"):
            layer = name[: -len(".self_share")]
            print(f"  {layer:<12} {round(share * samples):>7} {share:7.1%}")
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="repro-quick")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--write-golden", action="store_true",
        help="recompute perfbench/golden.json from the current simulator",
    )
    args = parser.parse_args(argv)
    _require_source()
    import cases

    if args.write_golden:
        cases.write_golden()
        print(f"wrote {cases.GOLDEN_PATH}")
        return 0
    if args.workload not in cases.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(cases.WORKLOADS)}")
    workload = cases.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup()
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    setup_data = workload.setup()
    result = measure(workload, args.workload, args.seed, args.seconds, bool(args.trace), setup_data)
    doc = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
