"""The ``ledger`` CLI verb family: query the provenance-keyed run archive.

::

    python -m repro.experiments ledger list [--kind run] [--limit 20]
    python -m repro.experiments ledger show <key-prefix>
    python -m repro.experiments ledger diff <key-a> <key-b>
    python -m repro.experiments ledger import BENCH_PR3.json BENCH_PR4.json ...
    python -m repro.experiments ledger trend
    python -m repro.experiments ledger regressions [--window 5]

``trend`` reconstructs the per-engine bare-loop throughput timeline
from the archived bench records (seed the history by ``import``-ing the
committed ``BENCH_PR*.json`` snapshots); ``regressions`` generalizes
:mod:`repro.experiments.benchdiff` from a one-pair compare to the
newest record against the median of the previous N.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..obs.ledger import (
    LEDGER_DIR,
    RunLedger,
    bench_bare_series,
    median_bench_baseline,
)
from . import benchdiff

#: column order for bench history; documents before the batch engine was
#: folded into scalar still carry a ``batch`` column.
ENGINE_ORDER = ("scalar", "batch", "vector")


def _engines_sorted(bare: dict) -> List[str]:
    known = [e for e in ENGINE_ORDER if e in bare]
    return known + sorted(set(bare) - set(known))


def _cmd_list(ledger: RunLedger, args) -> int:
    entries = list(ledger.records(kind=args.kind))
    if args.limit:
        entries = entries[-args.limit:]
    if not entries:
        print("ledger: no records")
        return 0
    for e in entries:
        extra = ""
        if e["kind"] == "run":
            verdict = "pass" if e.get("passed") else "FAIL"
            extra = (
                f"{e.get('scenario')} "
                f"{e.get('loop')!r} {verdict} "
                f"wall={e.get('wall_cycles'):.0f}"
            )
        elif e["kind"] == "bench":
            bare = e.get("bare_iters_per_s") or {}
            extra = e.get("label", "") + "  " + "  ".join(
                f"{eng} {bare[eng]:,.0f}/s" for eng in _engines_sorted(bare)
            )
        elif e["kind"] == "diffsweep":
            extra = f"{e.get('conforming')}/{e.get('seeds')} conforming"
        else:
            extra = e.get("label", "")
        print(f"  {e['key'][:12]}  {e['kind']:9s} {extra}")
    print(f"{len(entries)} record(s) in {ledger.root}")
    return 0


def _cmd_show(ledger: RunLedger, args) -> int:
    record = ledger.lookup(ledger.resolve(args.key))
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


def _flatten(doc, prefix=""):
    """``dotted.path -> scalar`` over nested dicts/lists for diffing."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, doc


def _cmd_diff(ledger: RunLedger, args) -> int:
    a = ledger.lookup(ledger.resolve(args.key_a))
    b = ledger.lookup(ledger.resolve(args.key_b))
    flat_a = dict(_flatten(a))
    flat_b = dict(_flatten(b))
    differing = sorted(
        path
        for path in set(flat_a) | set(flat_b)
        if flat_a.get(path) != flat_b.get(path)
    )
    differing = [p for p in differing if not p.startswith("key")]
    if not differing:
        print("records are identical (apart from their keys)")
        return 0
    print(f"{len(differing)} differing field(s):")
    for path in differing:
        print(f"  {path}: {flat_a.get(path)!r} -> {flat_b.get(path)!r}")
    return 0


def _cmd_import(ledger: RunLedger, args) -> int:
    for path in args.files:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("benchmark") != "simulator-throughput" and "bare" not in doc:
            print(f"  {path}: not a bench document, skipped")
            continue
        key, deduped = ledger.record_bench(doc, label=os.path.basename(path))
        status = "already archived" if deduped else "archived"
        print(f"  {key[:12]}  {status}  {os.path.basename(path)}")
    return 0


def _cmd_trend(ledger: RunLedger, args) -> int:
    series = bench_bare_series(ledger.bench_history())
    if not series:
        print("ledger trend: no bench records (seed with "
              "'ledger import BENCH_PR*.json')")
        return 0
    print("ledger trend: bare-loop iterations/s per engine "
          "(oldest -> newest)")
    width = max(len(label) for label, _ in series)
    for label, bare in series:
        cells = "  ".join(
            f"{engine} {bare[engine]:,.0f}" for engine in _engines_sorted(bare)
        )
        print(f"  {label:<{width}}  {cells}")
    first, last = series[0][1], series[-1][1]
    if first and last:
        lo = min(first.values())
        hi = max(last.values())
        print(f"  best-engine trajectory: {lo:,.0f} -> {hi:,.0f} iters/s "
              f"({hi / lo:.1f}x over {len(series)} records)")
    return 0


def _cmd_regressions(ledger: RunLedger, args) -> int:
    history = ledger.bench_history()
    if len(history) < 2:
        print("ledger regressions: need at least 2 bench records")
        return 0
    window = history[-(args.window + 1):-1]
    newest = history[-1]
    baseline = median_bench_baseline(window)
    report, regressions = benchdiff.compare(
        baseline, newest["bench"], args.threshold
    )
    print(
        f"ledger regressions: {newest['label'] or newest['key'][:12]} vs "
        f"median of previous {len(window)} record(s), "
        f"threshold {args.threshold:.0f}%"
    )
    for line in report:
        print(line)
    for regression in regressions:
        print(f"::warning::bench regression: {regression}")
    if not regressions:
        print(f"no cell slowed by more than {args.threshold:.0f}%")
    return 1 if (args.strict and regressions) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments ledger",
        description="Query the provenance-keyed run ledger.",
    )
    parser.add_argument(
        "--ledger-dir",
        default=os.environ.get("REPRO_LEDGER_DIR", LEDGER_DIR),
        help="ledger root directory (default %(default)s, or "
        "$REPRO_LEDGER_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="timeline of archived records")
    p.add_argument("--kind", choices=("run", "bench", "diffsweep", "sweep"))
    p.add_argument("--limit", type=int, default=0,
                   help="only the newest N records")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("show", help="print one full record")
    p.add_argument("key", help="record key (abbreviations accepted)")
    p.set_defaults(fn=_cmd_show)

    p = sub.add_parser("diff", help="field-level diff of two records")
    p.add_argument("key_a")
    p.add_argument("key_b")
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("import",
                       help="seed bench history from BENCH_PR*.json files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_import)

    p = sub.add_parser("trend",
                       help="per-engine iters/s timeline from bench records")
    p.set_defaults(fn=_cmd_trend)

    p = sub.add_parser(
        "regressions",
        help="newest bench record vs the median of the previous N",
    )
    p.add_argument("--window", type=int, default=5,
                   help="number of prior records in the median baseline")
    p.add_argument("--threshold", type=float, default=15.0,
                   help="warn when a cell slows by more than this pct")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on regressions instead of only warning")
    p.set_defaults(fn=_cmd_regressions)

    args = parser.parse_args(argv)
    try:
        return args.fn(RunLedger(args.ledger_dir), args)
    except BrokenPipeError:  # e.g. `ledger list | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
