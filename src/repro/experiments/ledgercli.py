"""The ``ledger`` CLI verb family: query the provenance-keyed run archive.

::

    python -m repro.experiments ledger list [--kind run] [--limit 20]
    python -m repro.experiments ledger show <key-prefix>
    python -m repro.experiments ledger diff <key-a> <key-b>

The archive holds run records (``RunConfig(ledger=...)``, or ``sweep
--ledger-dir``) and diffsweep summaries (``diffsweep --ledger-dir``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..obs.ledger import LEDGER_DIR, RunLedger


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
        elif e["kind"] == "diffsweep":
            extra = f"{e.get('conforming')}/{e.get('seeds')} conforming"
        else:
            extra = e.get("label", "")
        print(f"  {e['key'][:12]}  {e['kind']:9s} {extra}")
    print(f"{len(entries)} record(s) in {ledger.root}")
    return 0


def _record(ledger: RunLedger, prefix: str):
    """The record a key prefix names; an unknown or ambiguous prefix
    is a usage error (exit 2), not a traceback."""
    try:
        return ledger.lookup(ledger.resolve(prefix))
    except KeyError as exc:
        print(f"ledger: {exc.args[0]}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_show(ledger: RunLedger, args) -> int:
    record = _record(ledger, args.key)
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
    a = _record(ledger, args.key_a)
    b = _record(ledger, args.key_b)
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
    p.add_argument("--kind", choices=("run", "diffsweep"))
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

    args = parser.parse_args(argv)
    if getattr(args, "limit", 0) < 0:
        parser.error(f"argument --limit: must be at least 0, got {args.limit}")
    try:
        return args.fn(RunLedger(args.ledger_dir), args)
    except BrokenPipeError:  # e.g. `ledger list | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
