"""The ``modelcheck`` command-line verb.

Usage::

    python -m repro modelcheck --protocol priv --procs 2 --elements 2
    python -m repro modelcheck --protocol all --json-out report.json
    python -m repro modelcheck --protocol priv --timestamp-bits 2 --iters 2

One exhaustive exploration plus four-way cross-check
(:func:`repro.modelcheck.check_config`) runs per selected
``(protocol, root)`` pair: every protocol picked by ``--protocol``,
the cold root always, and additionally the warm root for NONPRIV when
``--roots`` asks for it.  The exit status is the number of divergent
configurations (0 = every reachable terminal state agreed with the
serial predicate, the monitors, the dependence oracle and the scalar
engine).

The JSON report mirrors the run ledger's style: per-config state and
transition counts plus divergence details, stamped with the SHA-256
fingerprint of its own canonical rendering
(:func:`repro.obs.provenance.fingerprint`) less each report's
wall-clock ``elapsed_seconds``, so two identical checks stamp the same
fingerprint.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from ..obs.provenance import fingerprint
from ..types import ProtocolKind
from .crosscheck import CheckReport, check_config
from .model import ModelConfig

__all__ = ["main"]

_PROTOCOLS = {
    "nonpriv": ProtocolKind.NONPRIV,
    "priv": ProtocolKind.PRIV,
    "priv-simple": ProtocolKind.PRIV_SIMPLE,
    # underscore spelling accepted for shell convenience
    "priv_simple": ProtocolKind.PRIV_SIMPLE,
}


def _configs(args: argparse.Namespace) -> List[ModelConfig]:
    if args.protocol == "all":
        protocols = [
            ProtocolKind.NONPRIV, ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE
        ]
    else:
        protocols = [_PROTOCOLS[args.protocol]]
    faults = frozenset(args.fault or ())
    configs: List[ModelConfig] = []
    for protocol in protocols:
        ts: Optional[int] = (
            args.timestamp_bits if protocol is ProtocolKind.PRIV else None
        )
        roots = [False]
        if protocol is ProtocolKind.NONPRIV and args.roots in ("warm", "both"):
            roots = [True] if args.roots == "warm" else [False, True]
        for warm in roots:
            configs.append(
                ModelConfig(
                    protocol=protocol,
                    procs=args.procs,
                    elements=args.elements,
                    iters=args.iters,
                    ops_per_iter=args.ops,
                    timestamp_bits=ts,
                    warm=warm,
                    faults=faults,
                )
            )
    return configs


def _summary_line(report: CheckReport, elapsed: float) -> str:
    cfg = report.config
    root = "warm" if cfg.warm else "cold"
    ts = f" ts={cfg.timestamp_bits}" if cfg.timestamp_bits else ""
    verdict = "OK" if report.ok else f"DIVERGED({len(report.divergences)})"
    trunc = " TRUNCATED" if report.truncated else ""
    return (
        f"{cfg.protocol.value:12s} {root}{ts}  "
        f"states={report.states} transitions={report.transitions} "
        f"terminals={report.terminals} (done={report.done} "
        f"failed={report.failed}) programs={report.programs} "
        f"engine={report.engine_runs}run/{report.engine_skipped}skip  "
        f"{verdict}{trunc} [{elapsed:.1f}s]"
    )


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro modelcheck",
        description="Exhaustively model-check the speculation protocols "
        "on tiny configurations and cross-check every reachable terminal "
        "state against the serial predicate, the online monitors, the "
        "dependence oracle and the scalar engine.",
    )
    parser.add_argument(
        "--protocol", default="all",
        choices=("nonpriv", "priv", "priv-simple", "priv_simple", "all"),
        help="which speculation protocol(s) to check",
    )
    parser.add_argument("--procs", type=int, default=2,
                        help="number of processors (2-3 is exhaustive-sized)")
    parser.add_argument("--elements", type=int, default=2,
                        help="array elements (2-4)")
    parser.add_argument("--iters", type=int, default=1,
                        help="iterations per processor")
    parser.add_argument("--ops", type=int, default=2,
                        help="accesses per iteration (free-program mode "
                        "enumerates all read/write x element choices)")
    parser.add_argument(
        "--timestamp-bits", type=int, default=None,
        help="PRIV only: time-stamp width; switches the priv config to "
        "the round-robin (BLOCK_CYCLIC) numbering with epoch syncs",
    )
    parser.add_argument(
        "--roots", default="cold", choices=("cold", "warm", "both"),
        help="NONPRIV root state(s): cold caches, warm (pre-shared "
        "lines, exercises the First/ROnly update races), or both",
    )
    parser.add_argument(
        "--max-states", type=int, default=None,
        help="truncate the exploration at this many states (flagged in "
        "the report; tier-1 configs never need it)",
    )
    parser.add_argument(
        "--engine-cap", type=int, default=200,
        help="max concrete scalar-engine runs per config (0 = no cap; "
        "programs are deduplicated first)",
    )
    parser.add_argument("--no-engine", action="store_true",
                        help="skip the concrete engine cross-check")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report divergences without minimizing them")
    parser.add_argument(
        "--fault", action="append", default=None, metavar="NAME",
        help="disable the named FAIL guard (repeatable; test-only — "
        "the cross-checks must then catch the seeded bug)",
    )
    parser.add_argument("--json-out", default=None,
                        help="write the machine-readable report here")
    args = parser.parse_args(argv)

    reports: List[dict] = []
    total_div = 0
    for config in _configs(args):
        start = time.perf_counter()
        report = check_config(
            config,
            max_states=args.max_states,
            engine=not args.no_engine,
            engine_cap=args.engine_cap or None,
            minimize=not args.no_minimize,
        )
        elapsed = time.perf_counter() - start
        print(_summary_line(report, elapsed))
        for div in report.divergences:
            print()
            print(div.to_text())
        total_div += len(report.divergences)
        payload = report.to_dict()
        payload["elapsed_seconds"] = round(elapsed, 3)
        reports.append(payload)

    document = {
        "command": "modelcheck",
        "ok": total_div == 0,
        "divergences": total_div,
        "reports": reports,
    }
    # Fingerprint the checks' outcome, not the host's speed: equal
    # checks must stamp equal fingerprints.
    document["fingerprint"] = fingerprint(
        dict(document, reports=[
            {k: v for k, v in r.items() if k != "elapsed_seconds"}
            for r in reports
        ])
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.json_out} "
              f"(fingerprint {document['fingerprint'][:12]})")
    print(
        ("all configurations agree" if total_div == 0
         else f"{total_div} divergence(s) found")
        + f" across {len(reports)} configuration(s)"
    )
    return min(total_div, 125)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
