"""The ``trace`` subcommand: one fully instrumented run, exported.

Runs a single speculative (HW-scenario) loop execution with the
telemetry layer attached and writes:

* a Chrome trace-event JSON (open in https://ui.perfetto.dev), and
* a JSONL event stream next to it (hits filtered; see
  ``repro.obs.export.write_jsonl``),

then prints the phase report and a metrics summary.
"""

from __future__ import annotations

import dataclasses
import os

from ..obs import Telemetry
from ..params import default_params
from ..runtime.driver import run_hw
from .figures import make_workload

#: processor count for the traced run — small enough that the Perfetto
#: timeline stays readable, large enough to show real interleaving
TRACE_PROCESSORS = 8


def run_trace(
    preset: str = "quick",
    seed: int = 2026,
    workload: str = "Adm",
    out: str = "repro-trace.json",
) -> str:
    w = make_workload(workload, preset, seed)
    loop = next(w.executions(1))
    params = default_params(TRACE_PROCESSORS)
    telemetry = Telemetry()
    config = dataclasses.replace(w.hw_config(), telemetry=telemetry)
    result = run_hw(loop, params, config)

    metadata = result.provenance.as_dict() if result.provenance else None
    trace_events = telemetry.write_chrome_trace(out, metadata=metadata)
    jsonl_path = os.path.splitext(out)[0] + ".jsonl"
    jsonl_lines = telemetry.write_jsonl(jsonl_path)

    reg = telemetry.registry
    subsystems = telemetry.events.subsystems()
    lines = [
        telemetry.phase_report(),
        "",
        f"outcome: {'PASS' if result.passed else 'FAIL'} "
        f"({result.wall:,.0f} cycles)",
        "events by subsystem: "
        + ", ".join(f"{k}={v}" for k, v in sorted(subsystems.items())),
        f"memory accesses: {reg.total('mem.accesses'):,} "
        f"(protocol messages: {reg.total('spec.messages'):,}, "
        f"directory transitions: {reg.total('dir.transitions'):,})",
    ]
    if result.provenance is not None:
        lines.append(f"config hash: {result.provenance.config_hash[:16]}")
    lines += [
        "",
        f"wrote {out} ({trace_events} trace events) — open in "
        "https://ui.perfetto.dev",
        f"wrote {jsonl_path} ({jsonl_lines} events)",
    ]
    return "\n".join(lines)
