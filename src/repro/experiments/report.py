"""Plain-text rendering of the experiment results."""

from __future__ import annotations

from typing import List, Sequence

from ..types import Scenario
from .figures import (
    Fig11Row,
    Fig12Row,
    Fig13Row,
    Fig14Row,
    Table1Row,
    Table2Row,
    Table3Row,
)


def _rule(width: int = 72) -> str:
    return "-" * width


def render_fig11(rows: Sequence[Fig11Row]) -> str:
    lines = [
        "Figure 11 — speedups of the parallel executions "
        "(Ocean on 8 processors, the rest on 16)",
        _rule(),
        f"{'loop':<8} {'procs':>5} {'Ideal':>8} {'SW':>8} {'HW':>8} {'HW/SW':>7}",
        _rule(),
    ]
    for r in rows:
        ratio = r.hw / r.sw if r.sw else float("nan")
        lines.append(
            f"{r.workload:<8} {r.num_processors:>5} {r.ideal:>8.2f} "
            f"{r.sw:>8.2f} {r.hw:>8.2f} {ratio:>7.2f}"
        )
    hw16 = [r.hw for r in rows if r.num_processors == 16]
    sw16 = [r.sw for r in rows if r.num_processors == 16]
    if hw16:
        lines.append(_rule())
        lines.append(
            f"{'avg@16':<8} {'':>5} {'':>8} "
            f"{sum(sw16) / len(sw16):>8.2f} {sum(hw16) / len(hw16):>8.2f}"
        )
    return "\n".join(lines)


def render_fig12(rows: Sequence[Fig12Row]) -> str:
    lines = [
        "Figure 12 — execution time breakdown (normalized to Serial)",
        _rule(),
        f"{'loop':<8} {'scenario':<9} {'Busy':>7} {'Sync':>7} {'Mem':>7} {'Total':>7}",
        _rule(),
    ]
    last = None
    for r in rows:
        if last is not None and r.workload != last:
            lines.append("")
        last = r.workload
        lines.append(
            f"{r.workload:<8} {r.scenario.value + str(r.num_processors):<9} "
            f"{r.busy:>7.3f} {r.sync:>7.3f} {r.mem:>7.3f} {r.total:>7.3f}"
        )
    return "\n".join(lines)


def render_fig13(rows: Sequence[Fig13Row]) -> str:
    lines = [
        "Figure 13 — execution time when the test fails (normalized to Serial)",
        _rule(),
        f"{'loop':<8} {'scenario':<8} {'time':>7}  {'Busy':>6} {'Sync':>6} {'Mem':>6}  {'detect@':>9}",
        _rule(),
    ]
    last = None
    for r in rows:
        if last is not None and r.workload != last:
            lines.append("")
        last = r.workload
        detect = f"{r.detection_cycle:.0f}" if r.detection_cycle is not None else "-"
        lines.append(
            f"{r.workload:<8} {r.scenario.value:<8} {r.normalized_time:>7.2f}  "
            f"{r.breakdown.busy:>6.2f} {r.breakdown.sync:>6.2f} "
            f"{r.breakdown.mem:>6.2f}  {detect:>9}"
        )
    hw = [r.normalized_time for r in rows if r.scenario is Scenario.HW]
    sw = [r.normalized_time for r in rows if r.scenario is Scenario.SW]
    lines.append(_rule())
    lines.append(
        f"average overhead vs Serial:  HW {100 * (sum(hw) / len(hw) - 1):.0f}%   "
        f"SW {100 * (sum(sw) / len(sw) - 1):.0f}%"
    )
    return "\n".join(lines)


def render_fig14(rows: Sequence[Fig14Row]) -> str:
    lines = [
        "Figure 14 — scalability of the software and hardware schemes",
        _rule(),
        f"{'loop':<8} {'procs':>5} {'Ideal':>8} {'SW':>8} {'HW':>8}",
        _rule(),
    ]
    last = None
    for r in rows:
        if last is not None and r.workload != last:
            lines.append("")
        last = r.workload
        lines.append(
            f"{r.workload:<8} {r.num_processors:>5} {r.ideal:>8.2f} "
            f"{r.sw:>8.2f} {r.hw:>8.2f}"
        )
    return "\n".join(lines)


def render_table1(rows: Sequence[Table1Row]) -> str:
    lines = [
        "Table 1 — workload characteristics (paper §5.2 vs surrogate)",
        _rule(90),
    ]
    for r in rows:
        lines.append(f"{r.name} ({r.source_loop}), {r.num_processors} processors")
        lines.append(f"  paper executions:   {r.paper_executions}")
        lines.append(f"  iterations:         {r.typical_iterations}")
        lines.append(f"  working set:        {r.working_set}")
        lines.append(f"  element bytes:      {r.element_bytes}")
        lines.append(f"  algorithm:          {r.algorithm}")
        lines.append(
            f"  surrogate: ~{r.measured_accesses} accesses/execution, "
            f"{100 * r.measured_marked_fraction:.0f}% to arrays under test"
        )
        lines.append("")
    return "\n".join(lines)


def render_table2(rows: Sequence[Table2Row]) -> str:
    lines = [
        "Table 2 — per-element dependence-test state, in bits (§3.4)",
        _rule(),
        f"{'procs':>6} {'read-in':>8} {'HW bits':>8} {'SW bits':>8}",
        _rule(),
    ]
    for r in rows:
        lines.append(
            f"{r.num_processors:>6} {'yes' if r.read_in else 'no':>8} "
            f"{r.hw_bits:>8} {r.sw_bits:>8}"
        )
    return "\n".join(lines)


def render_table3(rows: Sequence[Table3Row]) -> str:
    lines = [
        "Table 3 — extra traffic per access to an array under test (§3.2)",
        _rule(78),
        f"{'loop':<8} {'marked':>8} {'HW msgs':>8} {'HW/acc':>7} "
        f"{'SW shadow':>10} {'SW/acc':>7}",
        _rule(78),
    ]
    for r in rows:
        lines.append(
            f"{r.workload:<8} {r.marked_accesses:>8} {r.hw_messages:>8} "
            f"{r.hw_messages_per_marked_access:>7.2f} "
            f"{r.sw_shadow_accesses:>10} {r.sw_shadow_per_marked_access:>7.2f}"
        )
    return "\n".join(lines)
