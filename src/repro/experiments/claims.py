"""Executable reproduction claims.

EXPERIMENTS.md states which of the paper's claims reproduce; this
module makes each claim *checkable code*, so the verdict table can be
regenerated (and CI-guarded) rather than trusted.  ``evaluate_claims``
runs the evaluation once at the chosen preset and scores every claim.

Run from the CLI:  ``python -m repro.experiments verdict``
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from ..types import Scenario
from .figures import (
    RunStore,
    fig11_speedups,
    fig12_breakdown,
    fig13_failure,
    fig14_scalability,
    table2_state,
)


@dataclasses.dataclass
class ClaimResult:
    claim_id: str
    description: str
    passed: bool
    detail: str


@dataclasses.dataclass
class EvaluationData:
    """One shared simulation pass feeding all claims."""

    fig11: list
    fig12: list
    fig13: list
    fig14: list
    table2: list


def gather(
    preset: str = "quick", seed: int = 2026, runs: Optional[RunStore] = None
) -> EvaluationData:
    """Build every figure the claims read.  Figs 11–14 share one
    :data:`~.figures.RunStore` (``runs``, or a fresh one), so each
    distinct run is simulated once, and not at all when ``runs``
    already holds it."""
    runs = {} if runs is None else runs
    return EvaluationData(
        fig11=fig11_speedups(preset, seed=seed, runs=runs),
        fig12=fig12_breakdown(preset, seed=seed, runs=runs),
        fig13=fig13_failure(preset, seed=seed, runs=runs),
        fig14=fig14_scalability(preset, seed=seed, runs=runs),
        table2=table2_state(),
    )


def _claim_ordering(data: EvaluationData) -> ClaimResult:
    bad = [
        r.workload
        for r in data.fig11
        if not (r.sw <= r.hw * 1.05 and r.hw <= r.ideal * 1.05)
    ]
    return ClaimResult(
        "C1",
        "HW sits between SW and Ideal on every loop (Fig 11)",
        not bad,
        "ok" if not bad else f"violated on {bad}",
    )


def _claim_ratio(data: EvaluationData) -> ClaimResult:
    hw = sum(r.hw for r in data.fig11) / len(data.fig11)
    sw = sum(r.sw for r in data.fig11) / len(data.fig11)
    ratio = hw / sw
    return ClaimResult(
        "C2",
        "HW ~2x faster than SW on average (paper: 6.7 vs 2.9)",
        ratio > 1.5,
        f"measured ratio {ratio:.2f}",
    )


def _claim_sw_busier(data: EvaluationData) -> ClaimResult:
    by_key = {(r.workload, r.scenario): r for r in data.fig12}
    bad = [
        name
        for name in ("Ocean", "P3m", "Adm", "Track")
        if by_key[(name, Scenario.SW)].busy <= by_key[(name, Scenario.HW)].busy
    ]
    return ClaimResult(
        "C3",
        "SW's marking/analysis instructions raise Busy over HW (Fig 12)",
        not bad,
        "ok" if not bad else f"violated on {bad}",
    )


def _claim_failure_cost(data: EvaluationData) -> ClaimResult:
    by_key = {(r.workload, r.scenario): r for r in data.fig13}
    names = ("Ocean", "P3m", "Adm", "Track")
    hw = sum(by_key[(n, Scenario.HW)].normalized_time for n in names) / len(names)
    sw = sum(by_key[(n, Scenario.SW)].normalized_time for n in names) / len(names)
    ok = hw < sw and hw < 1.6
    return ClaimResult(
        "C4",
        "failed speculation: HW near Serial, SW much slower (Fig 13; "
        "paper: +22% vs +58%)",
        ok,
        f"HW +{100 * (hw - 1):.0f}%, SW +{100 * (sw - 1):.0f}%",
    )


def _claim_early_detection(data: EvaluationData) -> ClaimResult:
    missing = [
        r.workload
        for r in data.fig13
        if r.scenario is Scenario.HW and r.detection_cycle is None
    ]
    return ClaimResult(
        "C5",
        "HW detects the dependence on the fly (detection cycle recorded)",
        not missing,
        "ok" if not missing else f"no detection cycle for {missing}",
    )


def _claim_scalability(data: EvaluationData) -> ClaimResult:
    by_key = {(r.workload, r.num_processors): r for r in data.fig14}
    names = sorted({r.workload for r in data.fig14})
    bad = []
    for name in names:
        hw_gain = by_key[(name, 16)].hw / by_key[(name, 8)].hw
        sw_gain = by_key[(name, 16)].sw / by_key[(name, 8)].sw
        if hw_gain < sw_gain * 0.9 or hw_gain <= 1.0:
            bad.append(name)
    return ClaimResult(
        "C6",
        "HW scales 8 -> 16 processors better than SW (Fig 14)",
        not bad,
        "ok" if not bad else f"violated on {bad}",
    )


def _claim_state_cost(data: EvaluationData) -> ClaimResult:
    bad = [r for r in data.table2 if r.hw_bits >= r.sw_bits]
    return ClaimResult(
        "C7",
        "HW needs less per-element test state than SW (§3.4)",
        not bad,
        "ok" if not bad else "hardware state not smaller",
    )


CLAIMS: List[Callable[[EvaluationData], ClaimResult]] = [
    _claim_ordering,
    _claim_ratio,
    _claim_sw_busier,
    _claim_failure_cost,
    _claim_early_detection,
    _claim_scalability,
    _claim_state_cost,
]


def evaluate_claims(
    preset: str = "quick", seed: int = 2026, data: "EvaluationData | None" = None
) -> List[ClaimResult]:
    data = data or gather(preset, seed)
    return [claim(data) for claim in CLAIMS]


def render_verdict(results: List[ClaimResult]) -> str:
    lines = [
        "Reproduction verdict (executable claims)",
        "-" * 72,
    ]
    for r in results:
        status = "REPRODUCED" if r.passed else "NOT REPRODUCED"
        lines.append(f"{r.claim_id}  {status:<15} {r.description}")
        lines.append(f"    {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append("-" * 72)
    lines.append(f"{passed}/{len(results)} claims reproduced")
    return "\n".join(lines)
