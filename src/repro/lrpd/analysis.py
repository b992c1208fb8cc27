"""The LRPD analysis phase (paper §2.2.2 steps (a)-(e))."""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from ..types import ProtocolKind
from .shadow import LRPDState, ShadowMergeResult


@dataclasses.dataclass
class ArrayAnalysis:
    """Per-array outcome of the analysis phase."""

    name: str
    passed: bool
    #: which test decided: "doall" (step c), "privatized" (step e),
    #: "aw-and-ar" (step b), "not-privatizable" (step d)
    decided_by: str
    atw: int
    atm: int


@dataclasses.dataclass
class LRPDOutcome:
    """Loop-level outcome of the software test."""

    passed: bool
    arrays: Dict[str, ArrayAnalysis]
    #: first failing array, if any
    failed_array: Optional[str] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


def analyze_array(
    name: str, merged: ShadowMergeResult, privatized: bool
) -> ArrayAnalysis:
    """Steps (a)-(e) for one array, plus the §2.2.3 read-in extension.

    (a) ``Atm`` = number of non-zero write marks.
    (b) FAIL if ``any(Aw & Ar)``.
    (c) PASS (doall) if ``Atw == Atm``.
    (d) FAIL if ``any(Aw & Anp)`` (only meaningful when privatized).
    (e) PASS (privatized doall) otherwise.
    (f) With the ``Awmin`` shadow array (§2.2.3): a FAIL from (b) or (d)
        is excused when every read-first iteration of every element is
        no later than the element's first writing iteration — the loop
        is then parallel with read-in and copy-out.

    The merged marks are sparse dicts, so (b) and (d) are key-set
    disjointness tests and (f) walks the ``Anp`` marks.
    """
    aw = merged.aw
    atm = merged.atm
    atw = merged.atw

    def read_in_rescue(decided_by: str) -> ArrayAnalysis:
        awmin = merged.awmin
        if privatized and awmin is not None:
            conflict = any(
                index in aw and stamp > awmin.get(index, 0)
                for index, stamp in merged.anp.items()
            )
            if not conflict:
                return ArrayAnalysis(name, True, "read-in-copy-out", atw, atm)
        return ArrayAnalysis(name, False, decided_by, atw, atm)

    if not aw.keys().isdisjoint(merged.ar):
        return read_in_rescue("aw-and-ar")
    if atw == atm:
        return ArrayAnalysis(name, True, "doall", atw, atm)
    if not privatized:
        # Without privatization, multiple writers to one element are an
        # output dependence the test cannot excuse.
        return ArrayAnalysis(name, False, "not-privatizable", atw, atm)
    if not aw.keys().isdisjoint(merged.anp):
        return read_in_rescue("not-privatizable")
    return ArrayAnalysis(name, True, "privatized", atw, atm)


def serial_access_verdict(
    protocol: ProtocolKind,
    rows: Iterable[Tuple[int, int, int, int]],
) -> bool:
    """The iteration-serial pass/fail verdict a protocol must reach.

    ``rows`` lists every access to one array as ``(proc, virt, elem,
    is_write)``, where ``virt`` is the virtual iteration number and
    rows of the same ``(proc, virt)`` appear in program order.  An
    access is *read-first* when it is the first access of its
    ``(proc, virt, elem)`` group and a read — the per-iteration tag/
    table bits make any later same-iteration access invisible to the
    protocols, so only these group-leading accesses matter:

    * NONPRIV fails iff some element is written and touched by two or
      more distinct processors (§3.1's privatization-free criterion);
    * PRIV fails iff some element has a read-first in a higher-numbered
      iteration than some write (max ``R1st`` > min ``W``, §3.2-§3.3 —
      exact for time-stamped runs too, since raw iteration order
      refines the per-epoch effective order plus ``WrittenPast``);
    * PRIV_SIMPLE fails iff some element has any read-first and any
      write at all (the §4.1 ``AnyR1st``/``AnyW`` reduction, which the
      per-processor ``WriteAny`` bit extends across iterations).

    Pure and interleaving-invariant: the model checker's ground truth
    for every terminal state, and what the minimizer re-tests against.
    """
    seen: set = set()
    read_first: Dict[int, List[int]] = {}
    writes: Dict[int, List[int]] = {}
    touched: Dict[int, set] = {}
    for proc, virt, elem, is_write in rows:
        touched.setdefault(elem, set()).add(proc)
        group = (proc, virt, elem)
        if is_write:
            writes.setdefault(elem, []).append(virt)
        elif group not in seen:
            read_first.setdefault(elem, []).append(virt)
        seen.add(group)
    if protocol is ProtocolKind.NONPRIV:
        return not any(len(touched[e]) > 1 for e in writes)
    if protocol is ProtocolKind.PRIV:
        return not any(
            e in read_first and max(read_first[e]) > min(writes[e])
            for e in writes
        )
    if protocol is ProtocolKind.PRIV_SIMPLE:
        return not any(e in read_first for e in writes)
    raise ValueError(f"no serial verdict defined for protocol {protocol}")


def analyze(state: LRPDState) -> LRPDOutcome:
    """Merge every array's shadows and run the analysis tests."""
    results: Dict[str, ArrayAnalysis] = {}
    failed: Optional[str] = None
    for name in state.arrays():
        merged = state.merge(name)
        result = analyze_array(name, merged, state.privatized[name])
        results[name] = result
        if not result.passed and failed is None:
            failed = name
    return LRPDOutcome(passed=failed is None, arrays=results, failed_array=failed)
