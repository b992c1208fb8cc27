"""Logical shadow-array state for the software LRPD test.

Each element of a shadow array conceptually holds the iteration number
in which the mark was made (paper §2.2.2: "each element of the shadow
arrays holds the iteration number where the read or write occurred...
if we want to support loops of up to 2^16 iterations we need 2 bytes
per element").  The processor-wise variant only needs one bit per
element, packed 64 to a word (§2.2.3).

The marking rules:

* ``markwrite(i, t)``: set ``Aw[i]``; if ``Ar[i]`` was marked earlier in
  the *same* iteration ``t``, clear it (the element turned out to be
  written in the iteration after all, so condition (b)'s "neither
  before nor after" no longer holds).  Count distinct elements written
  per iteration into ``Atw``.
* ``markread(i, t)``: if the element was not written earlier in
  iteration ``t``: tentatively set ``Ar[i]`` and set ``Anp[i]``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional


class ArrayShadow:
    """Private shadow state of one (array, processor) pair.

    Timestamps are 1-based iteration numbers; 0 means unmarked.  Marks
    are sparse, so each shadow array is a dict from element to time
    stamp: an absent element reads as 0.
    """

    def __init__(self, length: int, with_awmin: bool = False) -> None:
        self.length = length
        self.aw: Dict[int, int] = {}
        self.ar: Dict[int, int] = {}
        self.anp: Dict[int, int] = {}
        #: §2.2.3: the extra shadow array needed to support read-in and
        #: copy-out — the lowest iteration that wrote each element
        #: (absent = never written).
        self.with_awmin = with_awmin
        self.awmin: Optional[Dict[int, int]] = {} if with_awmin else None
        #: total writes counted iteration-by-iteration (the Atw scalar)
        self.atw = 0

    def clear(self) -> None:
        self.aw.clear()
        self.ar.clear()
        self.anp.clear()
        if self.awmin is not None:
            self.awmin.clear()
        self.atw = 0

    # ------------------------------------------------------------------
    def markwrite(self, index: int, iteration: int) -> None:
        aw = self.aw
        if aw.get(index, 0) != iteration:
            # First write to this element in this iteration.
            self.atw += 1
            aw[index] = iteration
            awmin = self.awmin
            if awmin is not None and iteration < awmin.get(index, iteration + 1):
                awmin[index] = iteration
        ar = self.ar
        if ar.get(index) == iteration:
            # A read earlier in this same iteration is now covered
            # "after": Ar must reflect "not written in this iteration
            # neither before nor after".
            del ar[index]

    def markread(self, index: int, iteration: int) -> None:
        if self.aw.get(index, 0) != iteration:
            # Not written earlier in this iteration.  Ar is only set when
            # currently unmarked: an older iteration's (final) mark must
            # not be overwritten by this iteration's *tentative* mark,
            # which a later same-iteration write would clear.
            self.ar.setdefault(index, iteration)
            self.anp[index] = iteration

    def written_in(self, index: int, iteration: int) -> bool:
        return self.aw.get(index, 0) == iteration

    def ever_written(self, index: int) -> bool:
        return index in self.aw


@dataclasses.dataclass
class ShadowMergeResult:
    """Merged (global) shadow marks for one array, as sparse dicts.

    ``anp`` carries per-element *maximum* read-before-write iteration
    numbers and ``awmin`` (when the §2.2.3 extension is enabled) the
    per-element *minimum* writing iteration — together they answer the
    read-in/copy-out question ``max(Anp) <= Awmin``.
    """

    aw: Dict[int, int]
    ar: Dict[int, int]
    anp: Dict[int, int]
    atw: int
    awmin: Optional[Dict[int, int]] = None

    @property
    def atm(self) -> int:
        """Number of distinct elements written anywhere (Atm)."""
        return len(self.aw)


def _merge_max(merged: Dict[int, int], marks: Dict[int, int]) -> None:
    for index, stamp in marks.items():
        if stamp > merged.get(index, 0):
            merged[index] = stamp


class LRPDState:
    """All shadow state of one speculative software execution.

    One :class:`ArrayShadow` exists per (array under test, processor).
    The same structure implements the iteration-wise test (marks carry
    iteration numbers) and the processor-wise test (marks carry the
    processor's super-iteration number, i.e. its chunk rank).
    """

    def __init__(self, num_processors: int, with_awmin: bool = False) -> None:
        self.num_processors = num_processors
        self.with_awmin = with_awmin
        self._shadows: Dict[str, List[ArrayShadow]] = {}
        #: whether each array was speculatively privatized by the compiler
        self.privatized: Dict[str, bool] = {}

    def register(self, name: str, length: int, privatized: bool) -> None:
        self._shadows[name] = [
            ArrayShadow(length, with_awmin=self.with_awmin)
            for _ in range(self.num_processors)
        ]
        self.privatized[name] = privatized

    def arrays(self) -> List[str]:
        return list(self._shadows)

    def shadow(self, name: str, proc: int) -> ArrayShadow:
        return self._shadows[name][proc]

    def clear(self) -> None:
        for shadows in self._shadows.values():
            for shadow in shadows:
                shadow.clear()

    # ------------------------------------------------------------------
    def merge(self, name: str) -> ShadowMergeResult:
        """The merging phase: OR the private shadows into global ones.

        For timestamp shadows the merged mark only needs to be non-zero
        where any private mark is (the analysis tests are existential);
        the merge keeps the maximum, and ``Awmin`` the minimum.  It costs
        O(marks), not O(processors x length).
        """
        aw: Dict[int, int] = {}
        ar: Dict[int, int] = {}
        anp: Dict[int, int] = {}
        awmin: Optional[Dict[int, int]] = {} if self.with_awmin else None
        atw = 0
        for shadow in self._shadows[name]:
            _merge_max(aw, shadow.aw)
            _merge_max(ar, shadow.ar)
            _merge_max(anp, shadow.anp)
            if awmin is not None and shadow.awmin is not None:
                for index, stamp in shadow.awmin.items():
                    if stamp < awmin.get(index, stamp + 1):
                        awmin[index] = stamp
            atw += shadow.atw
        return ShadowMergeResult(aw=aw, ar=ar, anp=anp, atw=atw, awmin=awmin)
