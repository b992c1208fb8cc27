"""Kernel verdict oracle: the hardware scheme's FAIL conditions as
whole-loop array reductions.

The paper's FAIL conditions are predicates over a loop's whole access
trace, independent of how the accesses interleave:

* §3.2 non-privatization: an element touched by two or more processors
  and written at least once;
* §3.3 privatization: an element whose ``MaxR1st > MinW`` — a read-first
  in a later iteration than some write of the element;
* §4.1 reduced-state privatization: an element with both a read-first
  and a write anywhere in the loop.

:func:`failing_elements` walks the same per-processor op streams the
scalar engine executes (:func:`~repro.runtime.executor.loop_streams`,
so scheduling, virtual numbering, time-stamp epochs and their
``SchedulingError`` cases are shared, not re-implemented), records every
access as flat numpy rows, and evaluates one kernel per protocol.  Each
kernel returns its protocol's failing-element set; an empty set means
PASS.  :mod:`repro.testing.diffcheck` holds the op-by-op protocols to
these sets: scalar FAILs exactly when some set is non-empty, and its
FAIL element lies in the set of its array.

Only static schedules are decided.  A dynamically self-scheduled loop's
iteration-to-processor map emerges from the simulated timing, which
only the op-by-op engine knows, so the oracle declines it (returns
``None``) and counts one ``vector.delegations`` on the ambient span
profiler.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set

import numpy as np

from ..obs import spans
from ..params import MachineParams
from ..runtime.executor import loop_streams
from ..runtime.schedule import SchedulePolicy
from ..sim.processor import EpochSyncOp, IterBeginOp
from ..trace.loop import Loop
from ..trace.ops import AccessOp
from ..types import ProtocolKind

#: ``MinW`` of an element no iteration writes
_NEVER = 2**62


@dataclasses.dataclass
class _Extraction:
    """Flat access record of the whole loop.

    One row per shared-memory access, rows grouped by processor and in
    program order within each processor (the order every group-wise
    kernel requires).  ``raws`` are whole-loop virtual ordinals: with
    time-stamp epochs, ``epoch * capacity + effective ordinal``.
    """

    procs: np.ndarray
    aids: np.ndarray
    elems: np.ndarray
    writes: np.ndarray
    raws: np.ndarray


def _extract(loop: Loop, params: MachineParams, config) -> _Extraction:
    """Walk the real per-processor op streams and record every access."""
    num = params.num_processors
    streams = loop_streams(
        loop, config.schedule, num, params.cost,
        timestamp_bits=config.timestamp_bits,
    )
    bits = config.timestamp_bits
    capacity = 2 ** bits - 1 if bits is not None else 0
    aid_of = {spec.name: i for i, spec in enumerate(loop.arrays)}

    procs: List[int] = []
    aids: List[int] = []
    elems: List[int] = []
    writes: List[bool] = []
    raws: List[int] = []
    for proc in range(num):
        epoch = raw = 0
        for op in streams[proc]:
            cls = type(op)
            if cls is AccessOp:
                procs.append(proc)
                aids.append(aid_of[op.array])
                elems.append(op.index)
                writes.append(not op.is_read)
                raws.append(raw)
            elif cls is IterBeginOp:
                raw = epoch * capacity + op.virtual
            elif cls is EpochSyncOp:
                epoch = op.epoch
    return _Extraction(
        procs=np.asarray(procs, dtype=np.int64),
        aids=np.asarray(aids, dtype=np.int64),
        elems=np.asarray(elems, dtype=np.int64),
        writes=np.asarray(writes, dtype=bool),
        raws=np.asarray(raws, dtype=np.int64),
    )


# ----------------------------------------------------------------------
# Group-wise reductions
# ----------------------------------------------------------------------
def read_first_rows(
    procs: np.ndarray, virts: np.ndarray, elems: np.ndarray, writes: np.ndarray
) -> np.ndarray:
    """Boolean mask of the rows that are *read-first* events.

    A row is a read-first when it is the first access of its
    ``(processor, virtual iteration, element)`` group — the condition
    under which the scalar protocols' per-iteration ``Read1st`` tag bit
    is set and a read-first signal travels to the directories — and that
    first access is a read.  Rows must be in per-processor program
    order; groups never span processors, so concatenation order across
    processors does not matter.
    """
    n = len(procs)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((np.arange(n), virts, elems, procs))
    p, v, e = procs[order], virts[order], elems[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (p[1:] != p[:-1]) | (v[1:] != v[:-1]) | (e[1:] != e[:-1])
    mask = np.zeros(n, dtype=bool)
    mask[order[first]] = True
    return mask & ~writes


def scatter_max(values: np.ndarray, index: np.ndarray, length: int,
                fill: int = 0) -> np.ndarray:
    """Per-element maximum of ``values`` grouped by ``index``."""
    out = np.full(length, fill, dtype=np.int64)
    np.maximum.at(out, index, values)
    return out


def scatter_min(values: np.ndarray, index: np.ndarray, length: int,
                fill: int) -> np.ndarray:
    """Per-element minimum of ``values`` grouped by ``index``."""
    out = np.full(length, fill, dtype=np.int64)
    np.minimum.at(out, index, values)
    return out


def scatter_or(index: np.ndarray, length: int) -> np.ndarray:
    """Boolean mask of the elements that appear in ``index``."""
    out = np.zeros(length, dtype=bool)
    out[index] = True
    return out


def distinct_procs(procs: np.ndarray, elems: np.ndarray,
                   length: int) -> np.ndarray:
    """Number of distinct processors touching each element."""
    out = np.zeros(length, dtype=np.int64)
    if len(procs) == 0:
        return out
    pairs = np.unique(elems.astype(np.int64) * 2**32 + procs)
    np.add.at(out, (pairs >> 32).astype(np.intp), 1)
    return out


def _as_set(mask: np.ndarray) -> Set[int]:
    return set(np.nonzero(mask)[0].tolist())


# ----------------------------------------------------------------------
# One kernel per protocol
# ----------------------------------------------------------------------
def nonpriv_failing(procs, elems, writes, length: int) -> Set[int]:
    """§3.2: elements neither read-only nor accessed by a single
    processor — touched by two or more processors and written at least
    once.  The scalar protocol detects exactly these, through whichever
    of the Fig 6/7 paths the interleaving takes (tag check, directory
    check, First_update race or writeback merge at the loop-end
    commit)."""
    written = scatter_or(elems[writes], length)
    return _as_set((distinct_procs(procs, elems, length) >= 2) & written)


def priv_failing(rf_rows, virts, elems, writes, length: int) -> Set[int]:
    """§3.3: elements whose ``MaxR1st > MinW``.

    ``virts`` are whole-loop ordinals.  With time-stamp epochs the
    scalar engine numbers each epoch's iterations from one and resets
    ``MaxR1st``/``MinW`` at every epoch barrier, carrying earlier writes
    as the sticky ``written_past`` bit.  Comparing whole-loop ordinals
    is equivalent: within an epoch both orderings agree, and a
    read-first in a later epoch than any write has a strictly greater
    ordinal — exactly the ``written_past`` FAIL.
    """
    max_r1st = scatter_max(virts[rf_rows], elems[rf_rows], length)
    min_w = scatter_min(virts[writes], elems[writes], length, fill=_NEVER)
    return _as_set(max_r1st > min_w)


def priv_simple_failing(rf_rows, elems, writes, length: int) -> Set[int]:
    """§4.1 reduced state: elements with both a read-first event and a
    write anywhere in the loop."""
    return _as_set(
        scatter_or(elems[rf_rows], length) & scatter_or(elems[writes], length)
    )


def failing_elements(
    loop: Loop, params: MachineParams, config
) -> Optional[Dict[str, Set[int]]]:
    """``{array: failing element indexes}`` for every array under test,
    or ``None`` when the oracle declines a dynamic schedule.

    The loop PASSes iff every set is empty.  With ``per_line_bits`` the
    non-privatization sets hold line (meta-element) indexes, the
    granularity the scalar protocol attributes its FAIL to.
    """
    if config.schedule.policy is SchedulePolicy.DYNAMIC:
        prof = spans.current()
        if prof is not None:
            prof.count("vector.delegations")
        return None
    ext = _extract(loop, params, config)
    aid_of = {spec.name: i for i, spec in enumerate(loop.arrays)}
    out: Dict[str, Set[int]] = {}
    for spec in loop.arrays_under_test():
        rows = ext.aids == aid_of[spec.name]
        procs = ext.procs[rows]
        elems = ext.elems[rows]
        writes = ext.writes[rows]
        if spec.protocol is ProtocolKind.NONPRIV:
            length = spec.length
            if config.per_line_bits:
                epl = params.elems_per_line(spec.elem_bytes)
                elems = elems // epl
                length = -(-length // epl)
            out[spec.name] = nonpriv_failing(procs, elems, writes, length)
            continue
        raws = ext.raws[rows]
        rf = read_first_rows(procs, raws, elems, writes)
        if spec.protocol is ProtocolKind.PRIV:
            out[spec.name] = priv_failing(rf, raws, elems, writes, spec.length)
        else:
            out[spec.name] = priv_simple_failing(rf, elems, writes, spec.length)
    return out
