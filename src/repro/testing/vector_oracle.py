"""Kernel verdict oracle: the hardware scheme's FAIL conditions as
whole-loop set computations.

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
access of each array under test as parallel plain-Python lists, and
evaluates one kernel per protocol with dicts and sets.  Each kernel
returns its protocol's failing-element set; an empty set means PASS.
:mod:`repro.testing.diffcheck` holds the op-by-op protocols to these
sets: scalar FAILs exactly when some set is non-empty, and its FAIL
element lies in the set of its array.  Nothing here imports numpy.

Only static schedules are decided.  A dynamically self-scheduled loop's
iteration-to-processor map emerges from the simulated timing, which
only the op-by-op engine knows, so the oracle declines it (returns
``None``) and counts one ``vector.delegations`` on the ambient span
profiler.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

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

#: One array's accesses as parallel lists ``(procs, elems, writes,
#: raws)``: one row per access, rows grouped by processor and in program
#: order within each processor (the order the read-first mask requires).
#: ``raws`` are whole-loop virtual ordinals: with time-stamp epochs,
#: ``epoch * capacity + effective ordinal``.
_Rows = Tuple[List[int], List[int], List[bool], List[int]]


def _extract(loop: Loop, params: MachineParams, config) -> Dict[str, _Rows]:
    """Walk the real per-processor op streams and record every access
    to an array under test, grouped by array."""
    num = params.num_processors
    streams = loop_streams(
        loop, config.schedule, num, params.cost,
        timestamp_bits=config.timestamp_bits,
    )
    bits = config.timestamp_bits
    capacity = 2 ** bits - 1 if bits is not None else 0
    rows: Dict[str, _Rows] = {
        spec.name: ([], [], [], []) for spec in loop.arrays_under_test()
    }
    for proc in range(num):
        epoch = raw = 0
        for op in streams[proc]:
            cls = type(op)
            if cls is AccessOp:
                group = rows.get(op.array)
                if group is not None:
                    procs, elems, writes, raws = group
                    procs.append(proc)
                    elems.append(op.index)
                    writes.append(not op.is_read)
                    raws.append(raw)
            elif cls is IterBeginOp:
                raw = epoch * capacity + op.virtual
            elif cls is EpochSyncOp:
                epoch = op.epoch
    return rows


def _read_first_rows(procs, virts, elems, writes) -> List[bool]:
    """Mask of the rows that are *read-first* events.

    A row is a read-first when it is the first access of its
    ``(processor, virtual iteration, element)`` group — the condition
    under which the scalar protocols' per-iteration ``Read1st`` tag bit
    is set and a read-first signal travels to the directories — and that
    first access is a read.  Rows must be in per-processor program
    order; groups never span processors, so concatenation order across
    processors does not matter.
    """
    seen = set()
    mask: List[bool] = []
    for key, write in zip(zip(procs, virts, elems), writes):
        mask.append(key not in seen and not write)
        seen.add(key)
    return mask


# ----------------------------------------------------------------------
# One kernel per protocol.  ``length`` is the array's element (or line)
# count; ``Loop._validate`` already keeps every index below it.
# ----------------------------------------------------------------------
def nonpriv_failing(procs, elems, writes, length: int) -> Set[int]:
    """§3.2: elements neither read-only nor accessed by a single
    processor — touched by two or more processors and written at least
    once.  The scalar protocol detects exactly these, through whichever
    of the Fig 6/7 paths the interleaving takes (tag check, directory
    check, First_update race or writeback merge at the loop-end
    commit)."""
    owner: Dict[int, int] = {}
    shared: Set[int] = set()
    for proc, elem in zip(procs, elems):
        if owner.setdefault(elem, proc) != proc:
            shared.add(elem)
    return shared & {elem for elem, w in zip(elems, writes) if w}


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
    max_r1st: Dict[int, int] = {}
    min_w: Dict[int, int] = {}
    for rf, virt, elem, w in zip(rf_rows, virts, elems, writes):
        if rf and virt > max_r1st.get(elem, 0):
            max_r1st[elem] = virt
        if w and virt < min_w.get(elem, _NEVER):
            min_w[elem] = virt
    return {
        elem for elem, virt in max_r1st.items()
        if virt > min_w.get(elem, _NEVER)
    }


def priv_simple_failing(rf_rows, elems, writes, length: int) -> Set[int]:
    """§4.1 reduced state: elements with both a read-first event and a
    write anywhere in the loop."""
    return (
        {elem for elem, rf in zip(elems, rf_rows) if rf}
        & {elem for elem, w in zip(elems, writes) if w}
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
    rows = _extract(loop, params, config)
    out: Dict[str, Set[int]] = {}
    for spec in loop.arrays_under_test():
        procs, elems, writes, raws = rows[spec.name]
        if spec.protocol is ProtocolKind.NONPRIV:
            length = spec.length
            if config.per_line_bits:
                epl = params.elems_per_line(spec.elem_bytes)
                elems = [elem // epl for elem in elems]
                length = -(-length // epl)
            out[spec.name] = nonpriv_failing(procs, elems, writes, length)
            continue
        rf = _read_first_rows(procs, raws, elems, writes)
        if spec.protocol is ProtocolKind.PRIV:
            out[spec.name] = priv_failing(rf, raws, elems, writes, spec.length)
        else:
            out[spec.name] = priv_simple_failing(rf, elems, writes, spec.length)
    return out
