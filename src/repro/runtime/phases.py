"""Bulk op-stream builders for the runtime's pre/post-loop phases.

All builders emit ops at *cache-line granularity*: one simulated access
per line touched (the fetch brings the rest of the line), plus compute
cycles proportional to the number of elements processed.  That keeps
the simulation cost manageable while preserving the memory behaviour
that matters (lines touched, local/remote placement, cache conflicts).

Every builder is one generator frame that walks its lines, and every
full line of one builder shares one ``ComputeOp``: ops are immutable,
and the engine only reads their cycles.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from ..trace.ops import AccessOp, ComputeOp
from ..types import AccessKind

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE


def segment_of(length: int, proc: int, num_procs: int) -> Tuple[int, int]:
    """Contiguous [start, end) element segment of ``proc``."""
    base = length // num_procs
    rem = length % num_procs
    start = proc * base + min(proc, rem)
    size = base + (1 if proc < rem else 0)
    return start, start + size


def _line_ops(
    reads: Sequence[str],
    writes: Sequence[str],
    start: int,
    end: int,
    elems_per_line: int,
    per_element_cycles: int,
) -> Iterator[object]:
    """Per cache line covering ``[start, end)``: a read of each array in
    ``reads``, then a write of each in ``writes``, at the line's first
    element in range, then ``per_element_cycles`` per element in range."""
    if start >= end:
        return
    full = ComputeOp(per_element_cycles * elems_per_line)
    line = start - start % elems_per_line
    while line < end:
        first = line if line > start else start
        line += elems_per_line
        for name in reads:
            yield AccessOp(_READ, name, first)
        for name in writes:
            yield AccessOp(_WRITE, name, first)
        if per_element_cycles:
            count = (line if line < end else end) - first
            yield full if count == elems_per_line else ComputeOp(per_element_cycles * count)


def copy_ops(
    src: str,
    dst: str,
    start: int,
    end: int,
    elems_per_line: int,
    per_element_cycles: int,
) -> Iterator[object]:
    """Copy ``src[start:end]`` to ``dst[start:end]`` (backup/restore)."""
    return _line_ops((src,), (dst,), start, end, elems_per_line, per_element_cycles)


def zero_ops(
    dst: str,
    start: int,
    end: int,
    elems_per_line: int,
    per_element_cycles: int,
) -> Iterator[object]:
    """Zero out ``dst[start:end]`` (shadow-array initialization)."""
    return _line_ops((), (dst,), start, end, elems_per_line, per_element_cycles)


def scan_ops(
    src: str,
    start: int,
    end: int,
    elems_per_line: int,
    per_element_cycles: int,
) -> Iterator[object]:
    """Read every line of ``src[start:end]`` and process each element."""
    return _line_ops((src,), (), start, end, elems_per_line, per_element_cycles)


def merge_analysis_ops(
    shadow_names: Sequence[str],
    global_names: Sequence[str],
    start: int,
    end: int,
    elems_per_line: int,
    per_element_cycles: int,
) -> Iterator[object]:
    """One processor's share of the merging + analysis phases.

    The processor owns the global-shadow segment [start, end): it reads
    that segment from *every* private shadow copy (``shadow_names``,
    one set per processor — mostly remote), ORs them into the global
    shadows (``global_names``), and runs the analysis tests on the
    merged values.  Work per processor is ``segment x num_procs``,
    which is constant as the machine grows — the scalability bottleneck
    the paper calls out in §6.3.
    """
    return _line_ops(
        shadow_names, global_names, start, end, elems_per_line, per_element_cycles
    )


def gather_line_starts(
    indices: Iterable[int], elems_per_line: int
) -> List[int]:
    """Distinct line-start element indices covering ``indices``."""
    starts = sorted({i - (i % elems_per_line) for i in indices})
    return starts


def sparse_copy_ops(
    src: str,
    dst: str,
    indices: Iterable[int],
    elems_per_line: int,
    per_element_cycles: int,
) -> Iterator[object]:
    """Copy only the lines containing ``indices`` (sparse backup or
    copy-out of written elements)."""
    full = ComputeOp(per_element_cycles * elems_per_line)
    for first in gather_line_starts(indices, elems_per_line):
        yield AccessOp(_READ, src, first)
        yield AccessOp(_WRITE, dst, first)
        if per_element_cycles:
            yield full
