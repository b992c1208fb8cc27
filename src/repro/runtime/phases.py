"""Bulk op-stream builders for the runtime's pre/post-loop phases.

All builders emit ops at *cache-line granularity*: one simulated access
per line touched (the fetch brings the rest of the line), plus compute
cycles proportional to the number of elements processed.  That keeps
the simulation cost manageable while preserving the memory behaviour
that matters (lines touched, local/remote placement, cache conflicts).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from ..params import MachineParams
from ..trace.ops import compute, read, write


def segment_of(length: int, proc: int, num_procs: int) -> Tuple[int, int]:
    """Contiguous [start, end) element segment of ``proc``."""
    base = length // num_procs
    rem = length % num_procs
    start = proc * base + min(proc, rem)
    size = base + (1 if proc < rem else 0)
    return start, start + size


def line_indices(start: int, end: int, elems_per_line: int) -> Iterator[Tuple[int, int]]:
    """Yield (first_element, count) per cache line covering [start, end)."""
    if start >= end:
        return
    first = start - (start % elems_per_line)
    idx = first
    while idx < end:
        lo = max(idx, start)
        hi = min(idx + elems_per_line, end)
        yield lo, hi - lo
        idx += elems_per_line


def copy_ops(
    src: str,
    dst: str,
    start: int,
    end: int,
    elems_per_line: int,
    per_element_cycles: int,
) -> Iterator[object]:
    """Copy ``src[start:end]`` to ``dst[start:end]`` (backup/restore)."""
    for first, count in line_indices(start, end, elems_per_line):
        yield read(src, first)
        yield write(dst, first)
        if per_element_cycles:
            yield compute(per_element_cycles * count)


def zero_ops(
    dst: str,
    start: int,
    end: int,
    elems_per_line: int,
    per_element_cycles: int,
) -> Iterator[object]:
    """Zero out ``dst[start:end]`` (shadow-array initialization)."""
    for first, count in line_indices(start, end, elems_per_line):
        yield write(dst, first)
        if per_element_cycles:
            yield compute(per_element_cycles * count)


def scan_ops(
    src: str,
    start: int,
    end: int,
    elems_per_line: int,
    per_element_cycles: int,
) -> Iterator[object]:
    """Read every line of ``src[start:end]`` and process each element."""
    for first, count in line_indices(start, end, elems_per_line):
        yield read(src, first)
        if per_element_cycles:
            yield compute(per_element_cycles * count)


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
    for first, count in line_indices(start, end, elems_per_line):
        for shadow in shadow_names:
            yield read(shadow, first)
        for global_name in global_names:
            yield write(global_name, first)
        if per_element_cycles:
            yield compute(per_element_cycles * count)


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
    for first in gather_line_starts(indices, elems_per_line):
        yield read(src, first)
        yield write(dst, first)
        if per_element_cycles:
            yield compute(per_element_cycles * elems_per_line)


def chain(*streams: Iterable[object]) -> Iterator[object]:
    for stream in streams:
        yield from stream
