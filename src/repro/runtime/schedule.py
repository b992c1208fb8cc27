"""Iteration scheduling policies (paper §2.2.3 and §4.1).

Three policies are modeled:

* **static chunking** — the iteration space is split into one chunk of
  contiguous iterations per processor.  Required by the processor-wise
  software test; may cause load imbalance (the paper's Track example).
* **block-cyclic** — contiguous blocks of ``chunk_iterations`` dealt to
  processors round-robin, statically.
* **dynamic self-scheduling** — processors grab the next block of
  ``chunk_iterations`` from a shared counter (simulated as a mutex-
  protected queue, so grab order follows simulated time).

Each assigned iteration also carries a *virtual* iteration number — the
number the speculation protocols see.  ``ITERATION`` numbering gives
the iteration-wise test; ``CHUNK`` numbering makes each block a
super-iteration (§4.1's block scheduling optimization); ``PROCESSOR``
numbering (static chunking only) gives the processor-wise test.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, List, Optional, Tuple

from ..errors import SchedulingError


class SchedulePolicy(enum.Enum):
    STATIC_CHUNK = "static-chunk"
    BLOCK_CYCLIC = "block-cyclic"
    DYNAMIC = "dynamic"


class VirtualMode(enum.Enum):
    """How iterations are numbered for the dependence test."""

    ITERATION = "iteration"
    CHUNK = "chunk"
    PROCESSOR = "processor"


@dataclasses.dataclass(frozen=True)
class ScheduleSpec:
    """A scheduling policy plus its parameters."""

    policy: SchedulePolicy = SchedulePolicy.DYNAMIC
    chunk_iterations: int = 4
    virtual_mode: VirtualMode = VirtualMode.CHUNK

    def __post_init__(self) -> None:
        if not isinstance(self.policy, SchedulePolicy):
            raise SchedulingError(
                f"policy must be a SchedulePolicy, got {self.policy!r}"
            )
        if not isinstance(self.virtual_mode, VirtualMode):
            raise SchedulingError(
                f"virtual_mode must be a VirtualMode, got {self.virtual_mode!r}"
            )
        chunk = self.chunk_iterations
        if type(chunk) is not int or chunk < 1:
            raise SchedulingError(
                f"chunk_iterations must be an int >= 1, got {chunk!r}"
            )
        if (
            self.virtual_mode is VirtualMode.PROCESSOR
            and self.policy is not SchedulePolicy.STATIC_CHUNK
        ):
            raise SchedulingError(
                "processor-wise numbering requires static chunk scheduling "
                "(paper §2.2.3)"
            )


@dataclasses.dataclass(frozen=True)
class Block:
    """A contiguous block of iterations (1-based, inclusive)."""

    first: int
    last: int
    ordinal: int  # 1-based block number in iteration order

    def iterations(self) -> Iterator[int]:
        return iter(range(self.first, self.last + 1))

    def __len__(self) -> int:
        return self.last - self.first + 1


def static_chunks(num_iterations: int, num_procs: int) -> List[Block]:
    """One contiguous chunk per processor (earlier chunks get the
    remainder), in processor order."""
    base = num_iterations // num_procs
    rem = num_iterations % num_procs
    blocks: List[Block] = []
    start = 1
    for p in range(num_procs):
        size = base + (1 if p < rem else 0)
        if size == 0:
            continue
        blocks.append(Block(start, start + size - 1, p + 1))
        start += size
    return blocks


def cyclic_blocks(num_iterations: int, chunk: int) -> List[Block]:
    blocks: List[Block] = []
    ordinal = 1
    start = 1
    while start <= num_iterations:
        end = min(start + chunk - 1, num_iterations)
        blocks.append(Block(start, end, ordinal))
        ordinal += 1
        start = end + 1
    return blocks


class ChunkQueue:
    """Shared work queue for dynamic self-scheduling.

    ``pop`` is called by a processor's op generator right after it
    acquired the scheduler mutex, so pops happen in simulated-time
    order and the block-to-processor mapping emerges from the timing —
    exactly how a fetch&add self-scheduled loop behaves.
    """

    def __init__(self, blocks: List[Block]) -> None:
        self._blocks = list(blocks)
        self._next = 0
        self.grab_log: List[Tuple[int, int]] = []  # (ordinal, proc)

    def pop(self, proc: int) -> Optional[Block]:
        if self._next >= len(self._blocks):
            return None
        block = self._blocks[self._next]
        self._next += 1
        self.grab_log.append((block.ordinal, proc))
        return block

    @property
    def remaining(self) -> int:
        return len(self._blocks) - self._next

    def assignment(self, num_procs: int) -> List[List[int]]:
        """The realized per-processor iteration lists (1-based, in grab
        order) — the ground truth any value-level commit must replay."""
        by_ordinal = {b.ordinal: b for b in self._blocks}
        per_proc: List[List[int]] = [[] for _ in range(num_procs)]
        for ordinal, proc in self.grab_log:
            per_proc[proc].extend(by_ordinal[ordinal].iterations())
        return per_proc


def virtual_of(block: Block, iteration: int, mode: VirtualMode, proc: int) -> int:
    """The virtual iteration number the dependence test sees."""
    if mode is VirtualMode.ITERATION:
        return iteration
    if mode is VirtualMode.CHUNK:
        return block.ordinal
    return proc + 1


def plan_static(
    spec: ScheduleSpec, num_iterations: int, num_procs: int
) -> List[List[Block]]:
    """Per-processor block lists for the static policies."""
    if spec.policy is SchedulePolicy.STATIC_CHUNK:
        per_proc: List[List[Block]] = [[] for _ in range(num_procs)]
        for p, block in enumerate(static_chunks(num_iterations, num_procs)):
            per_proc[p] = [block]
        return per_proc
    if spec.policy is SchedulePolicy.BLOCK_CYCLIC:
        per_proc = [[] for _ in range(num_procs)]
        for i, block in enumerate(cyclic_blocks(num_iterations, spec.chunk_iterations)):
            per_proc[i % num_procs].append(block)
        return per_proc
    raise SchedulingError(f"{spec.policy} is not a static policy")


def static_assignment(
    spec: ScheduleSpec, num_iterations: int, num_procs: int
) -> List[List[int]]:
    """Per-processor iteration lists (1-based) for the static policies."""
    return [
        [it for block in blocks for it in block.iterations()]
        for blocks in plan_static(spec, num_iterations, num_procs)
    ]

