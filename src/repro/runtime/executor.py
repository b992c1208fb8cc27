"""Builds the per-processor op streams for the loop execution itself.

The same generator skeleton serves all scenarios; what differs is the
*instrumenter*, which maps each body op to the ops actually issued:

* identity for Serial, Ideal and HW (the hardware scheme needs no extra
  instructions inside the loop body — its test logic rides on the
  cache/directory transactions);
* :class:`SWInstrumenter` for the software scheme, which wraps every
  access to an array under test with shadow-array marking traffic and
  redirects accesses to speculatively privatized arrays to the
  processor's private copy.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import dataclasses

from ..errors import ConfigurationError, SchedulingError
from ..lrpd.shadow import LRPDState
from ..params import CostModel
from ..sim.processor import (
    Barrier,
    BarrierOp,
    BusyCostOp,
    EpochSyncOp,
    IterBeginOp,
    Mutex,
    MutexOp,
)
from ..trace.loop import Loop
from ..trace.ops import AccessOp, ComputeOp, compute
from ..types import AccessKind
from .schedule import (
    Block,
    ChunkQueue,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    plan_static,
    virtual_of,
)

#: Widest time stamp a run accepts: no simulable loop overflows a 64-bit
#: stamp, and a wider one only makes the epoch capacity ``2**bits - 1``
#: ever more expensive to compute.
_MAX_TIMESTAMP_BITS = 64


def check_epoch_config(timestamp_bits: Optional[int], spec: ScheduleSpec) -> None:
    """Reject a time-stamp width the §3.3 epochs cannot run with.

    ``RunConfig`` calls this when it is built and ``loop_streams`` when
    it partitions a schedule into epochs, so both reject the same
    configs with the same errors.
    """
    bits = timestamp_bits
    if bits is None:
        return
    if type(bits) is not int or not 1 <= bits <= _MAX_TIMESTAMP_BITS:
        raise ConfigurationError(
            f"timestamp_bits must be None or an int in "
            f"1..{_MAX_TIMESTAMP_BITS}, got {bits!r}"
        )
    if (
        spec.policy is SchedulePolicy.DYNAMIC
        or spec.virtual_mode is not VirtualMode.CHUNK
    ):
        # Epochs partition a static plan of chunk-numbered blocks
        # (§3.3): HW cannot run this config, and no other scenario
        # reads the stamps.
        raise SchedulingError(
            "timestamp_bits needs a static schedule with chunk "
            f"numbering, got {spec.policy.value}/{spec.virtual_mode.value}"
        )


#: Maps one body access ``(proc, op, virtual iteration)`` to the
#: sequence of ops actually issued for it.
Instrumenter = Callable[[int, AccessOp, int], Sequence[object]]


def identity_instrument(proc: int, op: AccessOp, virt: int) -> Sequence[object]:
    return (op,)


def shadow_name(array: str, kind: str, proc: int) -> str:
    """Naming convention for per-processor shadow arrays."""
    return f"{array}#{kind}@p{proc}"


def global_shadow_name(array: str, kind: str) -> str:
    return f"{array}#{kind}"


def private_copy_name(array: str, proc: int) -> str:
    return f"{array}@p{proc}"


class SWInstrumenter:
    """Marking instrumentation of the software LRPD scheme (§2.2).

    For every access to an array under test it returns the marking
    instructions (compute cycles) and the shadow-array memory accesses,
    updates the logical :class:`LRPDState`, and redirects data accesses
    of privatized arrays to the processor's private copy.  With the
    processor-wise test, shadow entries are bits packed 64 to a word,
    so shadow accesses are scaled down accordingly (§2.2.3).

    A call returns the op sequence for one access (a list, or a
    1-tuple for an array not under test).  The shadow marks are updated
    when the call returns, before the processor issues the ops: each
    shadow belongs to one processor, which consumes its ops in order,
    so marking eagerly leaves every mark and every op as marking
    between the ops would.  The two marking ``compute`` ops are built
    once per instrumenter, and the shadow and private-copy names once
    per (array, processor).
    """

    def __init__(
        self,
        state: LRPDState,
        loop: Loop,
        cost: CostModel,
        processor_wise: bool = False,
    ) -> None:
        self.state = state
        self.cost = cost
        self.processor_wise = processor_wise
        self.pack = cost.sw_bitmap_word_elems if processor_wise else 1
        self._under_test: Set[str] = {a.name for a in loop.arrays_under_test()}
        self._privatized: Dict[str, bool] = {
            a.name: a.privatized for a in loop.arrays_under_test()
        }
        self._mark_read = compute(cost.sw_mark_read_instrs)
        self._mark_write = compute(cost.sw_mark_write_instrs)
        #: (array, proc) -> (shadow, privatized, Aw, Ar, Anp, Awmin, private copy)
        self._per_proc: Dict[Tuple[str, int], tuple] = {}

    def _bind(self, name: str, proc: int) -> tuple:
        names = (
            self.state.shadow(name, proc),
            self._privatized[name],
            shadow_name(name, "Aw", proc),
            shadow_name(name, "Ar", proc),
            shadow_name(name, "Anp", proc),
            shadow_name(name, "Awmin", proc) if self.state.with_awmin else None,
            private_copy_name(name, proc),
        )
        self._per_proc[(name, proc)] = names
        return names

    def __call__(self, proc: int, op: AccessOp, virt: int) -> Sequence[object]:
        name = op.array
        if name not in self._under_test:
            return (op,)
        names = self._per_proc.get((name, proc)) or self._bind(name, proc)
        shadow, privatized, aw, ar, anp, awmin, private = names
        index = op.index
        sidx = index // self.pack
        if op.kind is AccessKind.READ:
            out = [self._mark_read, AccessOp(AccessKind.READ, aw, sidx)]
            covered = shadow.written_in(index, virt)
            shadow.markread(index, virt)
            if not covered:
                out.append(AccessOp(AccessKind.WRITE, ar, sidx))
                out.append(AccessOp(AccessKind.WRITE, anp, sidx))
            if privatized and shadow.ever_written(index):
                out.append(AccessOp(AccessKind.READ, private, index))
            else:
                out.append(op)
            return out
        out = [self._mark_write, AccessOp(AccessKind.READ, aw, sidx)]
        first_in_iter = not shadow.written_in(index, virt)
        first_in_loop = not shadow.ever_written(index)
        shadow.markwrite(index, virt)
        if first_in_iter:
            out.append(AccessOp(AccessKind.WRITE, aw, sidx))
            if awmin is not None and first_in_loop:
                # §2.2.3 extension: record the element's first
                # writing iteration in the Awmin shadow array.
                out.append(AccessOp(AccessKind.WRITE, awmin, sidx))
        out.append(AccessOp(AccessKind.WRITE, private, index) if privatized else op)
        return out


def block_ops(
    proc: int,
    loop: Loop,
    block: Block,
    spec: ScheduleSpec,
    iter_overhead: int,
    instrument: Instrumenter,
    iter_end_cycles: int = 0,
) -> Iterator[object]:
    """Ops for one block of iterations on one processor."""
    plain = instrument is identity_instrument
    for iteration in block.iterations():
        virt = virtual_of(block, iteration, spec.virtual_mode, proc)
        yield IterBeginOp(iteration, virt, iter_overhead)
        if plain:
            # Uninstrumented execution (the hardware schemes) replays
            # the iteration's op list as-is; skip the per-access
            # generator round trip.
            yield from loop.iterations[iteration - 1]
        else:
            for op in loop.iterations[iteration - 1]:
                if op.__class__ is AccessOp:
                    yield from instrument(proc, op, virt)
                else:
                    yield op
        if iter_end_cycles:
            yield ComputeOp(iter_end_cycles)


def loop_streams(
    loop: Loop,
    spec: ScheduleSpec,
    num_procs: int,
    cost: CostModel,
    instrument: Optional[Instrumenter] = None,
    iter_overhead: Optional[int] = None,
    iter_end_cycles: int = 0,
    setup_cycles: int = 0,
    mutex: Optional[Mutex] = None,
    queue: Optional[ChunkQueue] = None,
    timestamp_bits: Optional[int] = None,
) -> Dict[int, Iterator[object]]:
    """Per-processor op generators for the doall execution of ``loop``.

    For the dynamic policy, callers may pass a shared ``mutex``/``queue``
    pair (otherwise they are created here); the queue's grab log records
    the emergent block-to-processor assignment.

    ``timestamp_bits`` enables the §3.3 time-stamp overflow handling:
    when the (chunk-numbered) virtual iteration would exceed
    ``2**timestamp_bits - 1``, all processors synchronize at a barrier
    and the effective numbering restarts from 1 (the hardware resets
    the privatization time stamps).  Requires a static policy with
    CHUNK numbering.
    """
    instrument = instrument or identity_instrument
    overhead = cost.loop_iter_overhead if iter_overhead is None else iter_overhead

    if timestamp_bits is not None:
        return _epoch_streams(
            loop, spec, num_procs, cost, instrument, overhead,
            iter_end_cycles, setup_cycles, timestamp_bits,
        )

    if spec.policy is SchedulePolicy.DYNAMIC:
        from .schedule import cyclic_blocks

        if queue is None:
            queue = ChunkQueue(cyclic_blocks(loop.num_iterations, spec.chunk_iterations))
        if mutex is None:
            mutex = Mutex()

        def dynamic_stream(proc: int) -> Iterator[object]:
            if setup_cycles:
                yield BusyCostOp(setup_cycles)
            while True:
                yield MutexOp(mutex, cost.sched_dynamic_per_grab)
                block = queue.pop(proc)
                if block is None:
                    return
                yield from block_ops(
                    proc, loop, block, spec, overhead, instrument, iter_end_cycles
                )

        return {p: dynamic_stream(p) for p in range(num_procs)}

    plan = plan_static(spec, loop.num_iterations, num_procs)

    def static_stream(proc: int, blocks: Sequence[Block]) -> Iterator[object]:
        if setup_cycles:
            yield BusyCostOp(setup_cycles)
        yield BusyCostOp(cost.sched_static_per_proc)
        for block in blocks:
            yield from block_ops(
                proc, loop, block, spec, overhead, instrument, iter_end_cycles
            )

    return {
        p: static_stream(p, blocks)
        for p, blocks in enumerate(plan)
    }


def _epoch_streams(
    loop: Loop,
    spec: ScheduleSpec,
    num_procs: int,
    cost: CostModel,
    instrument: Instrumenter,
    overhead: int,
    iter_end_cycles: int,
    setup_cycles: int,
    timestamp_bits: int,
) -> Dict[int, Iterator[object]]:
    """Static schedules partitioned into time-stamp epochs (§3.3)."""
    check_epoch_config(timestamp_bits, spec)
    capacity = 2 ** timestamp_bits - 1
    plan = plan_static(spec, loop.num_iterations, num_procs)
    max_ordinal = max(
        (b.ordinal for blocks in plan for b in blocks), default=1
    )
    num_epochs = -(-max_ordinal // capacity)  # ceil
    barriers = [
        Barrier(num_procs, cost.barrier_base, cost.barrier_per_proc)
        for _ in range(max(0, num_epochs - 1))
    ]

    def stream(proc: int, blocks: Sequence[Block]) -> Iterator[object]:
        if setup_cycles:
            yield BusyCostOp(setup_cycles)
        yield BusyCostOp(cost.sched_static_per_proc)
        by_epoch: Dict[int, List[Block]] = {}
        for block in blocks:
            by_epoch.setdefault((block.ordinal - 1) // capacity, []).append(block)
        for epoch in range(num_epochs):
            for block in by_epoch.get(epoch, []):
                effective = dataclasses.replace(
                    block, ordinal=((block.ordinal - 1) % capacity) + 1
                )
                yield from block_ops(
                    proc, loop, effective, spec, overhead, instrument,
                    iter_end_cycles,
                )
            if epoch < num_epochs - 1:
                yield BarrierOp(barriers[epoch])
                yield EpochSyncOp(epoch + 1)

    return {p: stream(p, blocks) for p, blocks in enumerate(plan)}


def serial_stream(loop: Loop, cost: CostModel) -> Iterator[object]:
    """All iterations in order on one processor, no test, no marking."""
    for iteration in range(1, loop.num_iterations + 1):
        yield IterBeginOp(iteration, iteration, cost.loop_iter_overhead)
        yield from loop.iterations[iteration - 1]
