"""Unit tests for the op-stream executor (loop_streams and friends)."""

import itertools

import pytest

from repro.lrpd.shadow import LRPDState
from repro.params import CostModel
from repro.runtime.executor import (
    SWInstrumenter,
    block_ops,
    global_shadow_name,
    loop_streams,
    private_copy_name,
    serial_stream,
    shadow_name,
)
from repro.runtime.schedule import (
    Block,
    ChunkQueue,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    cyclic_blocks,
    plan_static,
    virtual_of,
)
from repro.sim.processor import (
    BarrierOp,
    BusyCostOp,
    EpochSyncOp,
    IterBeginOp,
    MutexOp,
)
from repro.trace import ArraySpec, Loop, compute, read, write
from repro.trace.ops import AccessOp
from repro.types import ProtocolKind

COST = CostModel()


def tiny_loop(iterations=8, protocol=ProtocolKind.NONPRIV):
    body = [[read("A", i), compute(5), write("A", i)] for i in range(iterations)]
    return Loop("t", [ArraySpec("A", 64, 8, protocol)], body)


def drain(stream):
    return list(stream)


class TestNaming:
    def test_shadow_names_unique(self):
        names = {
            shadow_name("A", k, p) for k in ("Ar", "Aw", "Anp") for p in range(3)
        }
        assert len(names) == 9

    def test_global_vs_private(self):
        assert global_shadow_name("A", "Ar") != shadow_name("A", "Ar", 0)

    def test_private_copy_name(self):
        assert private_copy_name("A", 3) == "A@p3"


class TestStaticStreams:
    def test_every_iteration_emitted_once(self):
        loop = tiny_loop()
        streams = loop_streams(
            loop, ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.CHUNK),
            2, COST,
        )
        seen = []
        for p, s in streams.items():
            for op in s:
                if isinstance(op, IterBeginOp):
                    seen.append(op.iteration)
        assert sorted(seen) == list(range(1, 9))

    def test_chunk_virtual_numbers(self):
        loop = tiny_loop()
        streams = loop_streams(
            loop, ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 2, VirtualMode.CHUNK),
            2, COST,
        )
        virts = {}
        for p, s in streams.items():
            for op in s:
                if isinstance(op, IterBeginOp):
                    virts[op.iteration] = op.virtual
        # iterations 1,2 -> block 1; 3,4 -> block 2; ...
        assert virts[1] == virts[2] == 1
        assert virts[3] == virts[4] == 2

    def test_setup_cycles_prepended(self):
        loop = tiny_loop()
        streams = loop_streams(
            loop, ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.CHUNK),
            2, COST, setup_cycles=99,
        )
        first = next(iter(streams[0]))
        assert isinstance(first, BusyCostOp) and first.cycles == 99


class TestDynamicStreams:
    def test_grab_uses_mutex(self):
        loop = tiny_loop()
        streams = loop_streams(
            loop, ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK),
            2, COST,
        )
        ops = drain(streams[0])
        assert any(isinstance(op, MutexOp) for op in ops)

    def test_shared_queue_respected(self):
        loop = tiny_loop()
        queue = ChunkQueue(cyclic_blocks(loop.num_iterations, 2))
        streams = loop_streams(
            loop, ScheduleSpec(SchedulePolicy.DYNAMIC, 2, VirtualMode.CHUNK),
            2, COST, queue=queue,
        )
        # Draining proc 0's generator grabs everything (generators pull
        # lazily; here we exhaust one, starving the other).
        ops0 = drain(streams[0])
        iters0 = [op.iteration for op in ops0 if isinstance(op, IterBeginOp)]
        assert iters0 == list(range(1, 9))
        assert queue.remaining == 0
        iters1 = [
            op.iteration for op in drain(streams[1]) if isinstance(op, IterBeginOp)
        ]
        assert iters1 == []


class TestEpochStreams:
    def test_barriers_and_syncs_inserted(self):
        loop = tiny_loop(iterations=8)
        streams = loop_streams(
            loop, ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK),
            2, COST, timestamp_bits=2,  # capacity 3 -> 8 blocks -> 3 epochs
        )
        ops = drain(streams[0])
        barriers = [op for op in ops if isinstance(op, BarrierOp)]
        syncs = [op for op in ops if isinstance(op, EpochSyncOp)]
        assert len(barriers) == 2 and len(syncs) == 2
        assert [s.epoch for s in syncs] == [1, 2]

    def test_effective_virtual_numbers_bounded(self):
        loop = tiny_loop(iterations=8)
        streams = loop_streams(
            loop, ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK),
            2, COST, timestamp_bits=2,
        )
        capacity = 2 ** 2 - 1
        for p, s in streams.items():
            for op in s:
                if isinstance(op, IterBeginOp):
                    assert 1 <= op.virtual <= capacity

    def test_both_procs_share_barrier_objects(self):
        loop = tiny_loop(iterations=8)
        streams = loop_streams(
            loop, ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK),
            2, COST, timestamp_bits=2,
        )
        b0 = [op.barrier for op in drain(streams[0]) if isinstance(op, BarrierOp)]
        b1 = [op.barrier for op in drain(streams[1]) if isinstance(op, BarrierOp)]
        assert b0 and all(x is y for x, y in zip(b0, b1))


#: one iteration per block, numbered by its block's ordinal: a test
#: picks the virtual iteration an access runs in through the ordinal
CHUNK_NUMBERED = ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK)


class TestSWInstrumenter:
    def _instrument(self, loop, processor_wise=False, with_awmin=False):
        state = LRPDState(2, with_awmin=with_awmin)
        for spec in loop.arrays_under_test():
            state.register(spec.name, spec.length, spec.privatized)
        inst = SWInstrumenter(state, loop, COST, processor_wise)

        def ops(proc, op, virt):
            """The fused stream's ops for ``op`` alone in an iteration
            numbered ``virt`` on ``proc``, after its IterBeginOp."""
            body = Loop(loop.name, loop.arrays, [[op]])
            stream = block_ops(proc, body, Block(1, 1, virt), CHUNK_NUMBERED, 0, inst)
            first, *rest = stream
            assert first == IterBeginOp(1, virt, 0)
            return rest

        return state, ops

    def test_read_emits_shadow_traffic(self):
        loop = tiny_loop()
        state, inst = self._instrument(loop)
        ops = inst(0, read("A", 3), 1)
        arrays = [op.array for op in ops if isinstance(op, AccessOp)]
        assert shadow_name("A", "Aw", 0) in arrays
        assert shadow_name("A", "Ar", 0) in arrays
        assert arrays[-1] == "A"  # the data access comes last

    def test_covered_read_skips_ar_marks(self):
        loop = tiny_loop()
        state, inst = self._instrument(loop)
        inst(0, write("A", 3), 1)
        ops = inst(0, read("A", 3), 1)
        arrays = [op.array for op in ops if isinstance(op, AccessOp)]
        assert shadow_name("A", "Ar", 0) not in arrays

    def test_untested_array_passthrough(self):
        loop = Loop(
            "t", [ArraySpec("A", 8, 8, ProtocolKind.NONPRIV), ArraySpec("B", 8)],
            [[read("B", 0), write("A", 0)]],
        )
        state, inst = self._instrument(loop)
        ops = inst(0, read("B", 0), 1)
        assert ops == [read("B", 0)]

    def test_privatized_write_redirected(self):
        loop = tiny_loop(protocol=ProtocolKind.PRIV_SIMPLE)
        state, inst = self._instrument(loop)
        ops = inst(1, write("A", 3), 1)
        data = [op for op in ops if isinstance(op, AccessOp)][-1]
        assert data.array == private_copy_name("A", 1)

    def test_privatized_read_from_shared_until_written(self):
        loop = tiny_loop(protocol=ProtocolKind.PRIV_SIMPLE)
        state, inst = self._instrument(loop)
        data = [op for op in inst(0, read("A", 3), 1) if isinstance(op, AccessOp)][-1]
        assert data.array == "A"
        inst(0, write("A", 3), 1)
        data = [op for op in inst(0, read("A", 3), 2) if isinstance(op, AccessOp)][-1]
        assert data.array == private_copy_name("A", 0)

    def test_bitmap_indexing_processor_wise(self):
        loop = tiny_loop()
        state, inst = self._instrument(loop, processor_wise=True)
        ops = inst(0, read("A", 63), 1)
        shadow_access = next(
            op for op in ops if isinstance(op, AccessOp) and "#" in op.array
        )
        assert shadow_access.index == 63 // COST.sw_bitmap_word_elems

    def test_awmin_write_emitted_once(self):
        loop = tiny_loop(protocol=ProtocolKind.PRIV)
        state, inst = self._instrument(loop, with_awmin=True)
        first = inst(0, write("A", 3), 1)
        second = inst(0, write("A", 3), 2)
        awmin = shadow_name("A", "Awmin", 0)
        assert any(isinstance(o, AccessOp) and o.array == awmin for o in first)
        assert not any(isinstance(o, AccessOp) and o.array == awmin for o in second)

    def test_marks_set_as_ops_are_yielded(self):
        """A read's Ar mark is set by the time the Ar write is yielded,
        not only once the whole access has been consumed."""
        loop = tiny_loop()
        state = LRPDState(2)
        state.register("A", 64, False)
        inst = SWInstrumenter(state, loop, COST)
        body = Loop(loop.name, loop.arrays, [[read("A", 3)]])
        stream = block_ops(0, body, Block(1, 1, 1), CHUNK_NUMBERED, 0, inst)
        shadow = state.shadow("A", 0)
        for op in stream:
            if isinstance(op, AccessOp) and op.array == shadow_name("A", "Ar", 0):
                break
        assert shadow.ar == {3: 1} and shadow.anp == {3: 1}


def _reference_instrument(state, loop, cost, processor_wise, proc, op, virt):
    """The marking sequence as a lazy generator that marks the shadow
    between ops: the reference the fused SW stream must match."""
    under_test = {a.name: a.privatized for a in loop.arrays_under_test()}
    name = op.array
    if name not in under_test:
        yield op
        return
    shadow = state.shadow(name, proc)
    index = op.index
    sidx = index // (cost.sw_bitmap_word_elems if processor_wise else 1)
    privatized = under_test[name]
    if op.is_read:
        yield compute(cost.sw_mark_read_instrs)
        yield read(shadow_name(name, "Aw", proc), sidx)
        covered = shadow.written_in(index, virt)
        shadow.markread(index, virt)
        if not covered:
            yield write(shadow_name(name, "Ar", proc), sidx)
            yield write(shadow_name(name, "Anp", proc), sidx)
        if privatized and shadow.ever_written(index):
            yield read(private_copy_name(name, proc), index)
        else:
            yield read(name, index)
    else:
        yield compute(cost.sw_mark_write_instrs)
        yield read(shadow_name(name, "Aw", proc), sidx)
        first_in_iter = not shadow.written_in(index, virt)
        first_in_loop = not shadow.ever_written(index)
        shadow.markwrite(index, virt)
        if first_in_iter:
            yield write(shadow_name(name, "Aw", proc), sidx)
            if state.with_awmin and first_in_loop:
                yield write(shadow_name(name, "Awmin", proc), sidx)
        if privatized:
            yield write(private_copy_name(name, proc), index)
        else:
            yield write(name, index)


def _reference_block(state, loop, spec, processor_wise, proc, block, overhead, end):
    """One block's ops with each access expanded by the reference."""
    for iteration in block.iterations():
        virt = virtual_of(block, iteration, spec.virtual_mode, proc)
        yield IterBeginOp(iteration, virt, overhead)
        for op in loop.iterations[iteration - 1]:
            if isinstance(op, AccessOp):
                yield from _reference_instrument(
                    state, loop, COST, processor_wise, proc, op, virt
                )
            else:
                yield op
        yield compute(end)


@pytest.mark.parametrize(
    "protocol", [ProtocolKind.NONPRIV, ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE]
)
@pytest.mark.parametrize("with_awmin", [False, True])
@pytest.mark.parametrize("processor_wise", [False, True])
def test_sw_instrumenter_matches_reference(protocol, with_awmin, processor_wise):
    """A random loop of reads and writes (plus compute and accesses to
    an array not under test) on two processors yields the reference op
    streams, Awmin marks and privatized redirects included, and leaves
    the same shadows, with the two streams consumed in random
    interleaving.  Processor-wise runs use static chunks numbered by
    processor; the others blocks of three iterations sharing one
    number, so a block's iterations see each other's marks."""
    import random

    rng = random.Random(7)
    body = []
    for _ in range(200):
        ops = []
        for _ in range(rng.randint(1, 8)):
            roll = rng.random()
            if roll < 0.1:
                ops.append(read("B", rng.randrange(16)))
            elif roll < 0.15:
                ops.append(compute(3))
            else:
                index = rng.randrange(200)
                ops.append(read("A", index) if rng.random() < 0.5 else write("A", index))
        body.append(ops)
    loop = Loop("t", [ArraySpec("A", 200, 8, protocol), ArraySpec("B", 16)], body)
    spec = (
        ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.PROCESSOR)
        if processor_wise
        else ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 3, VirtualMode.CHUNK)
    )
    states = []
    for _ in range(2):
        state = LRPDState(2, with_awmin=with_awmin)
        for array in loop.arrays_under_test():
            state.register(array.name, array.length, array.privatized)
        states.append(state)
    ref_state, state = states
    inst = SWInstrumenter(state, loop, COST, processor_wise)
    plan = plan_static(spec, loop.num_iterations, 2)
    got = {
        p: itertools.chain.from_iterable(
            block_ops(p, loop, block, spec, 5, inst, 8) for block in blocks
        )
        for p, blocks in enumerate(plan)
    }
    want = {
        p: itertools.chain.from_iterable(
            _reference_block(ref_state, loop, spec, processor_wise, p, block, 5, 8)
            for block in blocks
        )
        for p, blocks in enumerate(plan)
    }
    live = [0, 1]
    steps = 0
    while live:
        proc = rng.choice(live)
        op = next(want[proc], None)
        assert next(got[proc], None) == op
        if op is None:
            live.remove(proc)
        steps += 1
    assert steps > 2000
    for proc in range(2):
        got_shadow, ref = state.shadow("A", proc), ref_state.shadow("A", proc)
        for field in ("aw", "ar", "anp", "awmin"):
            if getattr(ref, field) is not None:
                assert getattr(got_shadow, field) == getattr(ref, field)
        assert got_shadow.atw == ref.atw


class TestSerialStream:
    def test_all_iterations_in_order(self):
        loop = tiny_loop()
        iters = [
            op.iteration
            for op in serial_stream(loop, COST)
            if isinstance(op, IterBeginOp)
        ]
        assert iters == list(range(1, 9))
