"""Unit tests for the op-stream executor (loop_streams and friends)."""

import pytest

from repro.lrpd.shadow import LRPDState
from repro.params import CostModel
from repro.runtime.executor import (
    SWInstrumenter,
    global_shadow_name,
    loop_streams,
    private_copy_name,
    serial_stream,
    shadow_name,
)
from repro.runtime.schedule import (
    ChunkQueue,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    cyclic_blocks,
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


class TestSWInstrumenter:
    def _instrument(self, loop, processor_wise=False, with_awmin=False):
        state = LRPDState(2, with_awmin=with_awmin)
        for spec in loop.arrays_under_test():
            state.register(spec.name, spec.length, spec.privatized)
        return state, SWInstrumenter(state, loop, COST, processor_wise)

    def test_read_emits_shadow_traffic(self):
        loop = tiny_loop()
        state, inst = self._instrument(loop)
        ops = list(inst(0, read("A", 3), 1))
        arrays = [op.array for op in ops if isinstance(op, AccessOp)]
        assert shadow_name("A", "Aw", 0) in arrays
        assert shadow_name("A", "Ar", 0) in arrays
        assert arrays[-1] == "A"  # the data access comes last

    def test_covered_read_skips_ar_marks(self):
        loop = tiny_loop()
        state, inst = self._instrument(loop)
        list(inst(0, write("A", 3), 1))
        ops = list(inst(0, read("A", 3), 1))
        arrays = [op.array for op in ops if isinstance(op, AccessOp)]
        assert shadow_name("A", "Ar", 0) not in arrays

    def test_untested_array_passthrough(self):
        loop = Loop(
            "t", [ArraySpec("A", 8, 8, ProtocolKind.NONPRIV), ArraySpec("B", 8)],
            [[read("B", 0), write("A", 0)]],
        )
        state, inst = self._instrument(loop)
        ops = list(inst(0, read("B", 0), 1))
        assert ops == [read("B", 0)]

    def test_privatized_write_redirected(self):
        loop = tiny_loop(protocol=ProtocolKind.PRIV_SIMPLE)
        state, inst = self._instrument(loop)
        ops = list(inst(1, write("A", 3), 1))
        data = [op for op in ops if isinstance(op, AccessOp)][-1]
        assert data.array == private_copy_name("A", 1)

    def test_privatized_read_from_shared_until_written(self):
        loop = tiny_loop(protocol=ProtocolKind.PRIV_SIMPLE)
        state, inst = self._instrument(loop)
        data = [op for op in list(inst(0, read("A", 3), 1)) if isinstance(op, AccessOp)][-1]
        assert data.array == "A"
        list(inst(0, write("A", 3), 1))
        data = [op for op in list(inst(0, read("A", 3), 2)) if isinstance(op, AccessOp)][-1]
        assert data.array == private_copy_name("A", 0)

    def test_bitmap_indexing_processor_wise(self):
        loop = tiny_loop()
        state, inst = self._instrument(loop, processor_wise=True)
        ops = list(inst(0, read("A", 63), 1))
        shadow_access = next(
            op for op in ops if isinstance(op, AccessOp) and "#" in op.array
        )
        assert shadow_access.index == 63 // COST.sw_bitmap_word_elems

    def test_awmin_write_emitted_once(self):
        loop = tiny_loop(protocol=ProtocolKind.PRIV)
        state, inst = self._instrument(loop, with_awmin=True)
        first = list(inst(0, write("A", 3), 1))
        second = list(inst(0, write("A", 3), 2))
        awmin = shadow_name("A", "Awmin", 0)
        assert any(isinstance(o, AccessOp) and o.array == awmin for o in first)
        assert not any(isinstance(o, AccessOp) and o.array == awmin for o in second)


def _reference_instrument(state, loop, cost, processor_wise, proc, op, virt):
    """The marking sequence as a lazy generator that marks the shadow
    between ops: the reference the eager SWInstrumenter must match."""
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


@pytest.mark.parametrize(
    "protocol", [ProtocolKind.NONPRIV, ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE]
)
@pytest.mark.parametrize("with_awmin", [False, True])
@pytest.mark.parametrize("processor_wise", [False, True])
def test_sw_instrumenter_matches_reference(protocol, with_awmin, processor_wise):
    """A random read/write sequence over two processors (plus accesses
    to an array not under test) yields the reference op lists, Awmin
    marks and privatized redirects included, and the same shadows."""
    import random

    loop = Loop(
        "t", [ArraySpec("A", 200, 8, protocol), ArraySpec("B", 16)],
        [[read("B", 0), write("A", 0)]],
    )
    states = []
    for _ in range(2):
        state = LRPDState(2, with_awmin=with_awmin)
        for spec in loop.arrays_under_test():
            state.register(spec.name, spec.length, spec.privatized)
        states.append(state)
    ref_state, state = states
    inst = SWInstrumenter(state, loop, COST, processor_wise)
    rng = random.Random(7)
    virt = [1, 1]
    for _ in range(1500):
        proc = rng.randrange(2)
        if rng.random() < 0.15:
            virt[proc] += 1
        if rng.random() < 0.1:
            op = read("B", rng.randrange(16))
        else:
            index = rng.randrange(200)
            op = read("A", index) if rng.random() < 0.5 else write("A", index)
        want = list(_reference_instrument(
            ref_state, loop, COST, processor_wise, proc, op, virt[proc]
        ))
        assert list(inst(proc, op, virt[proc])) == want
    for proc in range(2):
        got, ref = state.shadow("A", proc), ref_state.shadow("A", proc)
        for field in ("aw", "ar", "anp", "awmin"):
            if getattr(ref, field) is not None:
                assert getattr(got, field) == getattr(ref, field)
        assert got.atw == ref.atw


class TestSerialStream:
    def test_all_iterations_in_order(self):
        loop = tiny_loop()
        iters = [
            op.iteration
            for op in serial_stream(loop, COST)
            if isinstance(op, IterBeginOp)
        ]
        assert iters == list(range(1, 9))
