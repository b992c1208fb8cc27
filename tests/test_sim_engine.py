"""Tests for the discrete-event engine, processors and synchronization."""

import pytest

from repro.errors import AddressError, ConfigurationError
from repro.params import small_test_params
from repro.sim.machine import Machine
from repro.sim.processor import Barrier, BarrierOp, BusyCostOp, Mutex, MutexOp, SyncCostOp
from repro.trace.ops import AccessOp, ComputeOp, compute, local, read, write
from repro.types import AccessKind


@pytest.fixture
def m():
    machine = Machine(small_test_params(2), with_speculation=False)
    machine.space.allocate("A", 256, elem_bytes=8)
    return machine


class TestBasicExecution:
    def test_compute_only(self, m):
        result = m.engine.run_phase({0: iter([compute(100)])})
        assert result.finish_times[0] >= 100
        assert result.per_proc[0].busy == 100

    def test_local_ops_cost_one_cycle(self, m):
        result = m.engine.run_phase({0: iter([local(), local(), local()])})
        assert result.per_proc[0].busy == 3

    def test_read_stall_is_mem_time(self, m):
        result = m.engine.run_phase({0: iter([read("A", 0)])})
        assert result.per_proc[0].mem > 0
        assert result.per_proc[0].busy == 1

    def test_write_is_cheap_but_drains_at_end(self, m):
        result = m.engine.run_phase({0: iter([write("A", 0)])})
        # Non-blocking write, but the end-of-phase fence waits for it.
        assert result.per_proc[0].mem > 0

    def test_two_processors_interleave(self, m):
        ops0 = [read("A", i) for i in range(0, 32, 8)]
        ops1 = [read("A", i) for i in range(32, 64, 8)]
        result = m.engine.run_phase({0: iter(ops0), 1: iter(ops1)})
        assert result.finish_times[0] > 0 and result.finish_times[1] > 0

    def test_nonparticipant_untouched(self, m):
        result = m.engine.run_phase({0: iter([compute(10)])})
        assert result.finish_times[1] == -1.0
        assert result.per_proc[1].total == 0

    def test_empty_sources_rejected(self, m):
        with pytest.raises(ConfigurationError):
            m.engine.run_phase({})

    def test_phases_accumulate_time(self, m):
        m.engine.run_phase({0: iter([compute(50)])})
        t1 = m.engine.now
        m.engine.run_phase({0: iter([compute(50)])})
        assert m.engine.now >= t1 + 50


class TestCostOps:
    def test_busy_cost_op(self, m):
        result = m.engine.run_phase({0: iter([BusyCostOp(42)])})
        assert result.per_proc[0].busy == 42

    def test_sync_cost_op(self, m):
        result = m.engine.run_phase({0: iter([SyncCostOp(17)])})
        assert result.per_proc[0].sync == 17


class TestBarrier:
    def test_barrier_synchronizes(self, m):
        barrier = m.new_barrier(2)
        ops0 = [compute(1000), BarrierOp(barrier), compute(10)]
        ops1 = [compute(10), BarrierOp(barrier), compute(10)]
        result = m.engine.run_phase({0: iter(ops0), 1: iter(ops1)})
        # Both resume after the barrier at the same time.
        assert abs(result.finish_times[0] - result.finish_times[1]) < 1e-9
        # The early arriver waited.
        assert result.per_proc[1].sync >= 990

    def test_barrier_cost_charged(self, m):
        barrier = m.new_barrier(2)
        result = m.engine.run_phase(
            {0: iter([BarrierOp(barrier)]), 1: iter([BarrierOp(barrier)])}
        )
        assert result.per_proc[0].sync >= barrier.cost

    def test_unmatched_barrier_deadlocks(self, m):
        barrier = m.new_barrier(2)
        with pytest.raises(ConfigurationError, match="deadlock"):
            m.engine.run_phase({0: iter([BarrierOp(barrier)])})


class TestMutex:
    def test_serialization(self, m):
        mutex = Mutex()
        ops0 = [MutexOp(mutex, 50)]
        ops1 = [MutexOp(mutex, 50)]
        result = m.engine.run_phase({0: iter(ops0), 1: iter(ops1)})
        waits = sorted(p.sync for p in result.per_proc[:2])
        assert waits[0] == 0 and waits[1] >= 50

    def test_hold_is_busy(self, m):
        mutex = Mutex()
        result = m.engine.run_phase({0: iter([MutexOp(mutex, 30)])})
        assert result.per_proc[0].busy == 30


class TestAbort:
    def test_failure_aborts_running_processors(self):
        from repro.types import ProtocolKind

        machine = Machine(small_test_params(2))
        a = machine.space.allocate("A", 64, 8, protocol=ProtocolKind.NONPRIV)
        machine.spec.register_nonpriv(a)
        machine.spec.arm()
        # P0 writes element 0; P1 reads it -> FAIL; both must stop long
        # before finishing their 100 remaining compute blocks.
        ops0 = [write("A", 0)] + [compute(1000) for _ in range(100)]
        ops1 = [compute(500), read("A", 0)] + [compute(1000) for _ in range(100)]
        result = machine.engine.run_phase(
            {0: iter(ops0), 1: iter(ops1)}, abort_on_failure=True
        )
        assert result.aborted
        assert machine.engine.now < 50_000

    def test_failure_releases_barrier_waiters(self):
        from repro.types import ProtocolKind

        machine = Machine(small_test_params(2))
        a = machine.space.allocate("A", 64, 8, protocol=ProtocolKind.NONPRIV)
        machine.spec.register_nonpriv(a)
        machine.spec.arm()
        barrier = machine.new_barrier(2)
        ops0 = [compute(5), BarrierOp(barrier)]  # will wait forever
        ops1 = [write("A", 0), compute(200), read("A", 0), BarrierOp(barrier)]
        # P1 writes then... P1 reading its own write is fine; make P0 fail:
        ops0 = [compute(100), read("A", 0), BarrierOp(barrier)]
        result = machine.engine.run_phase(
            {0: iter(ops0), 1: iter(ops1)}, abort_on_failure=True
        )
        assert result.aborted


class TestOpDispatch:
    """Ops dispatch on their exact class: anything else is an error,
    never run as the op class it derives from."""

    def test_unknown_op_raises(self, m):
        with pytest.raises(TypeError, match="unknown op"):
            m.engine.run_phase({0: iter([compute(5), object()])})

    def test_access_op_subclass_raises(self, m):
        class TracedAccess(AccessOp):
            pass

        op = TracedAccess(AccessKind.READ, "A", 0)
        with pytest.raises(TypeError, match="unknown op"):
            m.engine.run_phase({0: iter([op])})

    def test_compute_op_subclass_raises(self, m):
        class Stall(ComputeOp):
            pass

        with pytest.raises(TypeError, match="unknown op"):
            m.engine.run_phase({0: iter([Stall(3)])})

    def test_out_of_range_access_raises_address_error(self, m):
        m.engine.run_phase({0: iter([read("A", 255)])})  # table now warm
        with pytest.raises(AddressError):
            m.engine.run_phase({0: iter([read("A", 256)])})
        with pytest.raises(AddressError):
            m.engine.run_phase({0: iter([read("A", -1)])})


class TestDrain:
    def test_drain_empties_heap(self, m):
        fired = []
        m.engine.post(10.0, lambda t: fired.append(t))
        m.engine.post(5.0, lambda t: fired.append(t))
        m.engine.drain()
        assert fired == [5.0, 10.0]
        assert m.engine.now >= 10.0


class TestMessageHeap:
    def test_messages_and_proc_events_interleave_by_time(self, m):
        order = []
        m.engine.post(10.0, lambda t: order.append(("proc", t)))
        m.engine.post_message(5.0, lambda t: order.append(("msg", t)))
        m.engine.post_message(15.0, lambda t: order.append(("msg", t)))
        m.engine.drain()
        assert order == [("msg", 5.0), ("proc", 10.0), ("msg", 15.0)]

    def test_flush_messages_leaves_proc_events(self, m):
        fired = []
        m.engine.post(10.0, lambda t: fired.append("proc"))
        m.engine.post_message(5.0, lambda t: fired.append("msg"))
        count = m.engine.flush_messages()
        assert count == 1 and fired == ["msg"]
        m.engine.drain()
        assert fired == ["msg", "proc"]

    def test_epoch_sync_idempotent_per_epoch(self):
        from repro.types import ProtocolKind

        machine = Machine(small_test_params(2))
        a = machine.space.allocate("A", 64, 8, protocol=ProtocolKind.PRIV)
        privs = [
            machine.space.allocate(
                f"A@p{p}", 64, 8, protocol=ProtocolKind.PRIV,
                home_policy="local", local_node=p % machine.params.num_nodes,
            )
            for p in range(2)
        ]
        machine.spec.register_priv(a, privs)
        machine.spec.arm()
        machine.engine.epoch_sync(1)
        machine.engine.epoch_sync(1)  # second call must be a no-op
        assert machine.spec.priv.epoch == 1
        machine.engine.epoch_sync(2)
        assert machine.spec.priv.epoch == 2


def _machine():
    machine = Machine(small_test_params(2), with_speculation=False)
    machine.space.allocate("A", 256, elem_bytes=8)
    return machine


def _resume_time():
    """When a lone processor's stream resumes after its first read: the
    time of the event that read posts for the processor."""
    machine = _machine()
    seen = []

    def stream():
        yield read("A", 0)
        seen.append(machine.engine.now)

    machine.engine.run_phase({0: stream()})
    return seen[0]


class TestEventOrder:
    """A processor's next event runs in place only when it is strictly
    the next one by ``(time, seq)``: at a tie the queued event, whose
    seq is lower, runs first."""

    def _order(self, post):
        """Run one processor reading ``A[0]`` after ``post(engine, log)``
        queued events; return the log of events and stream resumptions."""
        machine = _machine()
        log = []
        post(machine.engine, log)

        def stream():
            yield read("A", 0)
            log.append(("proc", machine.engine.now))

        machine.engine.run_phase({0: stream()})
        return log

    def test_processor_event_after_a_queued_event_at_its_time(self):
        t = _resume_time()
        log = self._order(
            lambda engine, log: engine.post(t, lambda now: log.append(("event", now)))
        )
        assert log == [("event", t), ("proc", t)]

    def test_processor_event_after_a_message_at_its_time(self):
        t = _resume_time()
        log = self._order(
            lambda engine, log: engine.post_message(
                t, lambda now: log.append(("msg", now))
            )
        )
        assert log == [("msg", t), ("proc", t)]

    def test_processor_event_before_later_events(self):
        t = _resume_time()

        def post(engine, log):
            engine.post(t + 1, lambda now: log.append(("event", now)))
            engine.post_message(t + 1, lambda now: log.append(("msg", now)))

        log = self._order(post)
        assert log == [("proc", t), ("event", t + 1), ("msg", t + 1)]

    @pytest.mark.parametrize("message_first", [False, True])
    def test_one_event_on_each_heap_at_one_time_run_in_seq_order(
        self, message_first
    ):
        engine = _machine().engine
        log = []
        posts = [
            lambda: engine.post(7.0, lambda now: log.append("event")),
            lambda: engine.post_message(7.0, lambda now: log.append("msg")),
        ]
        for post in reversed(posts) if message_first else posts:
            post()
        engine.drain()
        assert log == (["msg", "event"] if message_first else ["event", "msg"])

    def test_events_run_in_place_are_counted(self):
        """A lone processor runs each access's next event in place, yet
        every event counts: its start plus one per access."""
        machine = _machine()
        reads = [read("A", 8 * i) for i in range(20)]
        machine.engine.run_phase({0: iter(reads)})
        assert machine.engine.events_processed == 21

    def test_events_run_in_place_count_against_max_events(self):
        machine = _machine()
        machine.engine.max_events = 20
        with pytest.raises(ConfigurationError, match="exceeded 20 events"):
            machine.engine.run_phase({0: iter([read("A", 8 * i) for i in range(20)])})
        assert machine.engine.events_processed == 21


class TestSchedulers:
    def test_immediate_scheduler(self):
        from repro.core.messages import ImmediateScheduler

        fired = []
        ImmediateScheduler().post(42.0, lambda t: fired.append(t))
        assert fired == [42.0]

    def test_manual_scheduler_orders_by_time(self):
        from repro.core.messages import ManualScheduler

        s = ManualScheduler()
        fired = []
        s.post(10.0, lambda t: fired.append(t))
        s.post(5.0, lambda t: fired.append(t))
        assert s.pending() == 2
        assert s.deliver_next() and fired == [5.0]
        assert s.deliver_all() == 1 and fired == [5.0, 10.0]
        assert not s.deliver_next()
