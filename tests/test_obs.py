"""Tests for the unified telemetry layer (repro.obs)."""

import collections
import dataclasses
import json

import pytest

import repro.obs
from repro.memsys.cache import HitLevel
from repro.obs import (
    AccessEvent,
    EventBus,
    EventRecorder,
    MetricsCollector,
    MetricsRegistry,
    PhaseBeginEvent,
    PhaseEndEvent,
    ProtocolMessageEvent,
    RunStartEvent,
    Telemetry,
    chrome_trace,
    phase_report,
    run_provenance,
    write_jsonl,
)
from repro.obs.bus import BoundedLog
from repro.params import CacheGeometry, default_params, small_test_params
from repro.runtime.driver import RunConfig, run_hw, run_serial, run_sw
from repro.runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from repro.sim.machine import Machine
from repro.trace import ArraySpec, Loop, compute, read, write
from repro.types import AccessKind, ProtocolKind
from repro.workloads import AdmWorkload


def _hw_result_with_telemetry(procs=4):
    workload = AdmWorkload(seed=7, scale=0.25)
    loop = next(workload.executions(1))
    telemetry = Telemetry()
    config = dataclasses.replace(workload.hw_config(), telemetry=telemetry)
    result = run_hw(loop, default_params(procs), config)
    return result, telemetry


# ----------------------------------------------------------------------
# EventBus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_typed_dispatch(self):
        bus = EventBus()
        seen = []
        bus.subscribe(AccessEvent, seen.append)
        bus.emit(AccessEvent(0.0, 0, AccessKind.READ, 64, HitLevel.L1, 1))
        bus.emit(PhaseBeginEvent(0.0, "loop"))  # different type: not seen
        assert len(seen) == 1 and type(seen[0]) is AccessEvent

    def test_catch_all_subscriber(self):
        bus = EventBus()
        seen = []
        bus.subscribe(None, seen.append)
        bus.emit(PhaseBeginEvent(0.0, "loop"))
        bus.emit(AccessEvent(1.0, 0, AccessKind.READ, 64, HitLevel.L1, 1))
        assert len(seen) == 2

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        fn = bus.subscribe(PhaseBeginEvent, seen.append)
        bus.emit(PhaseBeginEvent(0.0, "a"))
        bus.unsubscribe(PhaseBeginEvent, fn)
        bus.emit(PhaseBeginEvent(1.0, "b"))
        assert len(seen) == 1
        assert bus.subscriber_count == 0

    def test_hot_path_flags(self):
        bus = EventBus()
        assert not bus.wants_access
        fn = bus.subscribe(PhaseBeginEvent, lambda e: None)
        assert not bus.wants_access  # coarse subscriber only
        bus.subscribe(AccessEvent, lambda e: None)
        assert bus.wants_access
        bus.subscribe(None, lambda e: None)
        assert bus.wants_access and bus.wants_dir

    def test_events_are_frozen(self):
        event = PhaseBeginEvent(0.0, "loop")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.phase = "other"

    def test_active_flag_tracks_subscriptions(self):
        bus = EventBus()
        assert not bus.active
        fn = bus.subscribe(PhaseBeginEvent, lambda e: None)
        assert bus.active
        bus.unsubscribe(PhaseBeginEvent, fn)
        assert not bus.active
        fn = bus.subscribe(None, lambda e: None)
        assert bus.active
        bus.unsubscribe(None, fn)
        assert not bus.active

    def test_zero_subscriber_bus_constructs_no_events(self, monkeypatch):
        """An attached bus with no subscribers must not cost anything:
        every emission site guards event construction on ``bus.active``,
        so a full hardware run emits exactly zero events."""
        emitted = []
        real_emit = EventBus.emit
        monkeypatch.setattr(
            EventBus, "emit", lambda self, event: (emitted.append(event),
                                                   real_emit(self, event))[1]
        )
        workload = AdmWorkload(seed=7, scale=0.25)
        loop = next(workload.executions(1))
        bus = EventBus()
        config = dataclasses.replace(workload.hw_config(), telemetry=bus)
        result = run_hw(loop, small_test_params(4), config)
        assert result.passed
        assert emitted == []
        # Control: the same run with one subscriber flows events again.
        bus2 = EventBus()
        recorder = EventRecorder().subscribe(bus2)
        config2 = dataclasses.replace(workload.hw_config(), telemetry=bus2)
        run_hw(loop, small_test_params(4), config2)
        assert emitted and len(recorder) == len(emitted)


class _Boom:
    """Stand-in event class: any instantiation means an event object was
    allocated on a path whose guard said no subscriber wanted it."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("event allocated on a zero-subscriber path")


class TestGuardedEmissionSites:
    """Pin each guard class found by the EventBus call-site audit: the
    event object must not even be *constructed* unless a subscriber of
    that family exists (``wants_access`` / ``wants_dir`` / ``wants_spec``
    / ``active``).  Each test booby-traps the event class and drives the
    emission site with a bus that is active but does not want that
    family; the control then subscribes and expects the trap to fire.
    Emission sites look their classes up on the lazy ``repro.obs``
    package (``obs.AccessEvent(...)``), so that is where the traps go."""

    def _machine_with_bus(self, bus):
        m = Machine(small_test_params(2))
        m.attach_bus(bus)
        return m

    def test_access_trace_sites_guard_on_wants_access(self, monkeypatch):
        monkeypatch.setattr(repro.obs, "AccessEvent", _Boom)
        bus = EventBus()
        bus.subscribe(PhaseBeginEvent, lambda e: None)  # active, no access
        assert bus.active and not bus.wants_access
        m = self._machine_with_bus(bus)
        a = m.space.allocate("A", 64, elem_bytes=8)
        # L1 hit, L2/memory miss and write-buffer paths all pass their
        # hoisted ``wants_access`` check without allocating.
        m.memsys.read(0, a.addr_of(0), 0.0)
        m.memsys.read(0, a.addr_of(0), 1.0)
        m.memsys.write(0, a.addr_of(0), 2.0)
        m.memsys.write(1, a.addr_of(8), 3.0)
        # Control: an access subscriber re-arms allocation.
        bus.subscribe(AccessEvent, lambda e: None)
        with pytest.raises(AssertionError, match="zero-subscriber"):
            m.memsys.read(0, a.addr_of(0), 4.0)

    def test_dir_transition_sites_guard_on_wants_dir(self, monkeypatch):
        monkeypatch.setattr(repro.obs, "DirTransitionEvent", _Boom)
        bus = EventBus()
        bus.subscribe(AccessEvent, lambda e: None)  # active, no dir
        assert bus.active and not bus.wants_dir
        m = self._machine_with_bus(bus)
        a = m.space.allocate("A", 64, elem_bytes=8)
        m.memsys.read(0, a.addr_of(0), 0.0)   # CLEAN fill
        m.memsys.write(1, a.addr_of(0), 1.0)  # upgrade to DIRTY
        m.engine.drain()
        bus.subscribe(None, lambda e: None)
        assert bus.wants_dir
        with pytest.raises(AssertionError, match="zero-subscriber"):
            m.memsys.read(0, a.addr_of(16), 2.0)
            m.engine.drain()

    def test_spec_dir_update_sites_guard_on_wants_spec(self, monkeypatch):
        monkeypatch.setattr(repro.obs, "NonPrivDirUpdateEvent", _Boom)
        bus = EventBus()
        bus.subscribe(AccessEvent, lambda e: None)  # active, no spec
        assert bus.active and not bus.wants_spec
        m = self._machine_with_bus(bus)
        a = m.space.allocate("A", 64, elem_bytes=8, protocol=ProtocolKind.NONPRIV)
        m.spec.register_nonpriv(a)
        m.spec.arm()
        m.memsys.read(0, a.addr_of(3), 0.0)
        m.engine.drain()
        bus.subscribe(None, lambda e: None)
        assert bus.wants_spec
        with pytest.raises(AssertionError, match="zero-subscriber"):
            m.memsys.read(1, a.addr_of(11), 1.0)
            m.engine.drain()

    def test_protocol_message_guard_on_active(self, monkeypatch):
        monkeypatch.setattr(repro.obs, "ProtocolMessageEvent", _Boom)
        bus = EventBus()  # attached but zero subscribers
        m = self._machine_with_bus(bus)
        a = m.space.allocate("A", 64, elem_bytes=8, protocol=ProtocolKind.NONPRIV)
        m.spec.register_nonpriv(a)
        m.spec.arm()
        m.memsys.read(0, a.addr_of(3), 0.0)
        # Clean-hit read: marks First locally and sends a deferred
        # First_update — the message-log guard sees no subscriber.
        m.memsys.read(0, a.addr_of(4), 1.0)
        m.engine.drain()
        bus.subscribe(None, lambda e: None)
        with pytest.raises(AssertionError, match="zero-subscriber"):
            m.memsys.read(0, a.addr_of(5), 2.0)
            m.engine.drain()

    def test_failure_event_guard_on_active(self, monkeypatch):
        monkeypatch.setattr(repro.obs, "FailureEvent", _Boom)

        def fail_on(bus):
            m = self._machine_with_bus(bus)
            a = m.space.allocate(
                "A", 64, elem_bytes=8, protocol=ProtocolKind.NONPRIV
            )
            m.spec.register_nonpriv(a)
            m.spec.arm()
            m.memsys.read(0, a.addr_of(3), 0.0)
            m.memsys.write(1, a.addr_of(3), 10.0)
            m.engine.drain()
            return m

        m = fail_on(EventBus())  # attached but zero subscribers
        # The failure was detected without constructing a FailureEvent.
        assert m.spec.controller.failed
        # Control: a subscribed bus builds the event at the same site.
        bus = EventBus()
        bus.subscribe(None, lambda e: None)
        with pytest.raises(AssertionError, match="zero-subscriber"):
            fail_on(bus)


def _priv_loop(dependence: bool) -> Loop:
    """32 privatizable iterations; with ``dependence``, iteration 5
    writes an element that iteration 20 reads first."""
    body = [
        [write("W", 32 + i % 32), compute(40), read("W", 32 + i % 32)]
        for i in range(32)
    ]
    if dependence:
        body[4].append(write("W", 0))
        body[19].insert(0, read("W", 0))
    return Loop("counts-priv", [ArraySpec("W", 64, 8, ProtocolKind.PRIV)], body)


def _counted_run(run, loop, params, config):
    """(passed, {event class name: count}) under a catch-all subscriber."""
    counts = collections.Counter()
    bus = EventBus()
    bus.subscribe(None, lambda e: counts.update((type(e).__name__,)))
    result = run(loop, params, dataclasses.replace(config, telemetry=bus))
    return result.passed, dict(counts)


class TestEmissionCounts:
    """Per-class event counts of four runs that together reach every
    simulator emission site, recorded before the event classes became
    lazily loaded.  Moving or re-guarding a site must emit exactly the
    same events."""

    def _adm(self):
        workload = AdmWorkload(seed=7, scale=0.25)
        return workload, next(workload.executions(1))

    def test_sw_run(self):
        workload, loop = self._adm()
        assert _counted_run(run_sw, loop, default_params(4), workload.sw_config()) == (
            True,
            {
                "AccessEvent": 12828, "DirTransitionEvent": 609,
                "PhaseBeginEvent": 3, "PhaseEndEvent": 3, "QuiesceEvent": 3,
                "RunStartEvent": 1, "RunEndEvent": 1,
            },
        )

    def test_passing_hw_run(self):
        workload, loop = self._adm()
        assert _counted_run(run_hw, loop, default_params(4), workload.hw_config()) == (
            True,
            {
                "AccessEvent": 5376, "DirTransitionEvent": 528,
                "NonPrivDirUpdateEvent": 1124, "PrivSimpleDirUpdateEvent": 32,
                "ProtocolMessageEvent": 288, "SpeculationArmEvent": 2,
                "PhaseBeginEvent": 2, "PhaseEndEvent": 2, "QuiesceEvent": 2,
                "RunStartEvent": 1, "RunEndEvent": 1,
            },
        )

    def test_failing_hw_run(self):
        assert _counted_run(
            run_hw, _priv_loop(True), small_test_params(4), RunConfig()
        ) == (
            False,
            {
                "AccessEvent": 54, "DirTransitionEvent": 10,
                "PrivDirUpdateEvent": 24, "ProtocolMessageEvent": 29,
                "SpeculationArmEvent": 2, "FailureEvent": 1, "AbortEvent": 1,
                "RestoreEvent": 1, "PhaseBeginEvent": 2, "PhaseEndEvent": 2,
                "QuiesceEvent": 2, "RunStartEvent": 1, "RunEndEvent": 1,
            },
        )

    def test_timestamp_bits_hw_run(self):
        config = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK),
            timestamp_bits=2,
        )
        assert _counted_run(
            run_hw, _priv_loop(False), small_test_params(4), config
        ) == (
            True,
            {
                "AccessEvent": 64, "DirTransitionEvent": 16,
                "PrivDirUpdateEvent": 32, "ProtocolMessageEvent": 32,
                "SpeculationArmEvent": 2, "EpochSyncEvent": 10,
                "BarrierWaitEvent": 40, "PhaseBeginEvent": 1,
                "PhaseEndEvent": 1, "QuiesceEvent": 1, "RunStartEvent": 1,
                "RunEndEvent": 1,
            },
        )


# ----------------------------------------------------------------------
# BoundedLog / EventRecorder as bus subscribers
# ----------------------------------------------------------------------
class TestBoundedLog:
    def test_eviction_and_dropped_accounting(self):
        log = BoundedLog(capacity=10)
        for i in range(25):
            log.append(i)
        assert len(log) <= 15
        assert log.dropped > 0
        assert log.dropped + len(log) == 25
        # survivors are the newest records, in order
        assert list(log)[-1] == 24

    def test_clear_resets(self):
        log = BoundedLog(capacity=4)
        for i in range(9):
            log.append(i)
        log.clear()
        assert len(log) == 0 and log.dropped == 0

    def test_access_trace_eviction(self):
        bus = EventBus()
        trace = EventRecorder(capacity=10).subscribe(bus, AccessEvent)
        for i in range(25):
            bus.emit(AccessEvent(float(i), 0, AccessKind.READ, i, HitLevel.L1, 1))
        assert len(trace) <= 15
        assert trace.dropped + len(trace) == 25
        assert trace.records[-1].addr == 24

    def test_messages_by_label_over_bus(self):
        bus = EventBus()
        log = EventRecorder().subscribe(bus)
        for i in range(3):
            bus.emit(ProtocolMessageEvent(float(i), "First_update", 0, "A", i))
        bus.emit(ProtocolMessageEvent(3.0, "read-first", 1, "A", 0))
        bus.emit(PhaseBeginEvent(4.0, "loop"))
        labels = [e.label for e in log.of_type(ProtocolMessageEvent)]
        assert labels == ["First_update"] * 3 + ["read-first"]

    def test_access_trace_subscribes_to_machine_bus(self):
        m = Machine(small_test_params(2), with_speculation=False)
        m.attach_bus(EventBus())
        a = m.space.allocate("A", 64, elem_bytes=8)
        trace = EventRecorder().subscribe(m.bus, AccessEvent)
        m.memsys.read(0, a.addr_of(0), 0.0)
        m.memsys.write(1, a.addr_of(5), 10.0)
        assert [(r.proc, r.kind, r.level) for r in trace] == [
            (0, AccessKind.READ, HitLevel.MEMORY),
            (1, AccessKind.WRITE, HitLevel.MEMORY),
        ]
        m.bus.unsubscribe(AccessEvent, trace.append)
        m.memsys.read(0, a.addr_of(1), 20.0)
        assert len(trace) == 2


class TestProtocolMessages:
    """Protocol messages as an ``EventRecorder`` on the machine's bus
    sees them."""

    def _recorded(self, protocol):
        m = Machine(small_test_params(2))
        m.attach_bus(EventBus())
        log = EventRecorder().subscribe(m.bus, ProtocolMessageEvent)
        a = m.space.allocate("A", 64, elem_bytes=8, protocol=protocol)
        return m, a, log

    def test_protocol_messages_logged(self):
        m, a, log = self._recorded(ProtocolKind.NONPRIV)
        m.spec.register_nonpriv(a)
        m.spec.arm()
        # Prime the line in both caches, then race two First_updates.
        m.memsys.read(0, a.addr_of(1), 0.0)
        m.memsys.read(1, a.addr_of(1), 10.0)
        m.engine.drain()
        m.memsys.read(0, a.addr_of(0), 1000.0)
        m.memsys.read(1, a.addr_of(0), 1000.5)
        m.engine.drain()
        labels = [e.label for e in log]
        assert labels.count("First_update") >= 2
        assert labels.count("First_update_fail") == 1
        assert not m.spec.controller.failed

    def test_priv_signals_logged(self):
        m, a, log = self._recorded(ProtocolKind.PRIV)
        privs = [
            m.space.allocate(f"A@p{p}", 64, elem_bytes=8,
                             protocol=ProtocolKind.PRIV,
                             home_policy="local",
                             local_node=m.params.node_of_processor(p))
            for p in range(2)
        ]
        m.spec.register_priv(a, privs)
        m.spec.arm()
        m.spec.set_iteration(0, 1)
        addr = m.spec.resolve(0, "A", 3, AccessKind.READ)
        m.memsys.read(0, addr, 0.0)
        m.engine.drain()
        assert "read-in" in [e.label for e in log]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_labels_and_totals(self):
        reg = MetricsRegistry()
        reg.counter("mem.accesses", proc=0, kind="rd").inc(3)
        reg.counter("mem.accesses", proc=1, kind="rd").inc()
        reg.counter("mem.accesses", proc=1, kind="wr").inc()
        assert reg.value("mem.accesses", proc=0, kind="rd") == 3
        assert reg.total("mem.accesses") == 5
        assert reg.total("mem.accesses", proc=1) == 2
        assert reg.total("mem.accesses", kind="rd") == 4

    def test_histogram(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1, 2, 4, 9):
            h.observe(v)
        assert h.count == 4 and h.min == 1 and h.max == 9
        assert h.mean == pytest.approx(4.0)
        d = h.as_dict()
        assert sum(d["buckets"].values()) == 4

    def test_as_dict_round_trips_json(self):
        reg = MetricsRegistry()
        reg.counter("a", x=1).inc()
        reg.histogram("b").observe(2.0)
        text = json.dumps(reg.as_dict())
        assert json.loads(text)["counters"]["a"] == {"x=1": 1}

    def test_collector_aggregates_a_run(self):
        result, telemetry = _hw_result_with_telemetry()
        reg = telemetry.registry
        assert reg.total("mem.accesses") > 0
        # phase labels flowed from the runtime events into the labels
        phases = {
            labels["phase"] for labels, _ in reg.series("mem.accesses")
        }
        assert "loop" in phases
        # array names resolved through the machine's address space
        arrays = {
            labels["array"] for labels, _ in reg.series("mem.accesses")
        }
        assert any(a != "<unknown>" for a in arrays)

    def test_collector_counts_by_array_proc_and_level(self):
        m = Machine(small_test_params(2), with_speculation=False)
        m.attach_bus(EventBus())
        a = m.space.allocate("A", 128, elem_bytes=8)
        b = m.space.allocate("B", 64, elem_bytes=8)
        reg = MetricsCollector(space=m.space).subscribe(m.bus).registry
        m.memsys.read(0, a.addr_of(0), 0.0)    # miss
        m.memsys.read(0, a.addr_of(1), 500.0)  # L1 hit, same line
        m.memsys.read(1, a.addr_of(8), 600.0)  # miss, next line
        m.memsys.write(0, b.addr_of(0), 1000.0)
        assert reg.total("mem.accesses") == 4
        assert reg.total("mem.accesses", array="A", kind="read") == 3
        assert reg.total("mem.accesses", array="B", kind="write") == 1
        assert reg.total("mem.accesses", proc=0) == 3
        assert reg.total("mem.accesses", proc=1) == 1
        assert reg.total("mem.accesses", array="A", level="memory") == 2
        assert reg.total("mem.accesses", array="A", level="l1") == 1
        stall = dict(
            (labels["array"], h) for labels, h in reg.series("mem.stall_cycles")
        )
        assert stall["A"].count == 3 and stall["A"].min == 0
        assert stall["A"].total > 0 and stall["B"].count == 1


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
#: params_hash of default_params(16) / small_test_params(4)
PINNED_PARAMS = {
    16: "d11c7556572d9a707e4189779542a53b7cc9b52e70edc8718e84cb0c5eb2ed66",
    4: "744878e93bee31627390eb8db18a07966a875cdb197edf8a7655b6904146fa1a",
}
#: (procs, config label) -> (config_hash, schedule text); ledger keys
#: are built from these, so they must never change
PINNED_CONFIGS = {
    (16, "none"): ("5ac8dfa9046b9a21dd5ba4ca9fe38153899f9a0cbb09cb518fe56be3728ac69c", "default"),
    (16, "default"): ("f3de9d584a36f8d98656ac5a7f5bdf909ef63cf8cfdc4bbf8861f84c0abde06e", "dynamic/chunk=4/chunk"),
    (16, "static"): ("0ffc5af2188e91bad44ee96d72292ae581bee13dfecfba30e2872fafabcbc369", "static-chunk/chunk=2/processor"),
    (16, "sparse"): ("87613c967a3dd4c652ae6f35f50c12db6498e94d994013c178e5ced9d0e58eb7", "dynamic/chunk=4/chunk"),
    (16, "ts8"): ("7ea8e14ea3374373f9ce4949ce8c7e34b1d992206e33516ed7427a633ba6db9d", "static-chunk/chunk=4/chunk"),
    (4, "none"): ("84407110a7460f7e292647089d3f4547bae936ff43a344ea209ce82d7bce11df", "default"),
    (4, "default"): ("35ffa4435763ee8f5efe9076a90d63b813f4608be0ec7acf3eff84f8545ebba4", "dynamic/chunk=4/chunk"),
    (4, "static"): ("df70c11a9a1b50b94ac826fd2dc178eed77ac45c2a9edd60724df7055f72642f", "static-chunk/chunk=2/processor"),
    (4, "sparse"): ("1d3dde37a7d7bad10ed2df6d1ec9b23d85535d0fb38a1d21ffa821bbaaa58a4f", "dynamic/chunk=4/chunk"),
    (4, "ts8"): ("95161e486c41ce920dfc90670e72687d6053760c88e6058271d607249246d9f8", "static-chunk/chunk=4/chunk"),
    (4, "per-line"): ("17a9aa5c20dda8693aeb0e91d106beaa55da636d652bb5ab0b89787f91ffc14f", "dynamic/chunk=4/chunk"),
    (4, "read-in"): ("bd90653da0e7dc03cf6111d0a89bea36961d0b0f9a79447fd5863e7c7e541270", "dynamic/chunk=4/chunk"),
    (4, "cyclic"): ("701396796b4d214f11b0ad58615c1c78d118270954f87f0751949bb70d785a48", "block-cyclic/chunk=3/iteration"),
}
#: params_hash of small_test_params(4) with spec_occupancy_factor 2.0
PINNED_FACTOR_2 = "56f33bf61c8b52757d1c3455b4d462c79334eee2a1f7f99d77c7c7c23080b8aa"
PIN_CONFIGS = {
    "none": None,
    "default": RunConfig(),
    "static": RunConfig(
        schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 2, VirtualMode.PROCESSOR)
    ),
    "sparse": RunConfig(sparse_backup=True),
    # Time stamps need a static, chunk-numbered schedule.
    "ts8": RunConfig(
        schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 4, VirtualMode.CHUNK),
        timestamp_bits=8,
    ),
    "per-line": RunConfig(per_line_bits=True),
    "read-in": RunConfig(sw_read_in=True),
    "cyclic": RunConfig(
        schedule=ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 3, VirtualMode.ITERATION)
    ),
}


def _pin_params(procs):
    return default_params(16) if procs == 16 else small_test_params(4)


class TestProvenancePins:
    @pytest.mark.parametrize(
        "procs,label", sorted(PINNED_CONFIGS), ids=lambda v: str(v)
    )
    def test_hashes_pinned(self, procs, label):
        config_hash, schedule = PINNED_CONFIGS[procs, label]
        # Twice: the second call is served from the memo.
        for _ in range(2):
            prov = run_provenance(_pin_params(procs), PIN_CONFIGS[label])
            assert prov.config_hash == config_hash
            assert prov.params_hash == PINNED_PARAMS[procs]
            assert prov.schedule == schedule

    @pytest.mark.parametrize(
        "change",
        [
            {"num_processors": 8},
            {"page_bytes": 8192},
            {"write_buffer_entries": 4},
            {"l2": CacheGeometry(1024 * 1024)},
        ],
        ids=lambda c: next(iter(c)),
    )
    def test_replaced_params_rehash(self, change):
        # The memo is keyed on params equality, so a replaced field must
        # give a new hash, never the cached one.
        base = default_params(16)
        before = run_provenance(base, RunConfig())
        after = run_provenance(dataclasses.replace(base, **change), RunConfig())
        assert after.params_hash != before.params_hash
        assert after.config_hash != before.config_hash
        assert run_provenance(base, RunConfig()) == before

    def test_replaced_nested_params_rehash(self):
        base = default_params(16)
        slower = dataclasses.replace(
            base, latency=dataclasses.replace(base.latency, remote_2hop=300)
        )
        assert run_provenance(slower).params_hash != PINNED_PARAMS[16]

    def test_replaced_config_rehash(self):
        params = default_params(16)
        # A static schedule, which time stamps need.
        base = RunConfig(schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK))
        seen = {
            run_provenance(params, config).config_hash
            for config in (
                base,
                dataclasses.replace(base, timestamp_bits=4),
                dataclasses.replace(base, per_line_bits=True),
                dataclasses.replace(
                    base,
                    schedule=ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 8),
                ),
            )
        }
        assert len(seen) == 4

    def test_per_run_fields_not_memoized(self):
        params = default_params(16)
        a = run_provenance(params, RunConfig(), scenario="HW", loop_name="x", seed=1)
        b = run_provenance(params, RunConfig(), scenario="SW", loop_name="y", seed=2)
        assert (a.scenario, a.loop_name, a.seed) == ("HW", "x", 1)
        assert (b.scenario, b.loop_name, b.seed) == ("SW", "y", 2)
        assert a.config_hash == b.config_hash


class TestProvenance:
    def test_hash_stable_across_identical_configs(self):
        p1, p2 = default_params(8), default_params(8)
        c1, c2 = RunConfig(), RunConfig()
        assert run_provenance(p1, c1).config_hash == run_provenance(p2, c2).config_hash
        assert run_provenance(p1).params_hash == run_provenance(p2).params_hash

    def test_hash_changes_with_config(self):
        params = default_params(8)
        base = run_provenance(params, RunConfig())
        sparse = run_provenance(params, RunConfig(sparse_backup=True))
        other_sched = run_provenance(
            params,
            RunConfig(schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 8, VirtualMode.CHUNK)),
        )
        assert base.config_hash != sparse.config_hash
        assert base.config_hash != other_sched.config_hash
        assert base.params_hash == sparse.params_hash

    def test_hooks_do_not_affect_hash(self):
        params = default_params(8)
        plain = run_provenance(params, RunConfig())
        hooked = run_provenance(
            params, RunConfig(machine_hook=lambda m: None, telemetry=Telemetry())
        )
        assert plain.config_hash == hooked.config_hash

    def test_int_occupancy_factor_hashes_as_its_float(self):
        # Provenance is memoized on params equality, and 2 == 2.0: the
        # model stores the float so equal params render identically.
        base = small_test_params(4)

        def with_factor(factor):
            return dataclasses.replace(
                base,
                contention=dataclasses.replace(
                    base.contention, spec_occupancy_factor=factor
                ),
            )

        as_int, as_float = with_factor(2), with_factor(2.0)
        assert as_int.contention.spec_occupancy_factor.__class__ is float
        assert run_provenance(as_int).params_hash == PINNED_FACTOR_2
        assert run_provenance(as_float).params_hash == PINNED_FACTOR_2

    def test_run_result_is_stamped(self):
        result, _ = _hw_result_with_telemetry()
        assert result.provenance is not None
        assert len(result.provenance.config_hash) == 64
        assert result.provenance.scenario == "HW"
        assert result.metrics is not None
        assert "counters" in result.metrics

    def test_serialize_includes_provenance(self):
        from repro.experiments.serialize import run_result_to_dict

        result, _ = _hw_result_with_telemetry()
        doc = json.loads(json.dumps(run_result_to_dict(result)))
        assert doc["provenance"]["config_hash"] == result.provenance.config_hash
        assert "metrics" in doc

    def test_sets_canonicalize_as_sorted_lists(self):
        # Sets used to fall through _jsonable to repr(), whose
        # iteration order is hash-seed dependent — the same value would
        # fingerprint differently across processes.
        from repro.obs import canonical_json, fingerprint

        assert canonical_json({"s": {"c", "a", "b"}}) == '{"s":["a","b","c"]}'
        assert canonical_json(frozenset({3, 1, 2})) == "[1,2,3]"
        assert fingerprint({"s": frozenset({"x", "y"})}) == fingerprint(
            {"s": ["x", "y"]}
        )

    def test_set_fingerprint_stable_across_hash_seeds(self):
        # Rendering must not depend on the interpreter's string hash
        # seed (it changes per process unless PYTHONHASHSEED is pinned).
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "from repro.obs import fingerprint; "
            "print(fingerprint({'procs': frozenset(['p%d' % i "
            "for i in range(32)])}))"
        )
        digests = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for seed in ("1", "2026")
        }
        assert len(digests) == 1, digests


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExport:
    def test_chrome_trace_round_trip(self, tmp_path):
        result, telemetry = _hw_result_with_telemetry()
        out = tmp_path / "trace.json"
        count = telemetry.write_chrome_trace(
            str(out), metadata=result.provenance.as_dict()
        )
        doc = json.load(open(out))
        events = doc["traceEvents"]
        assert len(events) == count > 0
        timestamps = [e["ts"] for e in events]
        assert timestamps == sorted(timestamps)
        assert doc["metadata"]["config_hash"] == result.provenance.config_hash

    def test_trace_covers_four_subsystems(self):
        _, telemetry = _hw_result_with_telemetry()
        doc = chrome_trace(telemetry.events)
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"memsys", "core", "sim", "runtime"} <= cats
        # and the raw stream agrees
        assert {"memsys", "core", "sim", "runtime"} <= set(
            telemetry.events.subsystems()
        )

    def test_phase_slices_nest(self):
        _, telemetry = _hw_result_with_telemetry()
        doc = chrome_trace(telemetry.events)
        begins = [e for e in doc["traceEvents"] if e["ph"] == "B"]
        ends = [e for e in doc["traceEvents"] if e["ph"] == "E"]
        assert len(begins) == len(ends) >= 2  # backup + loop at least

    def test_jsonl_lines_parse(self, tmp_path):
        _, telemetry = _hw_result_with_telemetry()
        out = tmp_path / "events.jsonl"
        count = write_jsonl(telemetry.events, str(out))
        lines = open(out).read().splitlines()
        assert len(lines) == count > 0
        first = json.loads(lines[0])
        assert {"event", "subsystem", "time"} <= set(first)

    def test_jsonl_filters_hits_by_default(self, tmp_path):
        _, telemetry = _hw_result_with_telemetry()
        filtered = write_jsonl(telemetry.events, str(tmp_path / "a.jsonl"))
        full = write_jsonl(
            telemetry.events, str(tmp_path / "b.jsonl"), include_hits=True
        )
        assert full > filtered

    def test_phase_report_text(self):
        result, telemetry = _hw_result_with_telemetry()
        text = telemetry.phase_report()
        assert "loop" in text and "%" in text
        assert "adm" in text  # run header names the loop


# ----------------------------------------------------------------------
# Driver / engine integration
# ----------------------------------------------------------------------
class TestDriverIntegration:
    def test_serial_run_emits_runtime_events(self):
        workload = AdmWorkload(seed=7, scale=0.25)
        loop = next(workload.executions(1))
        telemetry = Telemetry()
        result = run_serial(
            loop, default_params(8), RunConfig(telemetry=telemetry)
        )
        starts = telemetry.events.of_type(RunStartEvent)
        assert len(starts) == 1 and starts[0].scenario == "Serial"
        phases = telemetry.events.of_type(PhaseEndEvent)
        assert phases and phases[0].duration == result.phases["loop"]

    def test_bare_bus_as_telemetry(self):
        workload = AdmWorkload(seed=7, scale=0.25)
        loop = next(workload.executions(1))
        bus = EventBus()
        recorder = EventRecorder().subscribe(bus)
        run_serial(loop, default_params(8), RunConfig(telemetry=bus))
        assert len(recorder) > 0

    def test_failure_events_on_dependent_loop(self):
        m = Machine(small_test_params(2))
        a = m.space.allocate("A", 64, elem_bytes=8, protocol=ProtocolKind.NONPRIV)
        m.spec.register_nonpriv(a)
        recorder = EventRecorder()
        bus = EventBus()
        recorder.subscribe(bus)
        m.attach_bus(bus)
        m.spec.arm()
        # proc 1 writes what proc 0 read: cross-iteration dependence
        m.memsys.read(0, a.addr_of(3), 0.0)
        m.memsys.write(1, a.addr_of(3), 10.0)
        m.engine.drain()
        assert m.spec.controller.failed
        failures = [e for e in recorder if e.name == "failure"]
        assert failures and failures[0].subsystem == "core"

    def test_no_bus_means_no_overhead_paths(self):
        # machines without telemetry must keep all bus fields None
        m = Machine(small_test_params(2))
        assert m.bus is None and m.memsys.bus is None and m.engine.bus is None
        assert m.spec.ctx.bus is None and m.spec.controller.bus is None

    def test_phase_report_composes(self):
        result, telemetry = _hw_result_with_telemetry()
        report = phase_report(telemetry.events)
        for phase in result.phases:
            if phase != "serial-reexec":
                assert phase in report
