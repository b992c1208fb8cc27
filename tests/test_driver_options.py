"""Tests for the runtime driver's configuration options."""

import hashlib

import pytest

from repro.params import MachineParams
from repro.runtime import (
    RunConfig,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    run_hw,
    run_serial,
    run_sw,
)
from repro.runtime import driver
from repro.sim.machine import Machine
from repro.trace import ArraySpec, Loop, compute, read, write
from repro.types import ProtocolKind

PARAMS = MachineParams(num_processors=4)
STATIC = ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.CHUNK)
ITER = ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.ITERATION)


def sparse_write_loop(elements=8_192, iterations=32):
    """Writes only a handful of elements of a big array."""
    body = []
    for i in range(iterations):
        j = (i * 257) % elements
        body.append([read("A", j), compute(50), write("A", j)])
    return Loop("sparse-w", [ArraySpec("A", elements, 8, ProtocolKind.NONPRIV)], body)


def rico_loop(iterations=16):
    """Reads-first precede all writes per element: parallel only with
    read-in/copy-out support (Figure 3 patterns)."""
    body = []
    for i in range(iterations):
        e = i % 4
        if i < 4:
            body.append([read("W", e), compute(30)])          # read-first
        else:
            body.append([write("W", e), compute(30), read("W", e)])
    return Loop("rico", [ArraySpec("W", 64, 8, ProtocolKind.PRIV)], body)


class TestSparseBackup:
    def test_sparse_backup_cheaper_for_sparse_writes(self):
        loop = sparse_write_loop()
        dense = run_hw(loop, PARAMS, RunConfig(schedule=STATIC))
        sparse = run_hw(
            loop, PARAMS, RunConfig(schedule=STATIC, sparse_backup=True)
        )
        assert dense.passed and sparse.passed
        assert sparse.phases["backup"] < dense.phases["backup"]

    def test_sparse_backup_same_outcome(self):
        loop = sparse_write_loop()
        for sparse in (False, True):
            r = run_hw(loop, PARAMS, RunConfig(schedule=STATIC, sparse_backup=sparse))
            assert r.passed

    def test_sparse_backup_walks_the_loop_once_per_array(self, monkeypatch):
        """Every processor's backup segment comes from one walk of the
        loop per modified array, and the ops are unchanged (pinned)."""
        walks = []
        written_elements = Loop.written_elements

        def counting(loop, array):
            walks.append(array)
            return written_elements(loop, array)

        monkeypatch.setattr(Loop, "written_elements", counting)
        loop = Loop(
            "sparse-two",
            [
                ArraySpec("A", 4096, 8, ProtocolKind.NONPRIV),
                ArraySpec("D", 1024, 4, ProtocolKind.NONPRIV),
                ArraySpec("P", 256, 8, ProtocolKind.PRIV),  # never backed up
                ArraySpec("C", 512, 8, modified=False),  # read-only
            ],
            [
                [
                    read("C", i), write("A", (i * 97) % 4096), compute(5),
                    write("D", (i * 31) % 1024), write("P", i % 256),
                ]
                for i in range(48)
            ],
        )
        streams = driver._backup_streams(Machine(PARAMS), loop, True)
        ops = sorted((proc, list(stream)) for proc, stream in streams.items())
        assert sorted(walks) == ["A", "D"]
        assert [len(proc_ops) for _, proc_ops in ops] == [57, 57, 66, 72]
        assert hashlib.sha256(repr(ops).encode()).hexdigest() == (
            "88164e309c556962b36dcc92480b7c4deaa6112ecd4818caeec272f5b41f7646"
        )


class TestSwReadIn:
    def test_rico_loop_needs_awmin(self):
        loop = rico_loop()
        # Iteration-wise SW without Awmin fails...
        base = run_sw(loop, PARAMS, RunConfig(schedule=ITER))
        assert not base.passed
        # ...and passes with the §2.2.3 extension.
        extended = run_sw(loop, PARAMS, RunConfig(schedule=ITER, sw_read_in=True))
        assert extended.passed
        assert extended.lrpd.arrays["W"].decided_by == "read-in-copy-out"

    def test_hw_priv_also_accepts_rico_loop(self):
        loop = rico_loop()
        # Iteration-granularity blocks so reads-first and writes land on
        # different processors.
        cfg = RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.BLOCK_CYCLIC, 1, VirtualMode.CHUNK)
        )
        r = run_hw(loop, PARAMS, cfg)
        assert r.passed

    def test_awmin_shadow_costs_extra_time(self):
        # The extra shadow array must be zeroed, marked and merged.
        loop = sparse_write_loop()
        base = run_sw(loop, PARAMS, RunConfig(schedule=ITER))
        extended = run_sw(loop, PARAMS, RunConfig(schedule=ITER, sw_read_in=True))
        assert extended.wall > base.wall


class TestMemStats:
    def test_stats_attached(self):
        loop = sparse_write_loop()
        serial = run_serial(loop, PARAMS)
        hw = run_hw(loop, PARAMS, RunConfig(schedule=STATIC), serial_result=serial)
        assert serial.mem is not None and serial.mem.accesses > 0
        assert hw.mem is not None
        # Serial has everything local: no remote misses at all.
        assert serial.mem.remote_2hop == 0 and serial.mem.remote_3hop == 0
        assert hw.mem.remote_2hop > 0

    def test_hit_counts_consistent(self):
        loop = sparse_write_loop()
        r = run_serial(loop, PARAMS)
        s = r.mem
        assert s.l1_hits + s.l2_hits + s.misses == s.accesses
