"""Seeded fuzz over the machine, cost and run configuration.

Every drawn configuration either runs a tiny loop through Serial,
Ideal, SW and HW, or raises ``ConfigurationError`` while it is built.
Nothing else may escape: not a ``ZeroDivisionError`` from the
processor-wise bitmap, not a ``ValueError`` about negative compute
cycles, not a ``TypeError`` from a float where a count belongs.

Each draw perturbs one to three fields of ``CostModel``,
``ContentionModel``, ``LatencyTable``, ``MachineParams`` (its own
fields and both ``CacheGeometry``s), ``RunConfig`` and its
``ScheduleSpec`` with 0, a negative, a bool, a float, a small valid int
or a huge value; a schedule's policy and numbering with every member of
their enums or a stray string or ``None``.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.params import (
    CacheGeometry,
    ContentionModel,
    CostModel,
    LatencyTable,
    MachineParams,
)
from repro.runtime import (
    RunConfig,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    run_hw,
    run_ideal,
    run_serial,
    run_sw,
)
from repro.trace.loop import ArraySpec, Loop
from repro.trace.ops import compute, read, write
from repro.types import ProtocolKind

DRAWS = 600
HUGE = 2**40

LOOP = Loop(
    "fuzz",
    [
        ArraySpec("A", 16, 8, ProtocolKind.NONPRIV),
        ArraySpec("W", 8, 8, ProtocolKind.PRIV, live_out=True),
    ],
    [
        [read("A", i), compute(5), write("A", i), write("W", i % 4),
         read("W", i % 4)]
        for i in range(8)
    ],
)
BASE = MachineParams(
    num_processors=2,
    l1=CacheGeometry(1024, 64),
    l2=CacheGeometry(4096, 64),
    page_bytes=256,
)
#: HW, Serial and Ideal run chunk-numbered; SW runs the processor-wise
#: test, the schedule that divides by ``sw_bitmap_word_elems``.
CHUNK = ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.CHUNK)
PROCESSOR = ScheduleSpec(SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.PROCESSOR)

#: (owner, field) pairs; owner names a ``MachineParams`` field holding a
#: dataclass, ``"machine"`` for ``MachineParams`` itself, or
#: ``"config"`` for ``RunConfig``.
FIELDS = (
    [("cost", f.name) for f in dataclasses.fields(CostModel)]
    + [("contention", f.name) for f in dataclasses.fields(ContentionModel)]
    + [("latency", f.name) for f in dataclasses.fields(LatencyTable)]
    + [
        (cache, f.name)
        for cache in ("l1", "l2")
        for f in dataclasses.fields(CacheGeometry)
    ]
    + [
        ("machine", name)
        for name in (
            "num_processors", "processors_per_node", "page_bytes",
            "write_buffer_entries",
        )
    ]
    + [
        ("config", name)
        for name in ("timestamp_bits", "per_line_bits", "sparse_backup",
                     "sw_read_in")
    ]
    + [("schedule", f.name) for f in dataclasses.fields(ScheduleSpec)]
)


def _values(field):
    if field == "policy":
        return (*SchedulePolicy, "dynamic", None)
    if field == "virtual_mode":
        return (*VirtualMode, "chunk", None)
    # The machine holds state per processor, so its "huge" processor
    # count is one that still builds in well under a second.
    huge = 64 if field == "num_processors" else HUGE
    return (0, -1, -HUGE, True, False, 0.5, 2.0, 1, 3, huge)


def _build(changes):
    """The machine, the Serial/Ideal/HW run config and the SW run config
    of a draw; raises ``ConfigurationError`` on an impossible one.

    A drawn schedule replaces fields of ``CHUNK`` and is run by all four
    scenarios; without one, SW runs ``PROCESSOR``.  SW never reads time
    stamps, so its config leaves ``timestamp_bits`` out."""
    machine = {}
    nested = {}
    config = {}
    schedule = {}
    for (owner, field), value in changes.items():
        if owner == "machine":
            machine[field] = value
        elif owner == "config":
            config[field] = value
        elif owner == "schedule":
            schedule[field] = value
        else:
            nested.setdefault(owner, {})[field] = value
    for owner, fields in nested.items():
        machine[owner] = dataclasses.replace(getattr(BASE, owner), **fields)
    drawn = dataclasses.replace(CHUNK, **schedule)
    sw_config = {k: v for k, v in config.items() if k != "timestamp_bits"}
    return (
        dataclasses.replace(BASE, **machine),
        RunConfig(schedule=drawn, **config),
        RunConfig(schedule=drawn if schedule else PROCESSOR, **sw_config),
    )


def _run(params, config, sw_config):
    run_serial(LOOP, params, config)
    run_ideal(LOOP, params, config)
    run_hw(LOOP, params, config)
    run_sw(LOOP, params, sw_config)


def test_every_config_runs_or_is_rejected_at_construction(seeded_rng):
    outcomes = {"ran": 0, "rejected": 0}
    for draw in range(DRAWS):
        picked = seeded_rng.sample(FIELDS, seeded_rng.randint(1, 3))
        changes = {
            (owner, field): seeded_rng.choice(_values(field))
            for owner, field in picked
        }
        try:
            built = _build(changes)
        except ConfigurationError:
            outcomes["rejected"] += 1
            continue
        try:
            _run(*built)
        except Exception as exc:  # noqa: BLE001 - the assertion under test
            pytest.fail(
                f"draw {draw} {changes!r} built, then raised "
                f"{type(exc).__name__}: {exc}"
            )
        outcomes["ran"] += 1
    assert outcomes["ran"] and outcomes["rejected"], outcomes


@pytest.mark.parametrize(
    "changes",
    [
        # Each once failed deep inside a run or ran silently.
        {("cost", "sw_bitmap_word_elems"): 0},
        {("cost", "sw_mark_read_instrs"): -1},
        {("cost", "barrier_base"): -1},
        {("cost", "backup_per_element"): 2.0},
        {("machine", "num_processors"): 2.0},
        {("l1", "line_bytes"): 64.0},
        {("config", "timestamp_bits"): HUGE},
        # Each once escaped as a ``SchedulingError`` that was no
        # ``ConfigurationError`` (HW's epoch check mid-run, a chunk below
        # 1 when built) or as an ``AttributeError`` mid-run (a
        # schedule field that is not its enum).
        {("config", "timestamp_bits"): 4,
         ("schedule", "policy"): SchedulePolicy.DYNAMIC},
        {("config", "timestamp_bits"): 4,
         ("schedule", "virtual_mode"): VirtualMode.ITERATION},
        {("schedule", "chunk_iterations"): 0},
        {("schedule", "policy"): "dynamic"},
        {("schedule", "virtual_mode"): None},
    ],
)
def test_known_impossible_configs_are_rejected(changes):
    with pytest.raises(ConfigurationError):
        _build(changes)
