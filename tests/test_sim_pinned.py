"""Pinned simulation results: same events, same cycles.

Host-time work on the engine or the memory system must leave every
simulated quantity unchanged.  These tests run the quick Fig 13
forced-failure loops (Serial, SW and HW for each workload) plus four
passing runs (a dynamic-schedule HW run, a processor-wise SW run, an
Ideal run with privatized arrays and an HW run split into time-stamp
epochs), and compare each run's engine event count, every ``MemStats`` field, the speculation message count, the
wall time and the per-phase cycles against exact recorded values.
"""

import dataclasses

import pytest

from repro.experiments.figures import _forced_failure_loop, make_workload
from repro.memsys.system import MemStats
from repro.params import default_params
from repro.runtime import (
    RunConfig,
    SchedulePolicy,
    VirtualMode,
    run_hw,
    run_ideal,
    run_serial,
    run_sw,
)

SEED = 2026


@dataclasses.dataclass(frozen=True)
class Pin:
    events: int
    mem: MemStats
    spec_messages: int
    wall: float
    phases: dict


def _run(driver, loop, params, config, **kwargs):
    """Run one driver; return its result and the run's :class:`Pin`."""
    machines = []
    config = dataclasses.replace(config, machine_hook=machines.append)
    result = driver(loop, params, config, **kwargs)
    (machine,) = machines
    return result, Pin(
        events=machine.engine.events_processed,
        mem=dataclasses.replace(result.mem),
        spec_messages=result.spec_messages,
        wall=result.wall,
        phases=dict(result.phases),
    )


def _fig13_pins(name):
    workload = make_workload(name, "quick", SEED)
    loop, hw_cfg, sw_cfg = _forced_failure_loop(name, "quick", SEED)
    params = default_params(workload.num_processors)
    serial, serial_pin = _run(run_serial, loop, params, RunConfig())
    return {
        "serial": serial_pin,
        "sw": _run(run_sw, loop, params, sw_cfg, serial_result=serial)[1],
        "hw": _run(run_hw, loop, params, hw_cfg, serial_result=serial)[1],
    }


PINNED_FIG13 = {
    "Ocean": {
        "serial": Pin(
            events=6690,
            mem=MemStats(
                reads=2561, writes=2048, l1_hits=4049, l2_hits=32, local_misses=528,
                remote_2hop=0, remote_3hop=0, invalidations=0, writebacks=0,
                write_stall_cycles=0, read_stall_cycles=46176,
            ),
            spec_messages=0,
            wall=104161.0,
            phases={"loop": 104161.0},
        ),
        "sw": Pin(
            events=26893,
            mem=MemStats(
                reads=9218, writes=10946, l1_hits=15602, l2_hits=338, local_misses=1576,
                remote_2hop=1304, remote_3hop=1344, invalidations=0, writebacks=1344,
                write_stall_cycles=0, read_stall_cycles=571578,
            ),
            spec_messages=0,
            wall=196366.0,
            phases={
                "setup": 20423.0,
                "loop": 20664.0,
                "merge-analysis": 50126.0,
                "restore": 992.0,
                "serial-reexec": 104161.0,
            },
        ),
        "hw": Pin(
            events=3119,
            mem=MemStats(
                reads=1035, writes=1025, l1_hits=1024, l2_hits=2, local_misses=3,
                remote_2hop=1031, remote_3hop=0, invalidations=8, writebacks=0,
                write_stall_cycles=1403, read_stall_cycles=107699,
            ),
            spec_messages=2,
            wall=119995.0,
            phases={
                "backup": 14087.0,
                "loop": 804.0,
                "restore": 943.0,
                "serial-reexec": 104161.0,
            },
        ),
    },
    "P3m": {
        "serial": Pin(
            events=8508,
            mem=MemStats(
                reads=3655, writes=2394, l1_hits=5018, l2_hits=34, local_misses=997,
                remote_2hop=0, remote_3hop=0, invalidations=0, writebacks=0,
                write_stall_cycles=0, read_stall_cycles=58712,
            ),
            spec_messages=0,
            wall=133439.0,
            phases={"loop": 133439.0},
        ),
        "sw": Pin(
            events=21571,
            mem=MemStats(
                reads=10043, writes=5716, l1_hits=8379, l2_hits=790, local_misses=915,
                remote_2hop=2757, remote_3hop=2918, invalidations=1753, writebacks=2922,
                write_stall_cycles=0, read_stall_cycles=1389422,
            ),
            spec_messages=0,
            wall=252098.0,
            phases={
                "setup": 2361.0,
                "loop": 92610.0,
                "merge-analysis": 23258.0,
                "restore": 430.0,
                "serial-reexec": 133439.0,
            },
        ),
        "hw": Pin(
            events=291,
            mem=MemStats(
                reads=92, writes=67, l1_hits=65, l2_hits=0, local_misses=4,
                remote_2hop=88, remote_3hop=2, invalidations=0, writebacks=2,
                write_stall_cycles=0, read_stall_cycles=13224,
            ),
            spec_messages=0,
            wall=135616.0,
            phases={
                "backup": 777.0,
                "loop": 1108.0,
                "restore": 292.0,
                "serial-reexec": 133439.0,
            },
        ),
    },
    "Adm": {
        "serial": Pin(
            events=7201,
            mem=MemStats(
                reads=3072, writes=2048, l1_hits=4860, l2_hits=0, local_misses=260,
                remote_2hop=0, remote_3hop=0, invalidations=0, writebacks=0,
                write_stall_cycles=0, read_stall_cycles=17212,
            ),
            spec_messages=0,
            wall=65468.0,
            phases={"loop": 65468.0},
        ),
        "sw": Pin(
            events=25680,
            mem=MemStats(
                reads=9856, writes=8976, l1_hits=11817, l2_hits=388, local_misses=2365,
                remote_2hop=1107, remote_3hop=3155, invalidations=800, writebacks=3155,
                write_stall_cycles=0, read_stall_cycles=1790137,
            ),
            spec_messages=0,
            wall=192471.0,
            phases={
                "setup": 7755.0,
                "loop": 78424.0,
                "merge-analysis": 39913.0,
                "restore": 911.0,
                "serial-reexec": 65468.0,
            },
        ),
        "hw": Pin(
            events=1202,
            mem=MemStats(
                reads=384, writes=386, l1_hits=384, l2_hits=0, local_misses=24,
                remote_2hop=360, remote_3hop=2, invalidations=0, writebacks=2,
                write_stall_cycles=1866, read_stall_cycles=39251,
            ),
            spec_messages=0,
            wall=69683.0,
            phases={
                "backup": 3003.0,
                "loop": 435.0,
                "restore": 777.0,
                "serial-reexec": 65468.0,
            },
        ),
    },
    "Track": {
        "serial": Pin(
            events=2257,
            mem=MemStats(
                reads=1024, writes=180, l1_hits=635, l2_hits=11, local_misses=558,
                remote_2hop=0, remote_3hop=0, invalidations=0, writebacks=0,
                write_stall_cycles=0, read_stall_cycles=33467,
            ),
            spec_messages=0,
            wall=71633.0,
            phases={"loop": 71633.0},
        ),
        "sw": Pin(
            events=24413,
            mem=MemStats(
                reads=8296, writes=7974, l1_hits=1287, l2_hits=838, local_misses=6435,
                remote_2hop=1936, remote_3hop=5774, invalidations=112, writebacks=6347,
                write_stall_cycles=1917, read_stall_cycles=1929212,
            ),
            spec_messages=0,
            wall=215284.0,
            phases={
                "setup": 18535.0,
                "loop": 15198.0,
                "merge-analysis": 107259.0,
                "restore": 2659.0,
                "serial-reexec": 71633.0,
            },
        ),
        "hw": Pin(
            events=2614,
            mem=MemStats(
                reads=890, writes=782, l1_hits=499, l2_hits=275, local_misses=57,
                remote_2hop=829, remote_3hop=12, invalidations=17, writebacks=12,
                write_stall_cycles=2426, read_stall_cycles=102886,
            ),
            spec_messages=0,
            wall=81195.0,
            phases={
                "backup": 5863.0,
                "loop": 2351.0,
                "restore": 1348.0,
                "serial-reexec": 71633.0,
            },
        ),
    },
}

PINNED_DYNAMIC_HW = Pin(
    events=12059,
    mem=MemStats(
        reads=3655, writes=2394, l1_hits=224, l2_hits=4683, local_misses=196,
        remote_2hop=946, remote_3hop=0, invalidations=0, writebacks=0,
        write_stall_cycles=0, read_stall_cycles=230512,
    ),
    spec_messages=3440,
    wall=32023.0,
    phases={"loop": 32023.0},
)


@pytest.mark.parametrize("name", ["Ocean", "P3m", "Adm", "Track"])
def test_fig13_quick_runs_are_pinned(name):
    assert _fig13_pins(name) == PINNED_FIG13[name]


def test_dynamic_schedule_hw_run_is_pinned():
    workload = make_workload("P3m", "quick", SEED)
    config = workload.hw_config()
    assert config.schedule.policy is SchedulePolicy.DYNAMIC
    loop = next(workload.executions(1))
    params = default_params(workload.num_processors)
    assert _run(run_hw, loop, params, config)[1] == PINNED_DYNAMIC_HW


#: Adm's first execution under Fig 11's SW config: the processor-wise
#: test (bitmap shadows) with the privatized TMP array redirected.
PINNED_PROCESSOR_WISE_SW = Pin(
    events=18832,
    mem=MemStats(
        reads=8448, writes=5976, l1_hits=12496, l2_hits=120, local_misses=236,
        remote_2hop=1365, remote_3hop=207, invalidations=0, writebacks=207,
        write_stall_cycles=0, read_stall_cycles=313553,
    ),
    spec_messages=0,
    wall=30756.0,
    phases={"setup": 2128.0, "loop": 8458.0, "merge-analysis": 20170.0},
)

#: P3m's second execution under its Ideal config: the XI and FI
#: scratch arrays go to per-processor private copies.
PINNED_PRIVATIZED_IDEAL = Pin(
    events=8603,
    mem=MemStats(
        reads=3655, writes=2394, l1_hits=224, l2_hits=4683, local_misses=196,
        remote_2hop=946, remote_3hop=0, invalidations=0, writebacks=0,
        write_stall_cycles=0, read_stall_cycles=230153,
    ),
    spec_messages=0,
    wall=31524.0,
    phases={"loop": 31524.0},
)

#: Adm's first execution under HW with 2-bit time stamps: 16 chunks in
#: six epochs, each closed by a barrier and a time-stamp reset (§3.3).
PINNED_EPOCH_HW = Pin(
    events=9041,
    mem=MemStats(
        reads=3200, writes=2176, l1_hits=4864, l2_hits=0, local_misses=92,
        remote_2hop=420, remote_3hop=0, invalidations=0, writebacks=0,
        write_stall_cycles=0, read_stall_cycles=78712,
    ),
    spec_messages=1280,
    wall=42597.0,
    phases={"backup": 2047.0, "loop": 40550.0},
)


def _first_execution(name):
    workload = make_workload(name, "quick", SEED)
    return workload, next(workload.executions(1)), default_params(workload.num_processors)


def test_processor_wise_sw_run_is_pinned():
    workload, loop, params = _first_execution("Adm")
    config = workload.sw_config()
    assert config.schedule.virtual_mode is VirtualMode.PROCESSOR
    assert any(spec.privatized for spec in loop.arrays_under_test())
    result, pin = _run(run_sw, loop, params, config)
    assert result.passed
    assert pin == PINNED_PROCESSOR_WISE_SW


def test_privatized_ideal_run_is_pinned():
    workload, loop, params = _first_execution("P3m")
    assert any(spec.privatized for spec in loop.arrays)
    result, pin = _run(run_ideal, loop, params, workload.ideal_config())
    assert pin == PINNED_PRIVATIZED_IDEAL


def test_epoch_hw_run_is_pinned():
    workload, loop, params = _first_execution("Adm")
    config = dataclasses.replace(workload.hw_config(), timestamp_bits=2)
    result, pin = _run(run_hw, loop, params, config)
    assert result.passed
    assert pin == PINNED_EPOCH_HW
