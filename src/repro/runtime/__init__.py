"""Speculative-parallelization runtime.

This layer turns a :class:`~repro.trace.Loop` into simulated execution:
iteration scheduling (§2.2.3/§4.1), state saving and restoring
(§2.2.1), the instrumented software execution (marking/merging/
analysis), the hardware speculative execution, copy-out, and the
failure path (abort, restore, serial re-execution).
"""

from .schedule import (
    ChunkQueue,
    SchedulePolicy,
    ScheduleSpec,
    VirtualMode,
    static_chunks,
)
from .driver import (
    RunConfig,
    RunResult,
    run_hw,
    run_ideal,
    run_serial,
    run_sw,
)

__all__ = [
    "ChunkQueue",
    "RunConfig",
    "RunResult",
    "SchedulePolicy",
    "ScheduleSpec",
    "VirtualMode",
    "run_hw",
    "run_ideal",
    "run_serial",
    "run_sw",
    "static_chunks",
]
