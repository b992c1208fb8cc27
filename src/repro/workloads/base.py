"""Workload abstraction: a named generator of loop executions."""

from __future__ import annotations

import dataclasses
import random
from typing import Iterator, List, Optional

from ..runtime.driver import RunConfig
from ..runtime.schedule import SchedulePolicy, ScheduleSpec, VirtualMode
from ..trace.loop import Loop


@dataclasses.dataclass(frozen=True)
class WorkloadCharacteristics:
    """The §5.2 summary row for one workload."""

    name: str
    source_loop: str
    paper_executions: int
    typical_iterations: str
    working_set: str
    element_bytes: str
    algorithm: str
    scheduling: str
    num_processors: int
    notes: str = ""


class Workload:
    """Base class for the paper's loop surrogates.

    Subclasses define the per-execution loop generator and the scenario
    configurations §5.2 prescribes (e.g. the processor-wise software
    test for Ocean and Adm, dynamic scheduling for P3m).

    ``default_executions`` is the scaled-down number of executions
    simulated by default; pass ``count`` to :meth:`executions` for more
    (up to the paper's full count) — results are averaged per
    execution, exactly as the paper reports them.
    """

    name: str = "workload"
    num_processors: int = 16
    default_executions: int = 4
    characteristics: Optional[WorkloadCharacteristics] = None

    def __init__(self, seed: int = 2026, scale: float = 1.0) -> None:
        self.seed = seed
        #: scales per-execution iteration counts (for quick benches)
        self.scale = scale

    # ------------------------------------------------------------------
    def executions(self, count: Optional[int] = None) -> Iterator[Loop]:
        """Yield ``count`` independent loop executions."""
        n = self.default_executions if count is None else count
        for i in range(n):
            yield self.execution(i)

    def execution(self, index: int) -> Loop:
        """Execution ``index`` alone: each has its own RNG, so it equals
        the ``index``-th loop :meth:`executions` yields."""
        return self.build_execution(
            index, random.Random(self.seed * 1_000_003 + index)
        )

    def build_execution(self, index: int, rng: random.Random) -> Loop:
        raise NotImplementedError

    def _scaled(self, iterations: int, minimum: int = 4) -> int:
        return max(minimum, int(iterations * self.scale))

    # ------------------------------------------------------------------
    # Scenario configurations (§5.2 choices); override as needed.
    # ------------------------------------------------------------------
    def hw_config(self) -> RunConfig:
        return RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 4, VirtualMode.CHUNK)
        )

    def sw_config(self) -> RunConfig:
        return RunConfig(
            schedule=ScheduleSpec(
                SchedulePolicy.STATIC_CHUNK, 1, VirtualMode.PROCESSOR
            )
        )

    def ideal_config(self) -> RunConfig:
        return RunConfig(
            schedule=ScheduleSpec(SchedulePolicy.DYNAMIC, 4, VirtualMode.CHUNK)
        )
