"""Generic parameter sweeps over the scenario drivers.

The ablation benches each hand-roll a loop over one knob; this module
provides the general tool: sweep any machine parameter, cost-model
field, or run-config knob across a set of values and collect one
:class:`SweepPoint` per value.  Used programmatically and by the
``sweep`` CLI verb.

Sweep points are independent deterministic simulations, so both sweep
functions accept ``jobs`` and fan the runs out through
:mod:`repro.experiments.pool`; results are assembled in value order and
are bit-identical to a ``jobs=1`` run.  The serial reference runs are
memoized by their *effective* serial parameters — sweeping a field the
serial scenario cannot see (e.g. ``num_processors``) runs the baseline
exactly once instead of once per point.

Example::

    from repro.experiments.sweeps import sweep_machine
    points = sweep_machine(
        loop, "contention.directory_occupancy", [0, 8, 16, 32],
        scenario=Scenario.IDEAL, jobs=4,
    )
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs.bus import EventBus
from ..obs.provenance import fingerprint
from ..params import MachineParams, default_params
from ..runtime.driver import (
    RunConfig,
    RunResult,
    _serial_params,
    run_hw,
    run_ideal,
    run_serial,
    run_sw,
)
from ..trace.loop import Loop
from ..types import Scenario
from .pool import PoolTask, run_tasks

RUNNERS: Dict[Scenario, Callable[..., RunResult]] = {
    Scenario.SERIAL: lambda loop, params, config: run_serial(loop, params, config),
    Scenario.IDEAL: run_ideal,
    Scenario.SW: run_sw,
    Scenario.HW: run_hw,
}


@dataclasses.dataclass
class SweepPoint:
    """One sweep sample."""

    value: Any
    result: RunResult
    serial_wall: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        if self.serial_wall is None:
            return None
        return self.serial_wall / self.result.wall


def _replace_path(obj: Any, path: str, value: Any) -> Any:
    """dataclasses.replace along a dotted field path (frozen-safe)."""
    head, _, rest = path.partition(".")
    if not dataclasses.is_dataclass(obj) or head not in {
        f.name for f in dataclasses.fields(obj)
    }:
        raise AttributeError(f"{type(obj).__name__} has no field {head!r}")
    current = getattr(obj, head)
    if rest:
        inner = _replace_path(current, rest, value)
        return dataclasses.replace(obj, **{head: inner})
    if dataclasses.is_dataclass(current) and not isinstance(value, type(current)):
        # MachineParams checks no nested model's type; a run would fail
        # deep inside the simulator instead.
        raise TypeError(f"{head} takes a {type(current).__name__}, not "
                        f"{type(value).__name__}; sweep one of its fields")
    return dataclasses.replace(obj, **{head: value})


def _run_point(
    scenario: Scenario,
    loop: Loop,
    params: MachineParams,
    config: Optional[RunConfig],
) -> RunResult:
    """One sweep sample; module-level so pool workers can pickle it."""
    return RUNNERS[scenario](loop, params, config)


def _serial_key(params: MachineParams) -> str:
    """Identity of the serial baseline a point run compares against.

    ``run_serial`` collapses the machine to one processor, so two
    points whose params differ only in fields that collapse away (e.g.
    ``num_processors``) share one baseline; no config knob reaches the
    serial scenario's timing.
    """
    return fingerprint({"params": _serial_params(params)})


def sweep_machine(
    loop: Loop,
    field_path: str,
    values: Sequence[Any],
    scenario: Scenario = Scenario.HW,
    base_params: Optional[MachineParams] = None,
    config: Optional[RunConfig] = None,
    relative_to_serial: bool = True,
    jobs: int = 1,
    timeout: Optional[float] = None,
    bus: Optional[EventBus] = None,
) -> List[SweepPoint]:
    """Sweep a (possibly nested) MachineParams field.

    ``field_path`` is dotted, e.g. ``"contention.directory_occupancy"``
    or ``"num_processors"``.  When ``relative_to_serial`` is set, each
    point also gets a Serial reference run at the same parameters (and
    the same config), memoized across points with identical effective
    serial parameters, so ``point.speedup`` is meaningful.  ``jobs``
    fans the runs out across processes (see module docstring).
    """
    base = base_params or default_params()
    config = config or RunConfig()
    point_params = [_replace_path(base, field_path, value) for value in values]

    need_serial = relative_to_serial and scenario is not Scenario.SERIAL
    serial_keys: List[str] = []
    serial_reps: Dict[str, MachineParams] = {}
    if need_serial:
        for params in point_params:
            key = _serial_key(params)
            serial_keys.append(key)
            serial_reps.setdefault(key, params)

    tasks = [
        PoolTask(_run_point, (scenario, loop, params, config),
                 label=f"{field_path}={value}")
        for value, params in zip(values, point_params)
    ]
    serial_order = list(serial_reps)
    tasks.extend(
        PoolTask(_run_point, (Scenario.SERIAL, loop, serial_reps[key], config),
                 label=f"serial:{key[:12]}")
        for key in serial_order
    )
    outputs = run_tasks(tasks, jobs=jobs, timeout=timeout, bus=bus)

    serial_walls = {
        key: outputs[len(values) + j].wall for j, key in enumerate(serial_order)
    }
    return [
        SweepPoint(
            value=value,
            result=outputs[i],
            serial_wall=serial_walls[serial_keys[i]] if need_serial else None,
        )
        for i, value in enumerate(values)
    ]


def sweep_config(
    loop: Loop,
    make_config: Callable[[Any], RunConfig],
    values: Sequence[Any],
    scenario: Scenario = Scenario.HW,
    params: Optional[MachineParams] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    bus: Optional[EventBus] = None,
) -> List[SweepPoint]:
    """Sweep a RunConfig-valued knob (scheduling, chunk size, flags).

    ``make_config`` is called once per value *in the calling process*;
    the resulting configs travel to the workers as plain data.
    """
    params = params or default_params()
    tasks = [
        PoolTask(_run_point, (scenario, loop, params, make_config(value)),
                 label=f"config={value}")
        for value in values
    ]
    tasks.append(
        PoolTask(_run_point, (Scenario.SERIAL, loop, params, None),
                 label="serial")
    )
    outputs = run_tasks(tasks, jobs=jobs, timeout=timeout, bus=bus)
    serial_wall = outputs[-1].wall
    return [
        SweepPoint(value=value, result=outputs[i], serial_wall=serial_wall)
        for i, value in enumerate(values)
    ]


def format_sweep(points: Sequence[SweepPoint], label: str = "value") -> str:
    lines = [
        f"{label:>16} {'wall':>12} {'speedup':>8} {'passed':>7}",
        "-" * 48,
    ]
    for p in points:
        speedup = f"{p.speedup:.2f}" if p.speedup is not None else "-"
        lines.append(
            f"{str(p.value):>16} {p.result.wall:>12,.0f} {speedup:>8} "
            f"{str(p.result.passed):>7}"
        )
    return "\n".join(lines)
