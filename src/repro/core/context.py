"""Shared context threaded through the protocol implementations."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Optional

from ..address import AddressSpace
from ..obs.events import ProtocolMessageEvent
from ..params import MachineParams
from .controller import SpeculationController
from .messages import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..memsys.system import MemorySystem


@dataclasses.dataclass
class SpecStats:
    """Message/transaction counters for the speculative extensions."""

    first_updates: int = 0
    ronly_updates: int = 0
    first_update_fails: int = 0
    read_first_signals: int = 0
    first_write_signals: int = 0
    read_ins: int = 0
    shared_signals: int = 0
    tag_checks: int = 0
    dir_checks: int = 0

    @property
    def messages(self) -> int:
        return (
            self.first_updates
            + self.ronly_updates
            + self.first_update_fails
            + self.read_first_signals
            + self.first_write_signals
            + self.read_ins
            + self.shared_signals
        )


class ProtocolContext:
    """Everything a protocol needs: controller, clock, network, machine."""

    def __init__(
        self,
        controller: SpeculationController,
        scheduler: Scheduler,
        params: MachineParams,
        space: AddressSpace,
    ) -> None:
        self.controller = controller
        self.scheduler = scheduler
        self.params = params
        self.space = space
        self.stats = SpecStats()
        self.memsys: "Optional[MemorySystem]" = None
        #: telemetry bus (repro.obs.EventBus); None keeps emission free
        self.bus = None
        #: the sim engine, when attached to one — used as the clock for
        #: events emitted outside a timed transaction (arm/disarm)
        self.clock = None

    # ------------------------------------------------------------------
    def local_msg_delay(self) -> int:
        """Cache-to-local-directory message latency (no network hop)."""
        return max(1, self.params.latency.local_mem // 4)

    def dir_to_dir_delay(self, src_node: int, dst_node: int) -> int:
        if src_node == dst_node:
            return self.local_msg_delay()
        return self.params.latency.network_one_way

    def now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def log_message(
        self,
        time: float,
        label: str,
        proc: int,
        array: str,
        index: int,
        iteration: Optional[int] = None,
    ) -> None:
        bus = self.bus
        if bus is not None and bus.active:
            bus.emit(
                ProtocolMessageEvent(time, label, proc, array, index, iteration)
            )

    def spec_bus(self):
        """The bus, when some subscriber wants per-update speculation
        directory events (``NonPrivDirUpdateEvent`` and friends) — else
        None, so protocol hot paths skip the state snapshots entirely."""
        bus = self.bus
        if bus is not None and bus.wants_spec:
            return bus
        return None

    def send_to_directory(
        self,
        elem_addr: int,
        from_node: int,
        issue_time: float,
        handler: Callable[[float], None],
    ) -> None:
        """Deliver a protocol message to the home directory of
        ``elem_addr``: network delay, then directory occupancy, then the
        handler runs at the serialized processing time."""
        home = self.space.home_node(elem_addr)
        delay = self.dir_to_dir_delay(from_node, home)

        def deliver(t: float) -> None:
            if self.controller.failed:
                return  # execution already aborted; drop in-flight traffic
            queue = 0
            if self.memsys is not None:
                contention = self.params.contention
                hold = int(
                    contention.directory_occupancy
                    * contention.spec_occupancy_factor
                )
                queue = self.memsys.directories[home].occupy(t, hold)
            handler(t + queue)

        self.scheduler.post(issue_time + delay, deliver)

    def send_to_cache(
        self,
        proc: int,
        from_node: int,
        issue_time: float,
        handler: Callable[[float], None],
    ) -> None:
        """Deliver a directory-to-cache message (e.g. First_update_fail)."""
        dst_node = self.params.node_of_processor(proc)
        delay = self.dir_to_dir_delay(from_node, dst_node)

        def deliver(t: float) -> None:
            if self.controller.failed:
                return
            handler(t)

        self.scheduler.post(issue_time + delay, deliver)
