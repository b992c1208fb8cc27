"""Machine: params + address space + memory system + engine, assembled."""

from __future__ import annotations

from typing import Optional

from ..address import AddressSpace
from ..core.engine import SpeculationEngine
from ..memsys.system import MemorySystem
from ..params import MachineParams
from .engine import Engine
from .processor import Barrier, Mutex

class Machine:
    """A fully wired simulated CC-NUMA multiprocessor.

    Example:
        >>> from repro.params import default_params
        >>> m = Machine(default_params(4))
        >>> a = m.space.allocate("A", 1024, elem_bytes=8)
        >>> # ... build op streams and run phases on m.engine
    """

    def __init__(
        self,
        params: MachineParams,
        space: Optional[AddressSpace] = None,
        with_speculation: bool = True,
    ) -> None:
        self.params = params
        self.space = space or AddressSpace(
            params.num_nodes, params.page_bytes, params.line_bytes
        )
        self.memsys = MemorySystem(params, self.space)
        self.spec: Optional[SpeculationEngine] = None
        self.engine = Engine(self.memsys, self.space, spec=None)
        #: telemetry bus (repro.obs.EventBus), wired by attach_bus()
        self.bus = None
        if with_speculation:
            self.spec = SpeculationEngine(
                params,
                self.space,
                scheduler=self.engine.message_scheduler,
            )
            self.spec.attach(self.memsys)
            self.spec.ctx.clock = self.engine
            self.engine.spec = self.spec

    # ------------------------------------------------------------------
    def attach_bus(self, bus) -> None:
        """Wire a telemetry bus (``repro.obs.EventBus``) into every
        component that emits events.  Idempotent; pass None to detach."""
        self.bus = bus
        self.memsys.bus = bus
        self.engine.bus = bus
        if self.spec is not None:
            self.spec.ctx.bus = bus
            self.spec.controller.bus = bus

    # ------------------------------------------------------------------
    def release(self) -> None:
        """End of run: drop every back-reference the constructor wired, so
        reference counting frees the engine, memory system and speculation
        state as soon as the caller drops the machine.  Directories,
        protocol tables and per-processor stats stay readable; running
        another phase raises :class:`~repro.errors.ConfigurationError`."""
        self.engine.release()
        if self.spec is not None:
            self.spec.ctx.clock = None
            self.spec.ctx.memsys = None

    # ------------------------------------------------------------------
    def new_barrier(self, participants: Optional[int] = None) -> Barrier:
        n = participants or self.params.num_processors
        cost = self.params.cost
        return Barrier(n, cost.barrier_base, cost.barrier_per_proc)

    def new_mutex(self) -> Mutex:
        return Mutex()

    def flush_caches(self) -> None:
        """Cold-start the memory system (between loop executions, §5.2)."""
        self.memsys.flush_caches()
