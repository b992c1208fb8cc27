"""SpeculationEngine: plugs the protocols into the memory system.

One engine is built per speculative loop attempt.  The runtime
registers every array under test (creating the translation-table
entries and the directory-side access-bit tables), attaches the engine
to the :class:`~repro.memsys.MemorySystem`, and arms it.  From then on
every cache hit, directory transaction and writeback of a line holding
elements under test is routed to the right protocol.

The engine also owns the *address resolution* step of §4.1: the
address-range comparator decides, per access, which protocol applies
and — for privatized arrays — which physical copy (private or shared)
the access targets.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..address import AddressSpace, ArrayDecl
from ..errors import ConfigurationError
from ..params import MachineParams
from ..types import AccessKind, ProtocolKind
from .context import ProtocolContext, SpecStats
from .controller import SpeculationController
from .messages import ImmediateScheduler, Scheduler
from .nonpriv import NonPrivProtocol
from .privatization import PrivProtocol, PrivSimpleProtocol
from .translation import RangeEntry, TranslationTable

try:  # only needed for isinstance checks in hooks
    from ..memsys.system import MemorySystem, SpeculationHooks
except ImportError:  # pragma: no cover - circular import guard
    MemorySystem = None  # type: ignore
    SpeculationHooks = object  # type: ignore


#: Sentinel distinguishing "memo has no entry" from a memoized None.
_UNSET = object()


class SpeculationEngine(SpeculationHooks):
    """Per-loop-attempt speculation state and protocol dispatch."""

    def __init__(
        self,
        params: MachineParams,
        space: AddressSpace,
        scheduler: Optional[Scheduler] = None,
        controller: Optional[SpeculationController] = None,
    ) -> None:
        self.params = params
        self.space = space
        self.controller = controller or SpeculationController()
        self.scheduler = scheduler or ImmediateScheduler()
        self.ctx = ProtocolContext(self.controller, self.scheduler, params, space)
        self.table = TranslationTable()
        self._line_bytes = params.line_bytes
        self.nonpriv = NonPrivProtocol(self.ctx)
        self.priv = PrivProtocol(self.ctx)
        self.priv_simple = PrivSimpleProtocol(self.ctx)
        self._iteration: List[int] = [1] * params.num_processors
        self._protocol_of: Dict[str, ProtocolKind] = {}
        self._shared_decl: Dict[str, ArrayDecl] = {}
        self._priv_copies: Dict[str, List[ArrayDecl]] = {}
        #: synchronous written-element knowledge per (array, proc) for
        #: PRIV_SIMPLE read routing: the hardware's local WriteAny view
        #: is available at access time, while the directory tables are
        #: updated by (deferred) messages.
        self._sync_written: Dict[Tuple[str, int], Set[int]] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    @property
    def stats(self) -> SpecStats:
        return self.ctx.stats

    def attach(self, memsys: "MemorySystem") -> None:
        self.ctx.memsys = memsys
        memsys.set_hooks(self)

    def register_nonpriv(self, decl: ArrayDecl, per_line_bits: bool = False) -> None:
        """Register an array under the non-privatization test.

        ``per_line_bits`` keeps one set of access bits per cache *line*
        instead of per element — the space optimization §4.1 calls
        "unrealistic" because false sharing then fails the test
        spuriously.  Provided so the trade-off can be measured.
        """
        self._check_not_armed()
        bits_decl = decl
        if per_line_bits:
            # The comparator maps a whole line to one access-bit
            # "element", so the tags, the directory table and the
            # protocol messages are all line-granular.
            epl = self.params.elems_per_line(decl.elem_bytes)
            bits_decl = dataclasses.replace(
                decl,
                length=-(-decl.length // epl),
                elem_bytes=epl * decl.elem_bytes,
            )
        entry = RangeEntry(bits_decl, ProtocolKind.NONPRIV)
        self.table.load(entry)
        self.nonpriv.register(entry)
        self._protocol_of[decl.name] = ProtocolKind.NONPRIV
        self._shared_decl[decl.name] = decl

    def register_priv(
        self,
        shared_decl: ArrayDecl,
        private_decls: Sequence[ArrayDecl],
        simple: bool = False,
    ) -> None:
        self._check_not_armed()
        if len(private_decls) != self.params.num_processors:
            raise ConfigurationError(
                "need exactly one private copy per processor "
                f"({len(private_decls)} given, {self.params.num_processors} procs)"
            )
        kind = ProtocolKind.PRIV_SIMPLE if simple else ProtocolKind.PRIV
        self.table.load(RangeEntry(shared_decl, kind))
        for proc, decl in enumerate(private_decls):
            if decl.length != shared_decl.length:
                raise ConfigurationError(
                    f"private copy {decl.name!r} length differs from shared"
                )
            self.table.load(
                RangeEntry(decl, kind, owner_proc=proc, shared_name=shared_decl.name)
            )
        protocol = self.priv_simple if simple else self.priv
        protocol.register(shared_decl, self.params.num_processors)
        self._protocol_of[shared_decl.name] = kind
        self._shared_decl[shared_decl.name] = shared_decl
        self._priv_copies[shared_decl.name] = list(private_decls)

    def _check_not_armed(self) -> None:
        if self.controller.armed:
            raise ConfigurationError(
                "cannot register arrays while speculation is armed — the "
                "§4.1 comparator is loaded by a system call before the "
                "loop starts (disarm first)"
            )

    def arm(self) -> None:
        """Clear all access-bit state and start speculating (the §4.1
        loop-entry system calls: load comparator, reset cache tags,
        clear directory tables)."""
        self.nonpriv.clear()
        self.priv.clear()
        self.priv_simple.clear()
        self.clear_cache_tags()
        self._iteration = [1] * self.params.num_processors
        self._sync_written.clear()
        self.controller.arm()
        self._emit_arm(True)

    def disarm(self) -> None:
        self.controller.disarm()
        self._emit_arm(False)

    def _emit_arm(self, armed: bool) -> None:
        bus = self.ctx.bus
        if bus is not None and bus.active:
            from ..obs.events import SpeculationArmEvent

            bus.emit(SpeculationArmEvent(self.ctx.now(), armed))

    def epoch_sync(self) -> None:
        """Time-stamp overflow synchronization (§3.3): reset the
        privatization protocol's effective iteration numbering.  The
        non-privatization and simple-privatization protocols keep no
        time stamps and are unaffected."""
        self.priv.epoch_sync()
        self.clear_cache_tags()

    def clear_cache_tags(self) -> None:
        """The 'general reset signal' for the cache access-bit arrays."""
        if self.ctx.memsys is None:
            return
        for hierarchy in self.ctx.memsys.caches:
            for line in hierarchy.l2.resident_lines():
                line.spec_bits = None
            for line in hierarchy.l1.resident_lines():
                line.spec_bits = None

    # ------------------------------------------------------------------
    # Iteration tracking (virtual iteration numbers; §3.3, §4.1)
    # ------------------------------------------------------------------
    def set_iteration(self, proc: int, iteration: int) -> None:
        self._iteration[proc] = iteration

    def iteration_of(self, proc: int) -> int:
        return self._iteration[proc]

    # ------------------------------------------------------------------
    # Address resolution (the §4.1 address-range comparator)
    # ------------------------------------------------------------------
    def resolve(self, proc: int, name: str, index: int, kind: AccessKind) -> int:
        """Physical address a processor's access to ``name[index]`` targets."""
        protocol = self._protocol_of.get(name)
        if protocol is None or protocol is ProtocolKind.NONPRIV:
            return self._shared_or_plain(name, index)
        if protocol is ProtocolKind.PRIV:
            return self._priv_copies[name][proc].addr_of(index)
        # PRIV_SIMPLE: without read-in hardware, reads of elements this
        # processor never wrote are served from the shared copy.
        written = self._sync_written.setdefault((name, proc), set())
        if kind is AccessKind.WRITE:
            written.add(index)
            return self._priv_copies[name][proc].addr_of(index)
        if index in written or self.priv_simple.written_by(name, proc, index):
            return self._priv_copies[name][proc].addr_of(index)
        return self._shared_decl[name].addr_of(index)

    def _shared_or_plain(self, name: str, index: int) -> int:
        decl = self._shared_decl.get(name)
        if decl is None:
            # Cache plain arrays alongside the registered ones: decls
            # are immutable and resolve() is on the per-access hot path.
            decl = self.space.array(name)
            self._shared_decl[name] = decl
        return decl.addr_of(index)

    # ------------------------------------------------------------------
    # SpeculationHooks implementation (called by the memory system)
    # ------------------------------------------------------------------
    def on_cache_hit(self, proc, line, addr, kind, now):
        if not self.controller.armed:
            return
        # Inline probe of the translation memo (repeated below in the
        # other hooks): these four dispatchers sit on the per-access hot
        # path, so the common warm-cache case must stay a dict get.
        found = self.table._lookup_cache.get(addr, _UNSET)
        if found is _UNSET:
            found = self.table.lookup(addr)
        if found is None:
            return
        entry, index = found
        if entry.protocol is ProtocolKind.NONPRIV:
            self.nonpriv.on_cache_hit(proc, line, entry, index, kind, now)
        elif entry.protocol is ProtocolKind.PRIV:
            self.priv.on_cache_hit(
                proc, line, entry, index, addr - line.line_addr, kind,
                self._iteration[proc], now,
            )
        else:
            self.priv_simple.on_cache_hit(
                proc, line, entry, index, addr - line.line_addr, kind,
                self._iteration[proc], now,
            )

    def on_dir_access(self, proc, line_addr, addr, kind, now):
        if not self.controller.armed:
            return 0
        found = self.table._lookup_cache.get(addr, _UNSET)
        if found is _UNSET:
            found = self.table.lookup(addr)
        if found is None:
            return 0
        entry, index = found
        if entry.protocol is ProtocolKind.NONPRIV:
            return self.nonpriv.on_dir_access(proc, entry, index, kind, now)
        line_first, line_count = self._line_span(entry, line_addr)
        if entry.protocol is ProtocolKind.PRIV:
            return self.priv.on_dir_access(
                proc, entry, index, kind, self._iteration[proc],
                line_first, line_count, now,
            )
        return self.priv_simple.on_dir_access(
            proc, entry, index, kind, self._iteration[proc],
            line_first, line_count, now,
        )

    def fill_line_bits(self, proc, line, now):
        if not self.controller.armed:
            return
        found = self.table._line_cache.get(line.line_addr, _UNSET)
        if found is _UNSET:
            found = self.table.lookup_line(line.line_addr, self._line_bytes)
        if found is None:
            return
        entry, first, count = found
        if entry.protocol is ProtocolKind.NONPRIV:
            self.nonpriv.fill_line(proc, line, entry, first, count)
        elif entry.protocol is ProtocolKind.PRIV:
            self.priv.fill_line(
                proc, line, entry, first, count, self._iteration[proc]
            )
        else:
            self.priv_simple.fill_line(
                proc, line, entry, first, count, self._iteration[proc]
            )

    def on_writeback(self, proc, line, now):
        if not self.controller.armed:
            return
        found = self.table._line_cache.get(line.line_addr, _UNSET)
        if found is _UNSET:
            found = self.table.lookup_line(line.line_addr, self._line_bytes)
        if found is None:
            return
        entry, first, count = found
        if entry.protocol is not ProtocolKind.NONPRIV:
            # Privatization state is authoritative in the directories;
            # tag bits are a per-iteration summary and need no merge.
            return
        self.nonpriv.merge_line(proc, line, entry, first, count, now)

    def commit(self, now: float) -> None:
        """Loop-end commit: merge the access-bit state of every dirty
        cached line into its home directory (Fig 6-(e) applied at the
        final barrier).

        During the loop, a tag update on a dirty line is legal without
        telling the home ("no need to tell the directory" in 6-(c)) —
        the information reaches the directory when the line is written
        back.  A line still dirty when the loop ends therefore holds
        access state the home never saw, and the final pass/FAIL verdict
        must not be issued before that state is merged: it can reveal a
        dependence (e.g. a write to an element another processor
        read first while its First_update was still in flight).

        Idempotent; the lines stay cached.  Call after the in-flight
        protocol messages have drained.
        """
        if not self.controller.armed or self.controller.failed:
            return
        memsys = self.ctx.memsys
        if memsys is None:
            return
        for proc, hierarchy in enumerate(memsys.caches):
            # The same line object lives in both levels; the L2 is
            # inclusive, so walking it covers everything.
            for line in hierarchy.l2.resident_lines():
                if line.dirty:
                    self.on_writeback(proc, line, now)
                    if self.controller.failed:
                        return

    # ------------------------------------------------------------------
    def _line_span(self, entry: RangeEntry, line_addr: int) -> Tuple[int, int]:
        decl = entry.decl
        first = max(0, (line_addr - decl.base) // decl.elem_bytes)
        span = self.params.elems_per_line(decl.elem_bytes)
        count = max(0, min(span, decl.length - first))
        return first, count

    # ------------------------------------------------------------------
    def copy_out_elements(self, name: str) -> int:
        """Elements needing copy-out for a privatized, live-out array."""
        if self._protocol_of.get(name) is ProtocolKind.PRIV:
            return self.priv.copy_out_elements(name)
        return 0
