"""The privatization algorithms (paper §3.3, Figures 8 and 9, plus the
reduced-state variant of §4.1 / Figure 5-(b)).

Under privatization, each processor works on a private copy of the
array under test.  The shared array's home directory keeps two time
stamps per element — ``MaxR1st`` (highest read-first iteration executed
so far by any processor) and ``MinW`` (lowest iteration executed so far
that wrote the element) — and the parallelization FAILs whenever
``MaxR1st > MinW`` would become true.  The private copies' directories
keep ``PMaxR1st``/``PMaxW`` per processor, and the cache tags keep two
bits, ``Read1st`` and ``Write``, cleared at the start of each iteration
(modeled with epoch numbers; see
:class:`~repro.core.accessbits.PrivTagBits`).

Full variant (read-in / copy-out supported) method map:

========================================  ==============================
paper                                     here
========================================  ==============================
(a) processor read (hit)                  :meth:`on_cache_hit` (READ)
(b) private dir gets read-first signal    :meth:`_private_read_first`
(c) private dir gets read request         :meth:`on_dir_access` (READ)
(d) shared dir gets read-first signal     :meth:`_shared_read_first`
(e) shared dir gets read-in request       inline in :meth:`_read_in`
(f) processor write (hit)                 :meth:`on_cache_hit` (WRITE)
(g) private dir gets first-write signal   :meth:`_private_first_write`
(h) private dir gets write request        :meth:`on_dir_access` (WRITE)
(i) shared dir gets first-write signal    :meth:`_shared_first_write`
(j) shared dir gets read-in-req for write inline in :meth:`_read_in`
========================================  ==============================

The simple variant (:class:`PrivSimpleProtocol`) drops the time stamps:
the private directory keeps per-iteration ``Read1st``/``Write`` bits
plus a sticky ``WriteAny``; the shared directory keeps sticky
``AnyR1st``/``AnyW`` bits and FAILs when both would be set for an
element.  Without read-in hardware, a read of an element this processor
never wrote is served from the *shared* copy (which stays read-only for
the whole loop if the test is to pass).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..address import ArrayDecl
from ..obs.events import PrivDirUpdateEvent, PrivSimpleDirUpdateEvent
from ..types import AccessKind
from .accessbits import (
    NO_ITER,
    NO_PROC,
    PrivPrivateDirTable,
    PrivSharedDirTable,
    PrivSimplePrivateTable,
    PrivSimpleSharedTable,
    PrivTagBits,
)
from .context import ProtocolContext
from .translation import RangeEntry


class PrivProtocol:
    """Full privatization protocol with read-in and copy-out support."""

    def __init__(self, ctx: ProtocolContext) -> None:
        self.ctx = ctx
        self._shared: Dict[str, PrivSharedDirTable] = {}
        self._private: Dict[Tuple[str, int], PrivPrivateDirTable] = {}
        self._shared_decls: Dict[str, ArrayDecl] = {}
        #: current time-stamp epoch (§3.3); bumped at every epoch sync
        self.epoch = 0

    # ------------------------------------------------------------------
    def register(self, shared_decl: ArrayDecl, num_processors: int) -> None:
        name = shared_decl.name
        self._shared[name] = PrivSharedDirTable(shared_decl.length)
        self._shared_decls[name] = shared_decl
        for proc in range(num_processors):
            self._private[(name, proc)] = PrivPrivateDirTable(shared_decl.length)

    def clear(self) -> None:
        self.epoch = 0
        for table in self._shared.values():
            table.clear()
        for table in self._private.values():
            table.clear()

    def epoch_sync(self) -> None:
        """§3.3: time stamps would overflow — reset them.  Writes from
        completed epochs survive as the ``written_past`` bit; private
        per-processor stamps restart from zero."""
        self.epoch += 1
        for table in self._shared.values():
            table.epoch_reset()
        for table in self._private.values():
            table.clear()

    def shared_table(self, name: str) -> PrivSharedDirTable:
        return self._shared[name]

    def private_table(self, name: str, proc: int) -> PrivPrivateDirTable:
        return self._private[(name, proc)]

    # ------------------------------------------------------------------
    # Shared-directory telemetry (guarded by bus.wants_spec)
    # ------------------------------------------------------------------
    def _shared_snapshot(self, name: str, index: int):
        table = self._shared[name]
        return table.max_r1st[index], table.min_w_of(index)

    def _emit_shared_update(
        self, bus, now: float, name: str, index: int, proc: int,
        iteration: int, cause: str, snap,
    ) -> None:
        after = self._shared_snapshot(name, index)
        if after != snap:
            bus.emit(
                PrivDirUpdateEvent(
                    now, name, index, proc, iteration, cause,
                    snap[0], snap[1], after[0], after[1],
                )
            )

    # ------------------------------------------------------------------
    # Tag-side logic (Fig 8-(a), Fig 9-(f))
    # ------------------------------------------------------------------
    def on_cache_hit(
        self,
        proc: int,
        line,
        entry: RangeEntry,
        index: int,
        offset: int,
        kind: AccessKind,
        iteration: int,
        now: float,
    ) -> None:
        self.ctx.stats.tag_checks += 1
        bits = line.get_bits(offset)
        if not isinstance(bits, PrivTagBits):
            bits = PrivTagBits()
            line.set_bits(offset, bits)
        name = entry.shared_name or entry.decl.name
        read1st, wrote = bits.get(iteration)
        if kind is AccessKind.READ:
            if not read1st and not wrote:
                bits.set_for(iteration, read1st=True)
                self._send_read_first_signal(proc, name, index, iteration, now)
        else:
            if not wrote:
                bits.set_for(iteration, write=True)
                self._send_first_write_signal(proc, name, index, iteration, now)

    # ------------------------------------------------------------------
    # Private-directory logic on data requests (Fig 8-(c), Fig 9-(h))
    # ------------------------------------------------------------------
    def on_dir_access(
        self,
        proc: int,
        entry: RangeEntry,
        index: int,
        kind: AccessKind,
        iteration: int,
        line_first: int,
        line_count: int,
        now: float,
    ) -> int:
        self.ctx.stats.dir_checks += 1
        name = entry.shared_name or entry.decl.name
        table = self._private[(name, proc)]
        extra = 0
        if kind is AccessKind.READ:
            if table.line_untouched(line_first, line_count):
                # Read-in: populate the private line from the shared copy.
                extra = self._read_in(proc, name, index, iteration, now, for_write=False)
                table.pmax_r1st[index] = iteration
            elif (
                table.pmax_r1st[index] < iteration
                and table.pmax_w[index] < iteration
            ):
                # Read-first for this element in this iteration.
                self._forward_read_first(proc, name, index, iteration, now)
                table.pmax_r1st[index] = iteration
            # else: plain refetch of already-tracked data.
        else:
            pmax_w = table.pmax_w[index]
            if pmax_w == NO_ITER:
                # Very first write by this processor to this element.
                if table.line_untouched(line_first, line_count):
                    extra = self._read_in(proc, name, index, iteration, now, for_write=True)
                else:
                    self._forward_first_write(proc, name, index, iteration, now)
                table.pmax_w[index] = iteration
            elif pmax_w < iteration:
                table.pmax_w[index] = iteration
        return extra

    # ------------------------------------------------------------------
    # Tag fill: derive Read1st/Write from the private directory state
    # ------------------------------------------------------------------
    def tag_fill(
        self, proc: int, entry: RangeEntry, index: int, iteration: int
    ) -> PrivTagBits:
        name = entry.shared_name or entry.decl.name
        table = self._private[(name, proc)]
        read1st = table.pmax_r1st[index] == iteration
        wrote = table.pmax_w[index] == iteration
        if read1st or wrote:
            return PrivTagBits(read1st, wrote, iteration)
        return PrivTagBits()

    def fill_line(
        self, proc: int, line, entry: RangeEntry, first: int, count: int,
        iteration: int,
    ) -> None:
        """Copy directory state into a line's tags on a fetch/upgrade."""
        decl = entry.decl
        base = decl.base
        elem_bytes = decl.elem_bytes
        line_addr = line.line_addr
        spec_bits = line.bits_table()
        for index in range(first, first + count):
            offset = base + index * elem_bytes - line_addr
            spec_bits[offset] = self.tag_fill(proc, entry, index, iteration)

    # ------------------------------------------------------------------
    # Signals: cache -> private directory (Figs 8-(b), 9-(g))
    # ------------------------------------------------------------------
    def _send_read_first_signal(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        self.ctx.stats.read_first_signals += 1
        self.ctx.log_message(now, "read-first", proc, name, index, iteration)
        node = self.ctx.params.node_of_processor(proc)
        # The private copy is homed at the processor's node: local hop.
        self.ctx.scheduler.post(
            now + self.ctx.local_msg_delay(),
            lambda t: self._private_read_first(proc, name, index, iteration, t),
        )

    def _private_read_first(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        """(b): the private directory learns of a read-first iteration."""
        if self.ctx.controller.failed:
            return
        table = self._private[(name, proc)]
        table.pmax_r1st[index] = max(table.pmax_r1st[index], iteration)
        self._forward_read_first(proc, name, index, iteration, now)

    def _send_first_write_signal(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        self.ctx.stats.first_write_signals += 1
        self.ctx.log_message(now, "first-write", proc, name, index, iteration)
        self.ctx.scheduler.post(
            now + self.ctx.local_msg_delay(),
            lambda t: self._private_first_write(proc, name, index, iteration, t),
        )

    def _private_first_write(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        """(g): the private directory learns of a first write in an
        iteration; forwards to the shared directory only for the first
        write in the whole loop (later iterations can only raise MinW)."""
        if self.ctx.controller.failed:
            return
        table = self._private[(name, proc)]
        pmax_w = table.pmax_w[index]
        if pmax_w == NO_ITER:
            table.pmax_w[index] = iteration
            self._forward_first_write(proc, name, index, iteration, now)
        elif pmax_w < iteration:
            table.pmax_w[index] = iteration

    # ------------------------------------------------------------------
    # Signals: private directory -> shared directory (Figs 8-(d), 9-(i))
    # ------------------------------------------------------------------
    def _forward_read_first(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        self.ctx.stats.shared_signals += 1
        decl = self._shared_decls[name]
        node = self.ctx.params.node_of_processor(proc)
        self.ctx.send_to_directory(
            decl.addr_of(index),
            node,
            now,
            lambda t: self._shared_read_first(proc, name, index, iteration, t),
        )

    def _shared_read_first(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        """(d): FAIL if a lower-numbered iteration already wrote."""
        table = self._shared[name]
        if table.written_past[index]:
            self._fail(
                "read-first of element written in an earlier time-stamp epoch",
                name, index, now, proc, iteration,
            )
            return
        min_w = table.min_w_of(index)
        if min_w is not None and iteration > min_w:
            self._fail(
                f"read-first in iteration {iteration} of element written "
                f"in earlier iteration {min_w}",
                name, index, now, proc, iteration,
            )
            return
        bus = self.ctx.spec_bus()
        snap = self._shared_snapshot(name, index) if bus is not None else None
        table.note_read_first(index, iteration)
        if bus is not None:
            self._emit_shared_update(
                bus, now, name, index, proc, iteration, "read-first", snap
            )

    def _forward_first_write(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        self.ctx.stats.shared_signals += 1
        decl = self._shared_decls[name]
        node = self.ctx.params.node_of_processor(proc)
        self.ctx.send_to_directory(
            decl.addr_of(index),
            node,
            now,
            lambda t: self._shared_first_write(proc, name, index, iteration, t),
        )

    def _shared_first_write(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        """(i): FAIL if a higher-numbered iteration already read-first."""
        table = self._shared[name]
        max_r1st = table.max_r1st[index]
        if iteration < max_r1st:
            self._fail(
                f"write in iteration {iteration} of element read-first "
                f"in later iteration {max_r1st}",
                name, index, now, proc, iteration,
            )
            return
        bus = self.ctx.spec_bus()
        snap = self._shared_snapshot(name, index) if bus is not None else None
        table.note_write(index, iteration, proc, self.epoch)
        if bus is not None:
            self._emit_shared_update(
                bus, now, name, index, proc, iteration, "first-write", snap
            )

    # ------------------------------------------------------------------
    # Read-in (Figs 8-(e), 9-(j)): blocking fetch from the shared copy
    # ------------------------------------------------------------------
    def _read_in(
        self, proc: int, name: str, index: int, iteration: int, now: float,
        for_write: bool,
    ) -> int:
        self.ctx.stats.read_ins += 1
        self.ctx.log_message(
            now, "read-in-for-write" if for_write else "read-in", proc, name,
            index, iteration,
        )
        decl = self._shared_decls[name]
        elem_addr = decl.addr_of(index)
        shared_home = self.ctx.space.home_node(elem_addr)
        my_node = self.ctx.params.node_of_processor(proc)
        lat = self.ctx.params.latency
        if shared_home == my_node:
            latency = lat.local_mem
        else:
            latency = lat.remote_2hop
        queue = 0
        if self.ctx.memsys is not None:
            arrival = now + self.ctx.dir_to_dir_delay(my_node, shared_home)
            queue = self.ctx.memsys.directories[shared_home].occupy(arrival)

        table = self._shared[name]
        check_time = now + self.ctx.dir_to_dir_delay(my_node, shared_home) + queue
        bus = self.ctx.spec_bus()
        snap = self._shared_snapshot(name, index) if bus is not None else None
        if for_write:
            # (j): read-in-req for write.
            max_r1st = table.max_r1st[index]
            if iteration < max_r1st:
                self._fail(
                    f"write in iteration {iteration} of element read-first "
                    f"in later iteration {max_r1st} (read-in for write)",
                    name, index, check_time, proc, iteration,
                )
            else:
                table.note_write(index, iteration, proc, self.epoch)
                if bus is not None:
                    self._emit_shared_update(
                        bus, check_time, name, index, proc, iteration,
                        "read-in-for-write", snap,
                    )
        else:
            # (e): plain read-in request.
            min_w = table.min_w_of(index)
            if table.written_past[index]:
                self._fail(
                    "read-first of element written in an earlier time-stamp "
                    "epoch (read-in)",
                    name, index, check_time, proc, iteration,
                )
            elif min_w is not None and iteration > min_w:
                self._fail(
                    f"read-first in iteration {iteration} of element written "
                    f"in earlier iteration {min_w} (read-in)",
                    name, index, check_time, proc, iteration,
                )
            else:
                table.note_read_first(index, iteration)
                if bus is not None:
                    self._emit_shared_update(
                        bus, check_time, name, index, proc, iteration,
                        "read-in", snap,
                    )
        return latency + queue

    # ------------------------------------------------------------------
    def copy_out_elements(self, name: str) -> int:
        """Number of elements holding a last-written value that must be
        copied from private to shared storage after the loop (§2.2.3)."""
        table = self._shared[name]
        return sum(proc != NO_PROC for proc in table.last_w_proc)

    def _fail(
        self, reason: str, array: str, index: int, now: float, proc: int,
        iteration: int,
    ) -> None:
        self.ctx.controller.fail(
            f"privatization: {reason}",
            element=(array, index),
            detected_at=now,
            processor=proc,
            iteration=iteration,
        )


class PrivSimpleProtocol:
    """Reduced-state privatization (no read-in/copy-out; §4.1, Fig 5-(b)).

    The private directory keeps per-iteration ``Read1st``/``Write`` bits
    and a sticky ``WriteAny`` bit per element; the shared directory
    keeps sticky ``AnyR1st``/``AnyW`` bits.  The test FAILs as soon as
    any element has both a read-first iteration and a write anywhere in
    the loop — the on-the-fly analogue of the software test's
    ``any(Aw & Anp)`` condition.
    """

    def __init__(self, ctx: ProtocolContext) -> None:
        self.ctx = ctx
        self._shared: Dict[str, PrivSimpleSharedTable] = {}
        self._private: Dict[Tuple[str, int], PrivSimplePrivateTable] = {}
        self._shared_decls: Dict[str, ArrayDecl] = {}

    # ------------------------------------------------------------------
    def register(self, shared_decl: ArrayDecl, num_processors: int) -> None:
        name = shared_decl.name
        self._shared[name] = PrivSimpleSharedTable(shared_decl.length)
        self._shared_decls[name] = shared_decl
        for proc in range(num_processors):
            self._private[(name, proc)] = PrivSimplePrivateTable(shared_decl.length)

    def clear(self) -> None:
        for table in self._shared.values():
            table.clear()
        for table in self._private.values():
            table.clear()

    def shared_table(self, name: str) -> PrivSimpleSharedTable:
        return self._shared[name]

    def private_table(self, name: str, proc: int) -> PrivSimplePrivateTable:
        return self._private[(name, proc)]

    def written_by(self, name: str, proc: int, index: int) -> bool:
        """Whether ``proc`` ever wrote element ``index`` (routes reads to
        the private or the shared copy; see module docstring)."""
        return self._private[(name, proc)].write_any[index]

    # ------------------------------------------------------------------
    def on_cache_hit(
        self,
        proc: int,
        line,
        entry: RangeEntry,
        index: int,
        offset: int,
        kind: AccessKind,
        iteration: int,
        now: float,
    ) -> None:
        self.ctx.stats.tag_checks += 1
        bits = line.get_bits(offset)
        if not isinstance(bits, PrivTagBits):
            bits = PrivTagBits()
            line.set_bits(offset, bits)
        name = entry.shared_name or entry.decl.name
        read1st, wrote = bits.get(iteration)
        if kind is AccessKind.READ:
            if not read1st and not wrote:
                bits.set_for(iteration, read1st=True)
                self._send_read_signal(proc, name, index, iteration, now)
        else:
            if not wrote:
                bits.set_for(iteration, write=True)
                self._send_write_signal(proc, name, index, iteration, now)

    def on_dir_access(
        self,
        proc: int,
        entry: RangeEntry,
        index: int,
        kind: AccessKind,
        iteration: int,
        line_first: int,
        line_count: int,
        now: float,
    ) -> int:
        """A miss behaves like a hit whose signal originates at the
        directory; there is no read-in in this variant."""
        self.ctx.stats.dir_checks += 1
        name = entry.shared_name or entry.decl.name
        table = self._private[(name, proc)]
        read1st, wrote = table.get(index, iteration)
        if kind is AccessKind.READ:
            if not read1st and not wrote:
                self._send_read_signal(proc, name, index, iteration, now)
        else:
            if not wrote:
                self._send_write_signal(proc, name, index, iteration, now)
        return 0

    def tag_fill(
        self, proc: int, entry: RangeEntry, index: int, iteration: int
    ) -> PrivTagBits:
        name = entry.shared_name or entry.decl.name
        read1st, wrote = self._private[(name, proc)].get(index, iteration)
        if read1st or wrote:
            return PrivTagBits(read1st, wrote, iteration)
        return PrivTagBits()

    def fill_line(
        self, proc: int, line, entry: RangeEntry, first: int, count: int,
        iteration: int,
    ) -> None:
        """Copy directory state into a line's tags on a fetch/upgrade."""
        decl = entry.decl
        base = decl.base
        elem_bytes = decl.elem_bytes
        line_addr = line.line_addr
        spec_bits = line.bits_table()
        for index in range(first, first + count):
            offset = base + index * elem_bytes - line_addr
            spec_bits[offset] = self.tag_fill(proc, entry, index, iteration)

    # ------------------------------------------------------------------
    def _send_read_signal(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        self.ctx.stats.read_first_signals += 1
        self.ctx.log_message(now, "read-first", proc, name, index, iteration)
        self.ctx.scheduler.post(
            now + self.ctx.local_msg_delay(),
            lambda t: self._private_read(proc, name, index, iteration, t),
        )

    def _private_read(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        if self.ctx.controller.failed:
            return
        table = self._private[(name, proc)]
        read1st, wrote = table.get(index, iteration)
        if wrote or read1st:
            return  # covered or already signaled this iteration
        if table.write_any[index]:
            # Read-first of an element this processor wrote in an earlier
            # iteration: detectable locally, no shared transaction needed.
            self._fail(
                "read-first of element written in an earlier iteration "
                "(local WriteAny)",
                name, index, now, proc, iteration,
            )
            return
        table.set_for(index, iteration, read1st=True)
        self._forward(proc, name, index, iteration, now, is_write=False)

    def _send_write_signal(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        self.ctx.stats.first_write_signals += 1
        self.ctx.log_message(now, "first-write", proc, name, index, iteration)
        self.ctx.scheduler.post(
            now + self.ctx.local_msg_delay(),
            lambda t: self._private_write(proc, name, index, iteration, t),
        )

    def _private_write(
        self, proc: int, name: str, index: int, iteration: int, now: float
    ) -> None:
        if self.ctx.controller.failed:
            return
        table = self._private[(name, proc)]
        _, wrote = table.get(index, iteration)
        if wrote:
            return
        was_any = table.write_any[index]
        table.set_for(index, iteration, write=True)
        if not was_any:
            self._forward(proc, name, index, iteration, now, is_write=True)

    def _forward(
        self, proc: int, name: str, index: int, iteration: int, now: float,
        is_write: bool,
    ) -> None:
        self.ctx.stats.shared_signals += 1
        decl = self._shared_decls[name]
        node = self.ctx.params.node_of_processor(proc)
        self.ctx.send_to_directory(
            decl.addr_of(index),
            node,
            now,
            lambda t: self._shared_update(proc, name, index, iteration, t, is_write),
        )

    def _shared_update(
        self, proc: int, name: str, index: int, iteration: int, now: float,
        is_write: bool,
    ) -> None:
        table = self._shared[name]
        bus = self.ctx.spec_bus()
        snap = (
            (table.any_r1st[index], table.any_w[index])
            if bus is not None
            else None
        )
        if is_write:
            table.any_w[index] = True
            if table.any_r1st[index]:
                self._fail(
                    "element both read-first and written (AnyW after AnyR1st)",
                    name, index, now, proc, iteration,
                )
        else:
            table.any_r1st[index] = True
            if table.any_w[index]:
                self._fail(
                    "element both read-first and written (AnyR1st after AnyW)",
                    name, index, now, proc, iteration,
                )
        if bus is not None:
            after = (table.any_r1st[index], table.any_w[index])
            if after != snap:
                bus.emit(
                    PrivSimpleDirUpdateEvent(
                        now, name, index, proc, iteration,
                        "write" if is_write else "read-first",
                        snap[0], snap[1], after[0], after[1],
                    )
                )

    def _fail(
        self, reason: str, array: str, index: int, now: float, proc: int,
        iteration: int,
    ) -> None:
        self.ctx.controller.fail(
            f"privatization-simple: {reason}",
            element=(array, index),
            detected_at=now,
            processor=proc,
            iteration=iteration,
        )
