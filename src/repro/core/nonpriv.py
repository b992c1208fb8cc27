"""The non-privatization algorithm (paper §3.2, Figures 4, 6 and 7).

Every element of an array under this test must end the loop either
*read-only* or *accessed by a single processor*; any other pattern FAILs
the parallelization.  State per element:

* directory: ``First`` (ID of the first processor to access the
  element), ``Priv``/NoShr, ``ROnly`` — kept in the dedicated access-bit
  memory (:class:`~repro.core.accessbits.NonPrivDirTable`);
* cache tags: a 2-bit First summary (OWN/OTHER/NONE) plus the
  ``Priv``/``ROnly`` bits
  (:class:`~repro.core.accessbits.NonPrivTagBits`).

The lettered methods below correspond one-to-one to the lettered
algorithms of Figures 6 and 7:

========================  ============================================
paper                     here
========================  ============================================
(a) processor read hit    :meth:`on_cache_hit` (READ)
(b) home gets read req    :meth:`on_dir_access` (READ)
(c) processor write hit   :meth:`on_cache_hit` (WRITE)
(d) home gets write req   :meth:`on_dir_access` (WRITE)
(e) home gets dirty line  :meth:`merge_writeback`
(f) home gets First_update    :meth:`_dir_first_update`
(g) cache gets First_update_fail  :meth:`_cache_first_update_fail`
(h) home gets ROnly_update    :meth:`_dir_ronly_update`
========================  ============================================
"""

from __future__ import annotations

from typing import Dict

from ..obs.events import NonPrivDirUpdateEvent
from ..types import AccessKind, FirstState, LineState
from .accessbits import NO_PROC, NonPrivDirTable, NonPrivTagBits
from .context import ProtocolContext
from .translation import RangeEntry


class NonPrivProtocol:
    """Implements the non-privatization coherence extensions."""

    def __init__(self, ctx: ProtocolContext) -> None:
        self.ctx = ctx
        self._tables: Dict[str, NonPrivDirTable] = {}
        self._entries: Dict[str, RangeEntry] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def register(self, entry: RangeEntry) -> None:
        name = entry.decl.name
        self._tables[name] = NonPrivDirTable(entry.decl.length)
        self._entries[name] = entry

    def clear(self) -> None:
        """Clear all directory access bits (loop-entry system call, §4.1)."""
        for table in self._tables.values():
            table.clear()

    def table(self, name: str) -> NonPrivDirTable:
        return self._tables[name]

    # ------------------------------------------------------------------
    # Directory-update telemetry (guarded by bus.wants_spec: the null
    # path never snapshots table state)
    # ------------------------------------------------------------------
    def _dir_snapshot(self, name: str, index: int):
        table = self._tables[name]
        return table.first[index], table.priv[index], table.ronly[index]

    def _emit_dir_update(
        self, bus, now: float, name: str, index: int, proc: int, cause: str,
        snap,
    ) -> None:
        after = self._dir_snapshot(name, index)
        if after != snap:
            bus.emit(
                NonPrivDirUpdateEvent(
                    now, name, index, proc, cause,
                    snap[0], snap[1], snap[2], after[0], after[1], after[2],
                )
            )

    # ------------------------------------------------------------------
    # Tag-side logic (Fig 6-(a) and 6-(c))
    # ------------------------------------------------------------------
    def on_cache_hit(
        self,
        proc: int,
        line,  # memsys CacheLine
        entry: RangeEntry,
        index: int,
        kind: AccessKind,
        now: float,
    ) -> None:
        self.ctx.stats.tag_checks += 1
        # Tags are keyed by the access-bit element's offset in the line
        # (one slot per line in the per-line-bit mode), as in fill_line.
        decl = entry.decl
        offset = decl.base + index * decl.elem_bytes - line.line_addr
        bits = line.get_bits(offset)
        if not isinstance(bits, NonPrivTagBits):
            bits = NonPrivTagBits()
            line.set_bits(offset, bits)
        name = entry.decl.name
        if kind is AccessKind.READ:
            # (a): FAIL on reading data written by another processor.
            if bits.first is FirstState.OTHER and bits.priv:
                self._fail(
                    "read of element written by another processor (tag)",
                    name, index, now, proc,
                )
                return
            if bits.first is FirstState.NONE:
                bits.first = FirstState.OWN
                if line.state is not LineState.DIRTY:
                    self._send_first_update(proc, entry, index, now)
            elif bits.first is FirstState.OTHER and not bits.ronly:
                bits.ronly = True
                if line.state is not LineState.DIRTY:
                    self._send_ronly_update(proc, entry, index, now)
        else:
            # (c): FAIL on writing data read or written by another proc.
            if bits.first is FirstState.OTHER or bits.ronly:
                self._fail(
                    "write to element read/written by another processor (tag)",
                    name, index, now, proc,
                )
                return
            # Clean lines additionally go through the home (the memsys
            # upgrade path calls on_dir_access); tag update is local in
            # either case: "no need to tell the directory".
            bits.first = FirstState.OWN
            bits.priv = True

    # ------------------------------------------------------------------
    # Directory-side logic on data requests (Fig 6-(b) and 6-(d))
    # ------------------------------------------------------------------
    def on_dir_access(
        self, proc: int, entry: RangeEntry, index: int, kind: AccessKind, now: float
    ) -> int:
        """Run the home-side check; any dirty-owner merge has already
        been applied by the memory system.  Returns extra latency (0)."""
        self.ctx.stats.dir_checks += 1
        table = self._tables[entry.decl.name]
        first = table.first[index]
        name = entry.decl.name
        bus = self.ctx.spec_bus()
        snap = self._dir_snapshot(name, index) if bus is not None else None
        if kind is AccessKind.READ:
            # (b)
            if first != proc and table.priv[index]:
                self._fail(
                    "read of element written by another processor (dir)",
                    name, index, now, proc,
                )
            elif first == NO_PROC:
                table.first[index] = proc
            elif first != proc and not table.ronly[index]:
                table.ronly[index] = True
        else:
            # (d)
            if (first != proc and first != NO_PROC) or table.ronly[index]:
                self._fail(
                    "write to element read/written by another processor (dir)",
                    name, index, now, proc,
                )
            else:
                table.first[index] = proc
                table.priv[index] = True
        if bus is not None:
            cause = "read-req" if kind is AccessKind.READ else "write-req"
            self._emit_dir_update(bus, now, name, index, proc, cause, snap)
        return 0

    # ------------------------------------------------------------------
    # Writeback merge (Fig 6-(e))
    # ------------------------------------------------------------------
    def merge_writeback(
        self, proc: int, entry: RangeEntry, index: int, bits: NonPrivTagBits, now: float
    ) -> None:
        """Fold one word's tag state into the directory when a dirty line
        is displaced or recalled."""
        table = self._tables[entry.decl.name]
        name = entry.decl.name
        first = table.first[index]
        bus = self.ctx.spec_bus()
        snap = self._dir_snapshot(name, index) if bus is not None else None
        # Only state the *local* processor could have produced is merged:
        # tag bits with First == OTHER were inherited from the directory
        # on the fill and carry no new information.
        if bits.first is FirstState.OWN:
            if bits.priv:
                if table.ronly[index]:
                    self._fail(
                        "writeback reveals write to read-only element",
                        name, index, now, proc,
                    )
                    return
                if first not in (NO_PROC, proc):
                    self._fail(
                        "writeback reveals write to element first accessed "
                        "by another processor",
                        name, index, now, proc,
                    )
                    return
                table.first[index] = proc
                table.priv[index] = True
            else:
                if first == NO_PROC:
                    table.first[index] = proc
                elif first != proc:
                    # Two processors believed they were first readers.
                    table.ronly[index] = True
        # ROnly can be set locally while the line is dirty (Fig 6-(a)
        # with no message sent), so it is merged regardless of First;
        # re-merging an inherited ROnly is idempotent.
        if bits.ronly:
            table.ronly[index] = True
        if bus is not None:
            self._emit_dir_update(bus, now, name, index, proc, "writeback", snap)

    def merge_line(
        self,
        proc: int,
        line,  # memsys CacheLine
        entry: RangeEntry,
        first: int,
        count: int,
        now: float,
    ) -> None:
        """Fold a whole dirty line's tag state into the directory."""
        spec_bits = line.spec_bits
        if spec_bits is None:
            return
        decl = entry.decl
        for offset, bits in list(spec_bits.items()):
            index = (line.line_addr + offset - decl.base) // decl.elem_bytes
            if first <= index < first + count:
                self.merge_writeback(proc, entry, index, bits, now)

    # ------------------------------------------------------------------
    # Tag fill (directory -> cache copy on a fetch)
    # ------------------------------------------------------------------
    def fill_line(
        self, proc: int, line, entry: RangeEntry, first: int, count: int
    ) -> None:
        """Copy directory state into a line's tags on a fetch/upgrade."""
        decl = entry.decl
        base = decl.base
        elem_bytes = decl.elem_bytes
        line_addr = line.line_addr
        spec_bits = line.bits_table()
        table = self._tables[decl.name]
        for index in range(first, first + count):
            offset = base + index * elem_bytes - line_addr
            spec_bits[offset] = table.tag_view(index, proc)

    # ------------------------------------------------------------------
    # Deferred update messages (Figs 6-(f), 6-(g), 7-(h))
    # ------------------------------------------------------------------
    def _send_first_update(
        self, proc: int, entry: RangeEntry, index: int, now: float
    ) -> None:
        self.ctx.stats.first_updates += 1
        self.ctx.log_message(now, "First_update", proc, entry.decl.name, index)
        elem_addr = entry.decl.addr_of(index)
        node = self.ctx.params.node_of_processor(proc)
        self.ctx.send_to_directory(
            elem_addr,
            node,
            now,
            lambda t: self._dir_first_update(proc, entry, index, t),
        )

    def _send_ronly_update(
        self, proc: int, entry: RangeEntry, index: int, now: float
    ) -> None:
        self.ctx.stats.ronly_updates += 1
        self.ctx.log_message(now, "ROnly_update", proc, entry.decl.name, index)
        elem_addr = entry.decl.addr_of(index)
        node = self.ctx.params.node_of_processor(proc)
        self.ctx.send_to_directory(
            elem_addr,
            node,
            now,
            lambda t: self._dir_ronly_update(proc, entry, index, t),
        )

    def _dir_first_update(
        self, proc: int, entry: RangeEntry, index: int, now: float
    ) -> None:
        """(f): home receives a First_update."""
        table = self._tables[entry.decl.name]
        bus = self.ctx.spec_bus()
        snap = (
            self._dir_snapshot(entry.decl.name, index)
            if bus is not None
            else None
        )
        if table.priv[index]:
            # A First_update racing a write FAILs — unless both came from
            # the same processor, in which case the update is stale
            # information the directory already has (the paper assumes
            # in-order delivery from one cache to one home; the timing
            # model can reorder an update behind the sender's own
            # write-request, which must stay benign).
            if table.first[index] != proc:
                self._fail(
                    "race between a First_update and a write",
                    entry.decl.name, index, now, proc,
                )
            return
        first = table.first[index]
        if first == NO_PROC:
            table.first[index] = proc
            if bus is not None:
                self._emit_dir_update(
                    bus, now, entry.decl.name, index, proc, "first-update", snap
                )
        elif first != proc:
            # Race between two First_updates: mark read-shared and bounce.
            table.ronly[index] = True
            if bus is not None:
                self._emit_dir_update(
                    bus, now, entry.decl.name, index, proc, "first-update", snap
                )
            self.ctx.stats.first_update_fails += 1
            self.ctx.log_message(
                now, "First_update_fail", proc, entry.decl.name, index
            )
            home = self.ctx.space.home_node(entry.decl.addr_of(index))
            self.ctx.send_to_cache(
                proc,
                home,
                now,
                lambda t: self._cache_first_update_fail(proc, entry, index, t),
            )

    def _cache_first_update_fail(
        self, proc: int, entry: RangeEntry, index: int, now: float
    ) -> None:
        """(g): cache receives a First_update_fail."""
        memsys = self.ctx.memsys
        if memsys is None:
            return
        elem_addr = entry.decl.addr_of(index)
        line_addr = self.ctx.space.line_addr(elem_addr)
        _, line = memsys.caches[proc].probe(line_addr)
        if line is None:
            # Line displaced meanwhile; its state already reached the
            # directory (clean lines propagate eagerly, dirty lines merge
            # on writeback), so the correction is moot.
            return
        offset = elem_addr - line_addr
        bits = line.get_bits(offset)
        if not isinstance(bits, NonPrivTagBits):
            bits = NonPrivTagBits()
            line.set_bits(offset, bits)
        if bits.first is FirstState.OWN and bits.priv:
            # The slower processor not only read but also wrote the
            # element before learning it was not First.
            self._fail(
                "race between two First_updates: processor read and "
                "then wrote before losing the race",
                entry.decl.name, index, now, proc,
            )
            return
        bits.first = FirstState.OTHER
        bits.ronly = True

    def _dir_ronly_update(
        self, proc: int, entry: RangeEntry, index: int, now: float
    ) -> None:
        """(h): home receives a ROnly_update."""
        table = self._tables[entry.decl.name]
        if table.priv[index]:
            self._fail(
                "race between a ROnly_update and a write",
                entry.decl.name, index, now, proc,
            )
            return
        bus = self.ctx.spec_bus()
        snap = (
            self._dir_snapshot(entry.decl.name, index)
            if bus is not None
            else None
        )
        # Race between two ROnly_updates needs no bounce: the second
        # message is plainly ignored (the sender's tag is already right).
        table.ronly[index] = True
        if bus is not None:
            self._emit_dir_update(
                bus, now, entry.decl.name, index, proc, "ronly-update", snap
            )

    # ------------------------------------------------------------------
    def _fail(
        self, reason: str, array: str, index: int, now: float, proc: int
    ) -> None:
        self.ctx.controller.fail(
            f"non-privatization: {reason}",
            element=(array, index),
            detected_at=now,
            processor=proc,
        )
