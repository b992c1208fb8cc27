"""The memory system: caches + directories + DASH-like coherence.

One :class:`MemorySystem` owns every processor's cache hierarchy and
every node's directory, and serves all simulated memory accesses.  The
coherence protocol is a full-map invalidation protocol in the style of
DASH (paper §5.1):

* cache states INVALID / CLEAN(shared) / DIRTY(exclusive-modified);
* directory states UNCACHED / SHARED(sharer set) / DIRTY(owner);
* read misses are 2-hop (home has the data) or 3-hop (home forwards to
  a dirty owner, which writes back);
* writes invalidate sharers or pull the line from a dirty owner;
* dirty replacements write back to the home.

Speculative run-time parallelization (paper §3) plugs in through
:class:`SpeculationHooks`: the hardware access-bit logic is invoked on
cache hits (tag-side test logic, Fig 10-(a)), on directory transactions
(Fig 10-(c)), and whenever a dirty line's per-word tag state must be
merged back into the directory (Figs 6-(e)).

Timing model: transactions are timed from the latency table of §5.1
plus queueing at the home directory (occupancy window).  State changes
apply at issue time, which keeps the protocol race-free at the data
level while the *speculative* messages — which the paper allows to race
— are delivered as deferred events by the speculation engine itself.
Writes are non-blocking through a finite write buffer; reads stall.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from .. import obs
from ..address import AddressSpace
from ..params import MachineParams
from ..types import AccessKind, DirState, LineState
from .cache import CacheHierarchy, HitLevel
from .directory import Directory
from .line import CacheLine


class SpeculationHooks:
    """Interface the speculation engine implements (all optional).

    The default implementations are no-ops, so an implementation
    overrides only the hooks it needs.  A :class:`MemorySystem` with no
    hooks attached (``hooks=None``) skips the calls and behaves as a
    plain CC-NUMA machine.
    """

    def on_cache_hit(
        self, proc: int, line: CacheLine, addr: int, kind: AccessKind, now: float
    ) -> None:
        """Tag-side test logic on an L1/L2 hit (Figs 6-(a), 6-(c), 8-(a), 9-(f))."""

    def on_dir_access(
        self, proc: int, line_addr: int, addr: int, kind: AccessKind, now: float
    ) -> int:
        """Directory-side logic when home processes a fetch/upgrade.

        Returns extra latency cycles (e.g. a privatization read-in that
        must consult the shared array's home, Figs 8-(c)/9-(h)).
        """
        return 0

    def fill_line_bits(self, proc: int, line: CacheLine, now: float) -> None:
        """Copy directory access-bit state into the tags of a fetched line."""

    def on_writeback(self, proc: int, line: CacheLine, now: float) -> None:
        """Merge a dirty line's tag state into the directory (Fig 6-(e))."""


@dataclasses.dataclass(slots=True)
class AccessResult:
    """Timing outcome of one simulated access."""

    issue_cycles: int  # cycles the processor is busy issuing (>=1)
    stall_cycles: int  # cycles the processor stalls on memory
    hit_level: HitLevel

    @property
    def total(self) -> int:
        return self.issue_cycles + self.stall_cycles


@dataclasses.dataclass
class MemStats:
    """Aggregate memory-system statistics."""

    reads: int = 0
    writes: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    local_misses: int = 0
    remote_2hop: int = 0
    remote_3hop: int = 0
    invalidations: int = 0
    writebacks: int = 0
    write_stall_cycles: int = 0
    read_stall_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.local_misses + self.remote_2hop + self.remote_3hop


class _WriteBuffer:
    """Finite write buffer: writes retire asynchronously."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._pending: List[Tuple[float, int]] = []  # (completion, line_addr)

    def drain(self, now: float) -> None:
        if self._pending:
            self._pending = [p for p in self._pending if p[0] > now]

    def stall_for_slot(self, now: float) -> float:
        """Cycles to wait for a free entry."""
        if not self._pending:
            return 0.0
        alive = []
        oldest = 0.0
        for item in self._pending:
            if item[0] > now:
                alive.append(item)
                if oldest == 0.0 or item[0] < oldest:
                    oldest = item[0]
        self._pending = alive
        if len(alive) < self.capacity:
            return 0.0
        return oldest - now

    def conflict(self, now: float, line_addr: int) -> float:
        """Cycles a read of ``line_addr`` must wait for a pending write."""
        if not self._pending:
            return 0.0
        alive = []
        latest = now
        for item in self._pending:
            if item[0] > now:
                alive.append(item)
                if item[1] == line_addr and item[0] > latest:
                    latest = item[0]
        self._pending = alive
        return latest - now

    def flush_time(self, now: float) -> float:
        if not self._pending:
            return 0.0
        latest = now
        alive = []
        for item in self._pending:
            if item[0] > now:
                alive.append(item)
                if item[0] > latest:
                    latest = item[0]
        self._pending = alive
        return latest - now


class MemorySystem:
    """All caches and directories of the machine, plus the protocol."""

    def __init__(
        self,
        params: MachineParams,
        address_space: AddressSpace,
        hooks: Optional[SpeculationHooks] = None,
    ) -> None:
        self.params = params
        self.space = address_space
        #: the attached speculation hooks; None (no speculation engine)
        #: lets the per-access paths skip the hook calls altogether
        self.hooks = hooks
        self.caches: List[CacheHierarchy] = [
            CacheHierarchy(params.l1, params.l2) for _ in range(params.num_processors)
        ]
        self.directories: List[Directory] = [
            Directory(
                node,
                params.contention.directory_occupancy,
                params.contention.enabled,
            )
            for node in range(params.num_nodes)
        ]
        self.write_buffers: List[_WriteBuffer] = [
            _WriteBuffer(params.write_buffer_entries)
            for _ in range(params.num_processors)
        ]
        self.stats = MemStats()
        # Hot-path constants: node lookup table and line mask (the
        # per-access path is the simulator's inner loop).
        self._node_of = [
            params.node_of_processor(p) for p in range(params.num_processors)
        ]
        self._line_bytes = address_space.line_bytes
        # The paper's direct-mapped L1 and L2 hold one line per set, so
        # the per-access paths probe the sets inline (the set keyed as
        # ``DirectMappedCache`` keys it, then a tag compare); a
        # set-associative geometry calls ``lookup``, which keeps each
        # set's LRU order.
        l1, l2 = self.caches[0].l1, self.caches[0].l2
        self._direct = l1._max_ways == 1 and l2._max_ways == 1
        self._l1_span = l1._span
        self._l2_span = l2._span
        lat = params.latency
        self._lat_l1_hit = lat.l1_hit
        self._lat_l2_hit = lat.l2_hit
        self._lat_local_mem = lat.local_mem
        self._lat_remote_2hop = lat.remote_2hop
        self._lat_remote_3hop = lat.remote_3hop
        self._net_one_way = lat.network_one_way
        self._dirty_forward = lat.dirty_forward
        #: telemetry bus (repro.obs.EventBus); None keeps emission free
        self.bus = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def node_of(self, proc: int) -> int:
        return self._node_of[proc]

    def home_of(self, line_addr: int) -> Directory:
        return self.directories[self.space.home_node(line_addr)]

    def set_hooks(self, hooks: Optional[SpeculationHooks]) -> None:
        self.hooks = hooks

    # ------------------------------------------------------------------
    # Public access API
    # ------------------------------------------------------------------
    def read(self, proc: int, addr: int, now: float) -> AccessResult:
        """Simulate a load.  The processor stalls for the returned time."""
        stall, level = self._read(proc, addr, now)
        return AccessResult(1, stall, level)

    def write(self, proc: int, addr: int, now: float) -> AccessResult:
        """Simulate a store.  Non-blocking via the write buffer."""
        stall, level = self._write(proc, addr, now)
        return AccessResult(1, stall, level)

    # The processor's per-access entry points: ``(stall_cycles,
    # hit_level)`` without the AccessResult allocation (the issue cost is
    # always one cycle).
    def _read(self, proc: int, addr: int, now: float) -> Tuple[int, HitLevel]:
        stats = self.stats
        stats.reads += 1
        line_addr = addr - (addr % self._line_bytes)
        buf = self.write_buffers[proc]
        if buf._pending:
            wb_stall = buf.conflict(now, line_addr)
            now = now + wb_stall
        else:
            wb_stall = 0.0

        hier = self.caches[proc]
        direct = self._direct
        if direct:
            line = hier.l1._sets.get(line_addr % self._l1_span)
            if line is not None and line.line_addr != line_addr:
                line = None
        else:
            line = hier.l1.lookup(line_addr)
        if line is not None:
            level = HitLevel.L1
            stats.l1_hits += 1
            base = self._lat_l1_hit
        else:
            if direct:
                line = hier.l2._sets.get(line_addr % self._l2_span)
                if line is not None and line.line_addr != line_addr:
                    line = None
            else:
                line = hier.l2.lookup(line_addr)
            if line is not None:
                level = HitLevel.L2
                stats.l2_hits += 1
                base = self._lat_l2_hit
                # Promote to the L1.  Inclusive, so the L1 victim
                # (same object still in the L2) needs no handling.
                hier.l1.insert(line)
        if line is not None:
            hooks = self.hooks
            if hooks is not None:
                hooks.on_cache_hit(proc, line, addr, AccessKind.READ, now)
            stall = int(wb_stall) + (base - 1)
            stats.read_stall_cycles += stall
            bus = self.bus
            if bus is not None and bus.wants_access:
                self._trace(now, proc, AccessKind.READ, addr, level, stall)
            return stall, level

        latency = self._fetch(proc, line_addr, addr, AccessKind.READ, now)
        stall = int(wb_stall) + (latency - 1)
        stats.read_stall_cycles += stall
        bus = self.bus
        if bus is not None and bus.wants_access:
            self._trace(now, proc, AccessKind.READ, addr, HitLevel.MEMORY, stall)
        return stall, HitLevel.MEMORY

    def _write(self, proc: int, addr: int, now: float) -> Tuple[int, HitLevel]:
        stats = self.stats
        stats.writes += 1
        line_addr = addr - (addr % self._line_bytes)

        hier = self.caches[proc]
        direct = self._direct
        if direct:
            line = hier.l1._sets.get(line_addr % self._l1_span)
            if line is not None and line.line_addr != line_addr:
                line = None
        else:
            line = hier.l1.lookup(line_addr)
        if line is not None:
            level = HitLevel.L1
        else:
            if direct:
                line = hier.l2._sets.get(line_addr % self._l2_span)
                if line is not None and line.line_addr != line_addr:
                    line = None
            else:
                line = hier.l2.lookup(line_addr)
            level = HitLevel.L2
        if line is not None and line.state is LineState.DIRTY:
            # Write hit on an exclusive line: purely local (Fig 6-(c)
            # dirty branch: tags updated, "no need to tell directory").
            if level is HitLevel.L2:
                hier.l1.insert(line)
                stats.l2_hits += 1
                base = self._lat_l2_hit
            else:
                stats.l1_hits += 1
                base = self._lat_l1_hit
            hooks = self.hooks
            if hooks is not None:
                hooks.on_cache_hit(proc, line, addr, AccessKind.WRITE, now)
            bus = self.bus
            if bus is not None and bus.wants_access:
                self._trace(now, proc, AccessKind.WRITE, addr, level, base - 1)
            return base - 1, level

        # Needs a coherence transaction: upgrade (line CLEAN here) or a
        # fetch-exclusive (miss).  Non-blocking: the processor pays only
        # the issue cost plus any write-buffer-full stall.
        buf = self.write_buffers[proc]
        slot_stall = buf.stall_for_slot(now)
        start = now + slot_stall

        if line is not None:
            # Upgrade: CLEAN -> DIRTY via home (Fig 6-(c) clean branch).
            # The tag-side test logic runs first, then the write request
            # travels to the home where the directory-side check runs.
            if level is HitLevel.L2:
                hier.l1.insert(line)
            hooks = self.hooks
            if hooks is not None:
                hooks.on_cache_hit(proc, line, addr, AccessKind.WRITE, now)
            latency = self._upgrade(proc, line, addr, start)
            hit = level
            if level is HitLevel.L1:
                self.stats.l1_hits += 1
            else:
                self.stats.l2_hits += 1
        else:
            latency = self._fetch(proc, line_addr, addr, AccessKind.WRITE, start)
            hit = HitLevel.MEMORY

        buf._pending.append((start + latency, line_addr))
        stall = int(slot_stall)
        stats.write_stall_cycles += stall
        bus = self.bus
        if bus is not None and bus.wants_access:
            self._trace(now, proc, AccessKind.WRITE, addr, hit, stall)
        return stall, hit

    def _trace(self, now, proc, kind, addr, level, stall) -> None:
        # Callers have already checked ``bus.wants_access`` — no event
        # object is allocated unless a subscriber wants it.
        self.bus.emit(obs.AccessEvent(now, proc, kind, addr, level, 1 + stall))

    def drain_write_buffer(self, proc: int, now: float) -> float:
        """Cycles until all of ``proc``'s pending writes retire.

        Used at barriers and at loop end (release consistency fence).
        """
        return self.write_buffers[proc].flush_time(now)

    # ------------------------------------------------------------------
    # Coherence transactions
    # ------------------------------------------------------------------
    def _fetch(
        self, proc: int, line_addr: int, addr: int, kind: AccessKind, now: float
    ) -> int:
        """Miss: obtain the line from its home (and owner, if dirty)."""
        # AddressSpace.home_node's page memo and Directory.entry, probed
        # inline; the methods fill them on a first touch.
        space = self.space
        home_node = space._home_cache.get(line_addr // space.page_bytes)
        if home_node is None:
            home_node = space.home_node(line_addr)
        my_node = self._node_of[proc]
        local = home_node == my_node
        if local:
            base = self._lat_local_mem
            arrival = now
        else:
            base = self._lat_remote_2hop
            arrival = now + self._net_one_way
        home = self.directories[home_node]
        queue = home.occupy(arrival)

        entry = home._entries.get(line_addr)
        if entry is None:
            entry = home.entry(line_addr)
        prev_state = entry.state
        extra = 0
        three_hop = False
        owner = entry.owner
        if prev_state is DirState.DIRTY and owner is not None:
            if owner != proc:
                # Forward to the dirty owner, which supplies the line and
                # writes back.  A true 3-hop only when the owner sits on
                # another node; a same-node owner is a (cheaper)
                # cache-to-cache transfer within the node.
                self._recall_owner(
                    owner, line_addr, now, invalidate=(kind is AccessKind.WRITE)
                )
                if kind is AccessKind.READ:
                    entry.state = DirState.SHARED
                    entry.sharer_mask = 1 << owner
                    entry.owner = None
                else:
                    entry.reset()
                if self._node_of[owner] != my_node:
                    three_hop = True
                    if local:
                        extra += self._dirty_forward  # two extra messages
                    else:
                        base = self._lat_remote_3hop
                else:
                    extra += self._dirty_forward // 2  # intra-node transfer
            else:
                # Our own dirty line missed the cache?  It must have been
                # evicted and written back already; treat as stale entry.
                entry.reset()
        if three_hop:
            self.stats.remote_3hop += 1
        elif local:
            self.stats.local_misses += 1
        else:
            self.stats.remote_2hop += 1

        if kind is AccessKind.WRITE and entry.sharer_mask:
            extra += self._invalidate_sharers(proc, line_addr, entry.sharer_mask, now)
            entry.sharer_mask = 0

        # Speculation: directory-side checks (may raise through the
        # controller) and possible extra transactions (read-in).
        hooks = self.hooks
        if hooks is not None:
            extra += hooks.on_dir_access(proc, line_addr, addr, kind, now)

        # Update directory and install the line.
        if kind is AccessKind.READ:
            entry.state = DirState.SHARED
            entry.sharer_mask |= 1 << proc
            state = LineState.CLEAN
        else:
            entry.state = DirState.DIRTY
            entry.owner = proc
            entry.sharer_mask = 0
            state = LineState.DIRTY
        bus = self.bus
        if bus is not None and bus.wants_dir and entry.state is not prev_state:
            bus.emit(
                obs.DirTransitionEvent(
                    now, home_node, line_addr, prev_state, entry.state, proc, kind
                )
            )
        line = CacheLine(line_addr, state)
        if hooks is not None:
            hooks.fill_line_bits(proc, line, now)
        # Install in both levels, purging the L2 victim from the L1 for
        # inclusion before handling its writeback/replacement hint.
        hier = self.caches[proc]
        victim = hier.l2.insert(line)
        if victim is not None:
            hier.l1.remove(victim.line_addr)
        hier.l1.insert(line)
        if victim is not None:
            if victim.dirty:
                self._victim_writeback(proc, victim, now)
            else:
                self._drop_clean(proc, victim)
        return base + queue + extra

    def _upgrade(self, proc: int, line: CacheLine, addr: int, now: float) -> int:
        """CLEAN->DIRTY ownership upgrade through the home directory."""
        line_addr = line.line_addr
        home_node = self.space.home_node(line_addr)
        local = home_node == self._node_of[proc]
        if local:
            base = self._lat_local_mem // 2
            arrival = now
        else:
            base = self._lat_remote_2hop // 2
            arrival = now + self._net_one_way
        home = self.directories[home_node]
        queue = home.occupy(arrival)

        entry = home.entry(line_addr)
        prev_state = entry.state
        extra = 0
        if entry.sharer_mask & ~(1 << proc):
            extra += self._invalidate_sharers(proc, line_addr, entry.sharer_mask, now)
        hooks = self.hooks
        if hooks is not None:
            extra += hooks.on_dir_access(
                proc, line_addr, addr, AccessKind.WRITE, now
            )
        entry.state = DirState.DIRTY
        entry.owner = proc
        entry.sharer_mask = 0
        line.state = LineState.DIRTY
        bus = self.bus
        if bus is not None and bus.wants_dir and entry.state is not prev_state:
            bus.emit(
                obs.DirTransitionEvent(
                    now,
                    home_node,
                    line_addr,
                    prev_state,
                    entry.state,
                    proc,
                    AccessKind.WRITE,
                )
            )
        # Fig 6-(d) ends by refreshing the requester's tag state from the
        # directory for every word of the line.
        if hooks is not None:
            hooks.fill_line_bits(proc, line, now)
        return base + queue + extra

    def _recall_owner(
        self, owner: int, line_addr: int, now: float, invalidate: bool
    ) -> None:
        """Pull a dirty line out of ``owner``'s cache (writeback).  The
        3-hop latency is charged by the caller."""
        self.stats.writebacks += 1
        hier = self.caches[owner]
        if invalidate:
            line = hier.invalidate(line_addr)
            if line is not None and self.hooks is not None:
                self.hooks.on_writeback(owner, line, now)
            return
        # Downgrade: the owner keeps a CLEAN copy, in place.  The line
        # ends most recently used in both levels, as invalidating it and
        # refilling it would leave it: it already holds its L2 slot, so
        # there is no L2 victim, and an L1 victim stays in the inclusive
        # L2.
        line = hier.l2.lookup(line_addr)  # bumps the line in the L2
        if line is None:
            return
        if self.hooks is not None:
            self.hooks.on_writeback(owner, line, now)
        line.state = LineState.CLEAN
        hier.l1.insert(line)

    def _invalidate_sharers(
        self, requester: int, line_addr: int, sharer_mask: int, now: float
    ) -> int:
        """Invalidate every sharer in the presence mask except the
        requester; return added latency."""
        mask = sharer_mask & ~(1 << requester)
        caches = self.caches
        count = 0
        while mask:
            low = mask & -mask
            caches[low.bit_length() - 1].invalidate(line_addr)
            mask ^= low
            count += 1
        self.stats.invalidations += count
        if count == 0:
            return 0
        # Invalidations fan out in parallel; acks return to the home.
        return self._net_one_way + 2 * count

    def _victim_writeback(self, proc: int, victim: CacheLine, now: float) -> None:
        """A dirty line displaced from the L2 returns to its home."""
        self.stats.writebacks += 1
        if self.hooks is not None:
            self.hooks.on_writeback(proc, victim, now)
        # home_of and Directory.entry, probed inline as in _fetch.
        line_addr = victim.line_addr
        space = self.space
        home_node = space._home_cache.get(line_addr // space.page_bytes)
        if home_node is None:
            home_node = space.home_node(line_addr)
        home = self.directories[home_node]
        home.occupy(now + self._net_one_way)
        entry = home._entries.get(line_addr)
        if entry is None:
            entry = home.entry(line_addr)
        if entry.owner == proc:
            prev_state = entry.state
            entry.reset()
            bus = self.bus
            if bus is not None and bus.wants_dir:
                bus.emit(
                    obs.DirTransitionEvent(
                        now,
                        home_node,
                        line_addr,
                        prev_state,
                        entry.state,
                        proc,
                    )
                )

    def _drop_clean(self, proc: int, victim: CacheLine) -> None:
        """Replacement hint: remove a clean victim from the sharer set."""
        entry = self.home_of(victim.line_addr).peek(victim.line_addr)
        if entry is not None:
            entry.sharer_mask &= ~(1 << proc)
            if not entry.sharer_mask and entry.state is DirState.SHARED:
                entry.state = DirState.UNCACHED

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def flush_caches(self, merge_spec_state: bool = False, now: float = 0.0) -> None:
        """Empty all caches and directories (cold start between loop
        executions, paper §5.2).  Untimed.

        When ``merge_spec_state`` is set, dirty lines first merge their
        access-bit tag state into the directories, so the speculation
        state survives the flush.
        """
        for proc, hierarchy in enumerate(self.caches):
            dirty = hierarchy.flush()
            if merge_spec_state and self.hooks is not None:
                for line in dirty:
                    self.hooks.on_writeback(proc, line, now)
        for directory in self.directories:
            directory.reset_all()
        for buf in self.write_buffers:
            self._pending_clear(buf)

    @staticmethod
    def _pending_clear(buf: _WriteBuffer) -> None:
        buf._pending.clear()
