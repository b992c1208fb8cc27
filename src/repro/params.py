"""Machine and cost-model parameters.

The defaults reproduce the architecture of the paper's §5.1: 200-MHz
RISC processors, a 32-KByte direct-mapped on-chip primary cache, a
512-KByte direct-mapped off-chip secondary cache, 64-byte lines, a
DASH-like invalidation protocol, per-node memory + directory, and
unloaded round-trip latencies of 1 / 12 / 60 / 208 / 291 cycles for the
primary cache, secondary cache, local memory, remote memory with 2 hops
and remote memory with 3 hops.  Contention is modeled in the whole
system except the global network, which is a constant latency — exactly
the abstraction the paper uses.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import ConfigurationError


def _require_non_negative(owner: object, *names: str) -> None:
    """Reject negative or non-finite values of the named fields."""
    for name in names:
        value = getattr(owner, name)
        if not (math.isfinite(value) and value >= 0):
            raise ConfigurationError(
                f"{type(owner).__name__}.{name} must be finite and >= 0, "
                f"got {value!r}"
            )


def _require_int(owner: object, *names: str, minimum: int = 0) -> None:
    """Reject named fields that are not ints (a bool is not one) or are
    below ``minimum``."""
    for name in names:
        value = getattr(owner, name)
        if type(value) is not int or value < minimum:
            raise ConfigurationError(
                f"{type(owner).__name__}.{name} must be an int >= {minimum}, "
                f"got {value!r}"
            )


@dataclasses.dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache.

    The paper's caches are direct-mapped (``ways=1``, the default);
    higher associativity is supported as an ablation axis (LRU within
    each set).
    """

    size_bytes: int
    line_bytes: int = 64
    ways: int = 1

    def __post_init__(self) -> None:
        _require_int(self, "size_bytes", "line_bytes", "ways", minimum=1)
        if self.size_bytes % self.line_bytes:
            raise ConfigurationError(
                f"cache size {self.size_bytes} not a multiple of the "
                f"line size {self.line_bytes}"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("line size must be a power of two")
        if self.num_lines % self.ways:
            raise ConfigurationError(
                f"{self.num_lines} lines not divisible into {self.ways}-way sets"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclasses.dataclass(frozen=True)
class LatencyTable:
    """Unloaded round-trip latencies, in processor cycles (paper §5.1).

    ``remote_2hop`` is a clean miss served by a remote home node
    (requester → home → requester).  ``remote_3hop`` adds a forward to a
    dirty third-party owner (requester → home → owner → requester).
    Queueing delays from contention are added on top of these.
    """

    l1_hit: int = 1
    l2_hit: int = 12
    local_mem: int = 60
    remote_2hop: int = 208
    remote_3hop: int = 291

    def __post_init__(self) -> None:
        _require_non_negative(
            self, "l1_hit", "l2_hit", "local_mem", "remote_2hop", "remote_3hop"
        )

    # Derived one-way quantities used to time protocol-only messages
    # (speculative state updates, invalidations, acknowledgements).  A
    # 2-hop round trip is two network traversals plus a directory+memory
    # access, so one network traversal costs roughly
    # (remote_2hop - local_mem) / 2.
    @property
    def network_one_way(self) -> int:
        return max(1, (self.remote_2hop - self.local_mem) // 2)

    @property
    def dirty_forward(self) -> int:
        """Extra cycles a 3-hop transaction adds over a 2-hop one."""
        return max(0, self.remote_3hop - self.remote_2hop)


@dataclasses.dataclass(frozen=True)
class ContentionModel:
    """Occupancy windows that create queueing delay.

    Every transaction that reaches a directory/memory module occupies it
    for ``directory_occupancy`` cycles; overlapping transactions queue.
    The secondary cache has a smaller occupancy.  The network itself is
    contention-free (constant latency), as in the paper.
    """

    directory_occupancy: int = 8
    l2_occupancy: int = 2
    enabled: bool = True
    #: Occupancy multiplier for the *speculative* protocol transactions
    #: (First_update, read-first signals, ...).  1.0 models the
    #: dedicated test logic of Fig 10; a software protocol processor
    #: handling those messages (the alternative Fig 10-(c) mentions)
    #: would be several times slower per message.
    spec_occupancy_factor: float = 1.0

    def __post_init__(self) -> None:
        _require_non_negative(
            self, "directory_occupancy", "l2_occupancy", "spec_occupancy_factor"
        )
        # Store an int factor as the float it equals: equal models must
        # render to the same provenance document, which is memoized on
        # equality (repro.obs.provenance).
        object.__setattr__(
            self, "spec_occupancy_factor", float(self.spec_occupancy_factor)
        )


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Instruction-level costs for the runtime schemes.

    These calibrate the *software* LRPD instrumentation (extra
    instructions per marked access, per-element analysis work) and the
    fixed overheads both schemes pay (system calls, backup copies).
    Values are processor cycles per event and follow the LRPD papers'
    published per-access overheads; they only need to be *relatively*
    right for the evaluation's shape to hold.
    """

    # Software scheme (§2.2): shadow bookkeeping around each access to an
    # array under test.  Each markread/markwrite also performs real
    # memory accesses to the shadow arrays (simulated through the cache
    # hierarchy); these constants cover only the arithmetic around them.
    sw_mark_read_instrs: int = 6
    sw_mark_write_instrs: int = 4
    sw_iter_end_instrs: int = 8          # per-iteration Atw accumulation
    sw_analysis_per_element: int = 3     # merge + analysis work per shadow elem
    sw_zero_per_element: int = 1         # shadow zero-out per elem
    sw_bitmap_word_elems: int = 64       # processor-wise test packs 64 elems/word

    # Both schemes: checkpointing of modifiable shared arrays.
    backup_per_element: int = 2          # plus the real copy memory traffic
    restore_per_element: int = 2
    copy_out_per_element: int = 2

    # Hardware scheme fixed overheads (§4.1): system calls to clear cache
    # tags / directory access bits and to load the address-range
    # comparator at loop entry.
    hw_loop_setup_cycles: int = 400
    hw_iter_tag_clear_cycles: int = 2    # address-qualified reset line

    # Loop scheduling overheads.
    sched_static_per_proc: int = 30
    sched_dynamic_per_grab: int = 24     # fetch&add on a shared counter
    barrier_base: int = 60
    barrier_per_proc: int = 14
    loop_iter_overhead: int = 4          # branch/induction update per iteration

    def __post_init__(self) -> None:
        # Every entry is a cycle or instruction count, and the
        # processor-wise test's bitmap word holds at least one element.
        _require_int(self, *(f.name for f in dataclasses.fields(self)))
        _require_int(self, "sw_bitmap_word_elems", minimum=1)


@dataclasses.dataclass(frozen=True)
class MachineParams:
    """Complete description of the simulated CC-NUMA machine."""

    num_processors: int = 16
    processors_per_node: int = 1
    l1: CacheGeometry = dataclasses.field(
        default_factory=lambda: CacheGeometry(32 * 1024)
    )
    l2: CacheGeometry = dataclasses.field(
        default_factory=lambda: CacheGeometry(512 * 1024)
    )
    latency: LatencyTable = dataclasses.field(default_factory=LatencyTable)
    contention: ContentionModel = dataclasses.field(default_factory=ContentionModel)
    cost: CostModel = dataclasses.field(default_factory=CostModel)
    page_bytes: int = 4096
    write_buffer_entries: int = 8

    def __post_init__(self) -> None:
        _require_int(
            self, "num_processors", "processors_per_node", "page_bytes",
            "write_buffer_entries", minimum=1,
        )
        if self.num_processors % self.processors_per_node:
            raise ConfigurationError(
                "num_processors must be a multiple of processors_per_node"
            )
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ConfigurationError("L1 and L2 must share a line size")
        if self.page_bytes % self.l1.line_bytes:
            raise ConfigurationError("page size must be a multiple of line size")

    @property
    def num_nodes(self) -> int:
        return self.num_processors // self.processors_per_node

    @property
    def line_bytes(self) -> int:
        return self.l1.line_bytes

    def node_of_processor(self, proc_id: int) -> int:
        return proc_id // self.processors_per_node

    def elems_per_line(self, elem_bytes: int) -> int:
        return elems_per_line(self.line_bytes, elem_bytes)


def elems_per_line(line_bytes: int, elem_bytes: int) -> int:
    """Array elements that fit in one cache line, never below one.

    An element wider than a line (``elem_bytes > line_bytes``) spans
    multiple lines; clamping to one keeps line-granular walkers and the
    access-bit geometry well-defined — each line maps to the single
    element it starts in.
    """
    return max(1, line_bytes // elem_bytes)


def default_params(num_processors: int = 16) -> MachineParams:
    """The paper's machine with a configurable processor count."""
    return MachineParams(num_processors=num_processors)


def small_test_params(num_processors: int = 4) -> MachineParams:
    """A tiny machine for unit tests: small caches force evictions."""
    return MachineParams(
        num_processors=num_processors,
        l1=CacheGeometry(1024, 64),
        l2=CacheGeometry(4096, 64),
        page_bytes=256,
    )
