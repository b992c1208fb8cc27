"""Address space management: arrays, layout, and NUMA home assignment.

The simulator works on physical addresses.  An :class:`AddressSpace`
allocates :class:`ArrayDecl` regions page-aligned, and assigns each page
a home node.  Shared workload data uses round-robin page placement
(paper §5.2: "the pages of workload data are allocated round-robin
across the different memory modules"); private per-processor structures
(privatized copies, software shadow arrays) are placed entirely in the
owning processor's local node.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Dict, Iterator, List, Optional

from .errors import AddressError, ConfigurationError
from .types import ProtocolKind


@dataclasses.dataclass(frozen=True)
class ArrayDecl:
    """One allocated array region.

    Attributes:
        name: unique identifier (e.g. ``"A"`` or ``"A.priv.3"``).
        base: physical base address, page aligned.
        length: number of elements.
        elem_bytes: bytes per element (the paper's workloads use 4, 8 or
            16-byte elements).
        protocol: which dependence-test protocol the array is under, or
            ``PLAIN`` for ordinary data.
        home_policy: ``"round_robin"`` or ``"local"``.
        local_node: home node for every page when ``home_policy`` is
            ``"local"``.
    """

    name: str
    base: int
    length: int
    elem_bytes: int
    protocol: ProtocolKind = ProtocolKind.PLAIN
    home_policy: str = "round_robin"
    local_node: int = 0

    @property
    def size_bytes(self) -> int:
        return self.length * self.elem_bytes

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size_bytes

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def addr_of(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise AddressError(f"{self.name}[{index}] out of range 0..{self.length - 1}")
        return self.base + index * self.elem_bytes

    def index_of(self, addr: int) -> int:
        if not self.contains(addr):
            raise AddressError(f"address {addr:#x} outside array {self.name}")
        return (addr - self.base) // self.elem_bytes

    def element_addresses(self) -> Iterator[int]:
        for i in range(self.length):
            yield self.base + i * self.elem_bytes


class AddressSpace:
    """Allocates arrays and resolves addresses to arrays and home nodes."""

    def __init__(self, num_nodes: int, page_bytes: int = 4096, line_bytes: int = 64):
        if num_nodes < 1:
            raise ConfigurationError("need at least one node")
        self.num_nodes = num_nodes
        self.page_bytes = page_bytes
        self.line_bytes = line_bytes
        self._next_base = page_bytes  # keep address 0 unused
        self._arrays: Dict[str, ArrayDecl] = {}
        self._sorted: List[ArrayDecl] = []
        self._bases: List[int] = []
        # page number -> home node; pages are immutable once allocated,
        # so entries never go stale.
        self._home_cache: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(
        self,
        name: str,
        length: int,
        elem_bytes: int = 8,
        protocol: ProtocolKind = ProtocolKind.PLAIN,
        home_policy: str = "round_robin",
        local_node: int = 0,
    ) -> ArrayDecl:
        """Allocate a new page-aligned array region."""
        if name in self._arrays:
            raise ConfigurationError(f"array {name!r} already allocated")
        if length < 1:
            raise ConfigurationError(f"array {name!r} needs length >= 1")
        if elem_bytes < 1:
            raise ConfigurationError(
                f"element size {elem_bytes} must be >= 1"
            )
        if elem_bytes > self.line_bytes and elem_bytes % self.line_bytes:
            # A wide element spans whole lines; a partial tail line
            # would break every line-granular walker's geometry.
            raise ConfigurationError(
                f"element size {elem_bytes} wider than a line must be a "
                f"multiple of the line size {self.line_bytes}"
            )
        if home_policy not in ("round_robin", "local"):
            raise ConfigurationError(f"unknown home policy {home_policy!r}")
        if not 0 <= local_node < self.num_nodes:
            raise ConfigurationError(f"local node {local_node} out of range")
        decl = ArrayDecl(
            name=name,
            base=self._next_base,
            length=length,
            elem_bytes=elem_bytes,
            protocol=protocol,
            home_policy=home_policy,
            local_node=local_node,
        )
        size = decl.size_bytes
        pages = -(-size // self.page_bytes)  # ceil
        self._next_base += pages * self.page_bytes
        self._arrays[name] = decl
        self._sorted.append(decl)
        self._bases.append(decl.base)
        return decl

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def array(self, name: str) -> ArrayDecl:
        try:
            return self._arrays[name]
        except KeyError:
            raise AddressError(f"no array named {name!r}") from None

    def arrays(self) -> List[ArrayDecl]:
        return list(self._sorted)

    def arrays_under_test(self) -> List[ArrayDecl]:
        return [a for a in self._sorted if a.protocol is not ProtocolKind.PLAIN]

    def find(self, addr: int) -> Optional[ArrayDecl]:
        """Return the array containing ``addr``, or None.

        This is the software analogue of the hardware address-range
        comparator of §4.1 (see :mod:`repro.core.translation` for the
        modeled hardware structure).
        """
        pos = bisect.bisect_right(self._bases, addr) - 1
        if pos < 0:
            return None
        decl = self._sorted[pos]
        return decl if addr < decl.end else None

    # ------------------------------------------------------------------
    # NUMA geometry
    # ------------------------------------------------------------------
    def page_of(self, addr: int) -> int:
        return addr // self.page_bytes

    def line_addr(self, addr: int) -> int:
        """Align an address down to its cache-line base."""
        return addr - (addr % self.line_bytes)

    def home_node(self, addr: int) -> int:
        """Home node of the page holding ``addr``.

        Round-robin by page number for shared data; fixed node for
        ``local`` arrays.  Addresses outside any array (none should
        occur in practice) fall back to round-robin.
        """
        page = addr // self.page_bytes
        node = self._home_cache.get(page)
        if node is not None:
            return node
        decl = self.find(addr)
        if decl is not None and decl.home_policy == "local":
            node = decl.local_node
        else:
            node = page % self.num_nodes
        self._home_cache[page] = node
        return node
