"""Abstract operations that make up a loop iteration.

Three kinds of operation exist:

* :class:`ComputeOp` — pure computation, costs a number of cycles and
  never touches the memory system.
* :class:`AccessOp` — a read or write of one element of a *declared
  array*; it flows through the simulated cache hierarchy and, for arrays
  under test, through the speculation protocols.
* :class:`LocalOp` — a read or write of iteration-private data (scalars,
  stack); it is modeled as a primary-cache hit and exists so workloads
  can carry a realistic ratio of marked to unmarked references.
"""

from __future__ import annotations

import dataclasses

from ..types import AccessKind


# ComputeOp and AccessOp are built per simulated access.  They are
# slotted, and their __init__ stores through the slot descriptors
# (bound below the classes) instead of the generated frozen __init__'s
# object.__setattr__ calls: about half the time, and a third less
# memory per op than a dict-backed instance.


@dataclasses.dataclass(frozen=True, slots=True)
class ComputeOp:
    """Pure computation worth ``cycles`` processor cycles."""

    cycles: int

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError("compute cycles must be non-negative")
        _set_cycles(self, cycles)


@dataclasses.dataclass(frozen=True, slots=True)
class AccessOp:
    """A read or write of ``array[index]``."""

    kind: AccessKind
    array: str
    index: int

    def __init__(self, kind: AccessKind, array: str, index: int) -> None:
        _set_kind(self, kind)
        _set_array(self, array)
        _set_index(self, index)

    @property
    def is_read(self) -> bool:
        return self.kind is AccessKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE


_set_cycles = ComputeOp.cycles.__set__
_set_kind = AccessOp.kind.__set__
_set_array = AccessOp.array.__set__
_set_index = AccessOp.index.__set__


@dataclasses.dataclass(frozen=True)
class LocalOp:
    """An access to iteration-private memory (always an L1 hit)."""

    kind: AccessKind


Op = object  # union of ComputeOp | AccessOp | LocalOp; kept loose for speed


def read(array: str, index: int) -> AccessOp:
    """Shorthand constructor for a read access."""
    return AccessOp(AccessKind.READ, array, index)


def write(array: str, index: int) -> AccessOp:
    """Shorthand constructor for a write access."""
    return AccessOp(AccessKind.WRITE, array, index)


def compute(cycles: int) -> ComputeOp:
    """Shorthand constructor for pure computation."""
    return ComputeOp(cycles)


def local(kind: AccessKind = AccessKind.READ) -> LocalOp:
    """Shorthand constructor for a private-data access."""
    return LocalOp(kind)
