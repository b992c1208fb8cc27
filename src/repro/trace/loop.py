"""Loop representation: declared arrays plus an iteration stream."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError
from ..types import AccessKind, ProtocolKind
from .ops import AccessOp, ComputeOp, LocalOp


@dataclasses.dataclass(frozen=True)
class ArraySpec:
    """Declaration of one array a loop touches.

    Attributes:
        name: unique name within the loop.
        length: number of elements.
        elem_bytes: element size in bytes (4, 8 or 16 in the paper's
            workloads).
        protocol: dependence-test protocol for the hardware scheme, or
            ``PLAIN`` when the compiler fully analyzed the array.  For
            the software scheme, ``PRIV``/``PRIV_SIMPLE`` means the
            array is speculatively privatized, ``NONPRIV`` means it is
            tested without privatization.
        modified: whether the loop may write the array (only modified
            shared arrays need backup, §2.2.1).
        live_out: whether values written to a privatized array are used
            after the loop (requires copy-out, §2.2.3).
    """

    name: str
    length: int
    elem_bytes: int = 8
    protocol: ProtocolKind = ProtocolKind.PLAIN
    modified: bool = True
    live_out: bool = False

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ConfigurationError(f"array {self.name!r} needs length >= 1")
        if self.elem_bytes not in (1, 2, 4, 8, 16, 32):
            raise ConfigurationError(
                f"array {self.name!r}: unsupported element size {self.elem_bytes}"
            )

    @property
    def under_test(self) -> bool:
        return self.protocol is not ProtocolKind.PLAIN

    @property
    def privatized(self) -> bool:
        return self.protocol in (ProtocolKind.PRIV, ProtocolKind.PRIV_SIMPLE)


@dataclasses.dataclass
class LoopStats:
    """Static summary of one loop execution's access stream."""

    iterations: int = 0
    reads: int = 0
    writes: int = 0
    marked_reads: int = 0
    marked_writes: int = 0
    local_accesses: int = 0
    compute_cycles: int = 0
    footprint_bytes: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def marked_fraction(self) -> float:
        total = self.accesses
        return (self.marked_reads + self.marked_writes) / total if total else 0.0


class Loop:
    """One loop execution: array declarations plus iterations of ops.

    Iterations are numbered from 1, matching the paper's time-stamp
    convention (``MinW`` is initialized above any real iteration and
    time stamps compare against iteration numbers, so 0 is reserved for
    "never").
    """

    def __init__(
        self,
        name: str,
        arrays: Sequence[ArraySpec],
        iterations: Sequence[Sequence[object]],
        iteration_weights: Optional[Sequence[int]] = None,
    ) -> None:
        if not iterations:
            raise ConfigurationError(f"loop {name!r} has no iterations")
        names = [a.name for a in arrays]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"loop {name!r} declares duplicate array names")
        self.name = name
        self.arrays: Tuple[ArraySpec, ...] = tuple(arrays)
        self.iterations: List[List[object]] = [list(it) for it in iterations]
        self._by_name: Dict[str, ArraySpec] = {a.name: a for a in self.arrays}
        self._validate()
        if iteration_weights is not None and len(iteration_weights) != len(
            self.iterations
        ):
            raise ConfigurationError("iteration_weights length mismatch")
        self.iteration_weights = (
            list(iteration_weights) if iteration_weights is not None else None
        )

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        # Exact classes, as the processor dispatches (repro.sim.processor):
        # an op subclass or a non-int index is rejected here, not mid-run.
        by_name = self._by_name
        for it_no, ops in enumerate(self.iterations, start=1):
            for op in ops:
                cls = op.__class__
                if cls is AccessOp:
                    spec = by_name.get(op.array)
                    if spec is None:
                        raise ConfigurationError(
                            f"loop {self.name!r} iteration {it_no} touches "
                            f"undeclared array {op.array!r}"
                        )
                    index = op.index
                    if type(index) is not int:
                        raise ConfigurationError(
                            f"loop {self.name!r}: {op.array}[{index!r}] index "
                            f"is a {type(index).__name__}, not an int"
                        )
                    if not 0 <= index < spec.length:
                        raise ConfigurationError(
                            f"loop {self.name!r}: {op.array}[{index}] out of "
                            f"bounds (length {spec.length})"
                        )
                    if op.kind is AccessKind.WRITE and not spec.modified:
                        raise ConfigurationError(
                            f"loop {self.name!r} writes read-only array {op.array!r}"
                        )
                elif cls is not ComputeOp and cls is not LocalOp:
                    raise ConfigurationError(
                        f"loop {self.name!r}: unknown op type {cls.__name__} "
                        "(the engine runs exactly AccessOp, ComputeOp and LocalOp)"
                    )

    # ------------------------------------------------------------------
    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    def array(self, name: str) -> ArraySpec:
        return self._by_name[name]

    def arrays_under_test(self) -> List[ArraySpec]:
        return [a for a in self.arrays if a.under_test]

    def modified_arrays(self) -> List[ArraySpec]:
        """Arrays that need backup before speculation (§2.2.1).

        Read-only arrays never need saving.  Privatized arrays are
        written only through private copies during speculation, so the
        shared image stays intact and they need no backup either — the
        paper notes "read-only and privatized arrays need not be saved".
        """
        return [a for a in self.arrays if a.modified and not a.privatized]

    def written_elements(self, array: str) -> Set[int]:
        """All element indices of ``array`` written anywhere in the loop."""
        out: Set[int] = set()
        for ops in self.iterations:
            for op in ops:
                if isinstance(op, AccessOp) and op.is_write and op.array == array:
                    out.add(op.index)
        return out

    def stats(self) -> LoopStats:
        s = LoopStats(iterations=self.num_iterations)
        for ops in self.iterations:
            for op in ops:
                if isinstance(op, AccessOp):
                    marked = self._by_name[op.array].under_test
                    if op.is_read:
                        s.reads += 1
                        s.marked_reads += marked
                    else:
                        s.writes += 1
                        s.marked_writes += marked
                elif isinstance(op, ComputeOp):
                    s.compute_cycles += op.cycles
                elif isinstance(op, LocalOp):
                    s.local_accesses += 1
        s.footprint_bytes = sum(a.length * a.elem_bytes for a in self.arrays)
        return s

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Loop({self.name!r}, iterations={self.num_iterations}, "
            f"arrays={[a.name for a in self.arrays]})"
        )
