"""Cache line with per-word speculation state.

A line holds the usual tag/state pair plus the *access bits* of
Figure 10-(a): for every word of the line that belongs to an array
under test, a small per-element state object (owned by
:mod:`repro.core.accessbits`).  The memory system treats those objects
opaquely; only the speculation engine reads or writes them, and a line
allocates its table only when the engine stores the first one.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..types import LineState


class CacheLine:
    """One cache line: base address, coherence state, access bits."""

    __slots__ = ("line_addr", "state", "spec_bits")

    def __init__(self, line_addr: int, state: LineState) -> None:
        self.line_addr = line_addr
        self.state = state
        # word offset within the line -> per-element access-bit object;
        # None until a speculation hook stores the line's first bit
        # (most lines never hold a word under test).
        self.spec_bits: Optional[Dict[int, object]] = None

    @property
    def dirty(self) -> bool:
        return self.state is LineState.DIRTY

    def get_bits(self, offset: int) -> Optional[object]:
        spec_bits = self.spec_bits
        return None if spec_bits is None else spec_bits.get(offset)

    def set_bits(self, offset: int, bits: object) -> None:
        self.bits_table()[offset] = bits

    def bits_table(self) -> Dict[int, object]:
        """The line's access-bit table, allocated on first use."""
        spec_bits = self.spec_bits
        if spec_bits is None:
            spec_bits = self.spec_bits = {}
        return spec_bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CacheLine({self.line_addr:#x}, {self.state.value})"
