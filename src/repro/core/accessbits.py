"""Per-element speculation state (the "access bits" of Figure 5).

Two physical homes exist for this state:

* **cache-tag side** — small objects attached to cache lines (one per
  word belonging to an array under test); see Figure 10-(a).  These are
  ``NonPrivTagBits`` for the non-privatization algorithm and
  ``PrivTagBits`` for both privatization variants.
* **directory side** — dense tables in a dedicated memory next to each
  directory (Figure 10-(c)); see :class:`NonPrivDirTable`,
  :class:`PrivSharedDirTable`, :class:`PrivPrivateDirTable` and
  :class:`PrivSimpleSharedTable`.

The paper stresses (Fig 5 caption) that a *single* set of hardware bits
is used differently depending on the algorithm; we keep the structures
separate for clarity but report their hardware widths so the state-cost
comparison of §3.4 can be reproduced (see :func:`state_bits_per_element`).
"""

from __future__ import annotations

import math
from typing import Optional

from ..types import FirstState

#: Directory-side encoding of "no processor has touched this element".
NO_PROC = -1

#: Privatization time-stamp value meaning "no write seen yet" (MinW = +inf).
NO_ITER = 0


# ----------------------------------------------------------------------
# Cache-tag side
# ----------------------------------------------------------------------
class NonPrivTagBits:
    """Tag state for one element under the non-privatization algorithm.

    ``first`` is the 2-bit summary of the directory's First field
    (OWN / OTHER / NONE); ``priv`` is the paper's NoShr/Priv bit;
    ``ronly`` the ROnly bit.  4 bits of hardware per element.
    """

    __slots__ = ("first", "priv", "ronly")

    def __init__(
        self,
        first: FirstState = FirstState.NONE,
        priv: bool = False,
        ronly: bool = False,
    ) -> None:
        self.first = first
        self.priv = priv
        self.ronly = ronly

    def copy(self) -> "NonPrivTagBits":
        return NonPrivTagBits(self.first, self.priv, self.ronly)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NonPrivTagBits(first={self.first.value}, priv={self.priv}, ronly={self.ronly})"


class PrivTagBits:
    """Tag state for one element under the privatization algorithms.

    ``read1st`` / ``write`` are the two per-iteration bits of §3.3.
    They must be cleared at the start of every iteration; rather than
    walking the cache, the hardware uses an address-qualified reset line
    (§4.1).  We model that with ``epoch``: the bits are valid only when
    ``epoch`` equals the processor's current (virtual) iteration number,
    otherwise they read as zero.
    """

    __slots__ = ("read1st", "write", "epoch")

    def __init__(self, read1st: bool = False, write: bool = False, epoch: int = -1):
        self.read1st = read1st
        self.write = write
        self.epoch = epoch

    def valid_for(self, iteration: int) -> bool:
        return self.epoch == iteration

    def get(self, iteration: int) -> "tuple[bool, bool]":
        """Return (read1st, write) as seen in iteration ``iteration``."""
        if self.epoch == iteration:
            return self.read1st, self.write
        return False, False

    def set_for(self, iteration: int, read1st: bool = False, write: bool = False):
        """Set bits, implicitly clearing stale state from older iterations."""
        if self.epoch != iteration:
            self.read1st = False
            self.write = False
            self.epoch = iteration
        self.read1st = self.read1st or read1st
        self.write = self.write or write

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrivTagBits(r1st={self.read1st}, w={self.write}, epoch={self.epoch})"


# ----------------------------------------------------------------------
# Directory side — dense per-array tables (the dedicated access-bit
# memory of Figure 10-(c)), one Python list per field: the protocols
# read and write one element at a time.
# ----------------------------------------------------------------------
class NonPrivDirTable:
    """Directory state for one array under the non-privatization test.

    Per element: ``first`` (full processor ID, NO_PROC when unset),
    ``priv`` (NoShr) and ``ronly`` bits.
    """

    def __init__(self, length: int) -> None:
        self.length = length
        self.first = [NO_PROC] * length
        self.priv = [False] * length
        self.ronly = [False] * length

    def clear(self) -> None:
        length = self.length
        self.first[:] = [NO_PROC] * length
        self.priv[:] = [False] * length
        self.ronly[:] = [False] * length

    def tag_view(self, index: int, proc: int) -> NonPrivTagBits:
        """The 2-bit First summary a cache of ``proc`` receives on a fill."""
        owner = self.first[index]
        if owner == NO_PROC:
            first = FirstState.NONE
        elif owner == proc:
            first = FirstState.OWN
        else:
            first = FirstState.OTHER
        return NonPrivTagBits(first, self.priv[index], self.ronly[index])


class PrivSharedDirTable:
    """Shared-array directory state for the full privatization test.

    Per element: ``max_r1st`` — highest read-first iteration executed so
    far by any processor; ``min_w`` — lowest iteration that wrote the
    element so far (NO_ITER meaning "none yet", compared as +infinity).
    Also tracks the latest write (iteration, processor) for copy-out.
    """

    def __init__(self, length: int) -> None:
        self.length = length
        self.max_r1st = [0] * length
        self.min_w = [NO_ITER] * length
        self.last_w_iter = [0] * length
        self.last_w_epoch = [0] * length
        self.last_w_proc = [NO_PROC] * length
        #: §3.3 time-stamp overflow: set at an epoch synchronization for
        #: elements written in an earlier epoch; any later read-first of
        #: such an element FAILs conservatively.
        self.written_past = [False] * length

    def clear(self) -> None:
        length = self.length
        self.max_r1st[:] = [0] * length
        self.min_w[:] = [NO_ITER] * length
        self.last_w_iter[:] = [0] * length
        self.last_w_epoch[:] = [0] * length
        self.last_w_proc[:] = [NO_PROC] * length
        self.written_past[:] = [False] * length

    def epoch_reset(self) -> None:
        """Start a new time-stamp epoch: effective iteration numbers
        restart from zero; writes from the past stay visible only
        through the sticky ``written_past`` bit."""
        self.written_past[:] = [
            past or min_w != NO_ITER
            for past, min_w in zip(self.written_past, self.min_w)
        ]
        self.max_r1st[:] = [0] * self.length
        self.min_w[:] = [NO_ITER] * self.length

    def min_w_of(self, index: int) -> Optional[int]:
        value = self.min_w[index]
        return None if value == NO_ITER else value

    def note_write(self, index: int, iteration: int, proc: int,
                   epoch: int = 0) -> None:
        current = self.min_w[index]
        if current == NO_ITER or iteration < current:
            self.min_w[index] = iteration
        key = (epoch, iteration)
        if key >= (self.last_w_epoch[index], self.last_w_iter[index]):
            self.last_w_epoch[index] = epoch
            self.last_w_iter[index] = iteration
            self.last_w_proc[index] = proc

    def note_read_first(self, index: int, iteration: int) -> None:
        if iteration > self.max_r1st[index]:
            self.max_r1st[index] = iteration

    def last_writers(self, num_processors: int) -> "list[list[int]]":
        """Per processor, the elements whose latest write it made (the
        copy-out sets of §2.2.3), in element order."""
        out: "list[list[int]]" = [[] for _ in range(num_processors)]
        for index, proc in enumerate(self.last_w_proc):
            if proc != NO_PROC:
                out[proc].append(index)
        return out


class PrivPrivateDirTable:
    """Private-copy directory state for one (array, processor) pair.

    Per element: ``pmax_r1st`` — highest read-first iteration executed
    so far by this processor; ``pmax_w`` — highest iteration executed so
    far by this processor that wrote the element (0 = never written,
    which doubles as the "very first write in the whole loop" test of
    Fig 9-(g)/(h)).
    """

    def __init__(self, length: int) -> None:
        self.length = length
        self.pmax_r1st = [0] * length
        self.pmax_w = [0] * length

    def clear(self) -> None:
        self.pmax_r1st[:] = [0] * self.length
        self.pmax_w[:] = [0] * self.length

    def line_untouched(self, first: int, count: int) -> bool:
        """True when no element of the line was ever accessed (read-in
        trigger of Fig 8-(c): ``PMaxR1st == PMaxW == 0`` for the whole
        memory line)."""
        end = first + count
        return not (any(self.pmax_r1st[first:end]) or any(self.pmax_w[first:end]))


class PrivSimplePrivateTable:
    """Private-side state for the reduced privatization variant (§4.1).

    One ``Read1st`` and one ``Write`` bit per element, cleared each
    iteration (epoch-encoded like the tags), plus a sticky ``WriteAny``
    bit that is never cleared during the loop.
    """

    def __init__(self, length: int) -> None:
        self.length = length
        self.read1st = [False] * length
        self.write = [False] * length
        self.epoch = [-1] * length
        self.write_any = [False] * length

    def clear(self) -> None:
        length = self.length
        self.read1st[:] = [False] * length
        self.write[:] = [False] * length
        self.epoch[:] = [-1] * length
        self.write_any[:] = [False] * length

    def get(self, index: int, iteration: int) -> "tuple[bool, bool]":
        if self.epoch[index] == iteration:
            return self.read1st[index], self.write[index]
        return False, False

    def set_for(self, index: int, iteration: int, read1st: bool = False, write: bool = False) -> None:
        if self.epoch[index] != iteration:
            self.read1st[index] = False
            self.write[index] = False
            self.epoch[index] = iteration
        if read1st:
            self.read1st[index] = True
        if write:
            self.write[index] = True
            self.write_any[index] = True


class PrivSimpleSharedTable:
    """Shared-side state for the reduced privatization variant.

    Two sticky bits per element: ``any_r1st`` (some iteration read the
    element before writing it) and ``any_w`` (some iteration wrote it).
    The test fails as soon as both would be set — without read-in, a
    read-first of an ever-written element cannot be given privatized
    semantics.
    """

    def __init__(self, length: int) -> None:
        self.length = length
        self.any_r1st = [False] * length
        self.any_w = [False] * length

    def clear(self) -> None:
        self.any_r1st[:] = [False] * self.length
        self.any_w[:] = [False] * self.length


# ----------------------------------------------------------------------
# State-cost accounting (paper §3.4)
# ----------------------------------------------------------------------
def state_bits_per_element(
    num_processors: int,
    max_iterations: int,
    read_in_supported: bool,
) -> "dict[str, int]":
    """Hardware/software state per array element, in bits (§3.4).

    The hardware needs the maximum of what the non-privatization test
    requires (2 + log2(P) bits in the directory: First + NoShr + ROnly)
    and what the privatization test requires (2 time stamps if read-in
    is supported, 2 bits otherwise).  The software scheme needs 3 shadow
    time stamps per element (Ar/Aw/Anp), or 4 with ``Awmin`` when
    read-in is supported.
    """
    log_p = max(1, math.ceil(math.log2(max(2, num_processors))))
    ts = max(1, math.ceil(math.log2(max(2, max_iterations))))
    nonpriv_bits = 2 + log_p
    priv_bits = 2 * ts if read_in_supported else 2
    hw = max(nonpriv_bits, priv_bits)
    sw = (4 if read_in_supported else 3) * ts
    return {
        "hardware": hw,
        "software": sw,
        "nonpriv_dir_bits": nonpriv_bits,
        "priv_dir_bits": priv_bits,
        "timestamp_bits": ts,
    }


def tag_bits_per_element() -> "dict[str, int]":
    """Cache-tag state per element: 2 (First) + 1 (Priv) + 1 (ROnly)
    for the non-privatization test; 2 (Read1st/Write) for privatization."""
    return {"nonpriv": 4, "priv": 2}
