"""Access-recording array proxies for concrete loop bodies."""

from __future__ import annotations

from typing import Dict, List, MutableSequence

from ..trace.ops import AccessOp, read as read_op, write as write_op


class TraceRecorder:
    """Collects the access stream of one loop body invocation."""

    def __init__(self) -> None:
        self.ops: List[AccessOp] = []

    def record_read(self, array: str, index: int) -> None:
        self.ops.append(read_op(array, index))

    def record_write(self, array: str, index: int) -> None:
        self.ops.append(write_op(array, index))

    def take(self) -> List[AccessOp]:
        ops = self.ops
        self.ops = []
        return ops


class ArrayProxy:
    """Wraps a mutable sequence; element accesses are recorded and performed.

    Only scalar integer indexing is supported — the loop bodies under
    run-time parallelization are exactly the ``A(K(i))`` subscripted-
    subscript kind, which index one element at a time.
    """

    def __init__(self, name: str, data: MutableSequence, recorder: TraceRecorder):
        self.name = name
        self.data = data
        self._recorder = recorder

    def __len__(self) -> int:
        return len(self.data)

    def _index(self, index) -> int:
        i = int(index)
        if not 0 <= i < len(self.data):
            raise IndexError(f"{self.name}[{i}] out of range 0..{len(self.data) - 1}")
        return i

    def __getitem__(self, index):
        i = self._index(index)
        self._recorder.record_read(self.name, i)
        return self.data[i]

    def __setitem__(self, index, value) -> None:
        i = self._index(index)
        self._recorder.record_write(self.name, i)
        self.data[i] = value


def make_proxies(
    arrays: Dict[str, MutableSequence], recorder: TraceRecorder
) -> Dict[str, ArrayProxy]:
    return {name: ArrayProxy(name, data, recorder) for name, data in arrays.items()}
