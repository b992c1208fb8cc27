"""Concrete (value-level) speculative loop execution.

The simulator proper works on address traces; this package closes the
loop on *semantics*: it takes real arrays (any mutable sequence: a
list, an ``array.array``, ...) and a Python loop body, traces the
body's accesses, runs the traced loop through the simulated hardware
scheme, and then produces the actual result arrays — via the
speculative parallel execution when the test passes, or via restore +
serial re-execution when it fails.  Either way the results provably
equal serial execution, which is the correctness contract of the
paper's scheme (and is property-tested in the test suite).
"""

from .arrays import ArrayProxy, TraceRecorder
from .executor import ConcreteLoop, ConcreteOutcome, speculative_run

__all__ = [
    "ArrayProxy",
    "ConcreteLoop",
    "ConcreteOutcome",
    "TraceRecorder",
    "speculative_run",
]
