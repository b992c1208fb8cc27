"""Loop and access-trace representation.

A loop is represented as a sequence of iterations, each iteration being
a list of abstract operations (:class:`ComputeOp`, :class:`AccessOp`,
:class:`LocalOp`) over declared arrays.  This mirrors how the paper's
execution-driven simulator consumed references from instrumented
binaries; here the workload generators in :mod:`repro.workloads` produce
the streams directly.

The dependence oracle's names are re-exported lazily (PEP 562): only
tests and the model checker use it, so a simulation run never loads
:mod:`repro.trace.oracle`.
"""

import importlib

from .ops import AccessOp, ComputeOp, LocalOp, Op, read, write, compute, local
from .loop import ArraySpec, Loop, LoopStats

_ORACLE_NAMES = ("DependenceOracle", "DependenceReport", "Parallelism")

__all__ = [
    "AccessOp",
    "ComputeOp",
    "LocalOp",
    "Op",
    "read",
    "write",
    "compute",
    "local",
    "ArraySpec",
    "Loop",
    "LoopStats",
    "DependenceOracle",
    "DependenceReport",
    "Parallelism",
]


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".oracle", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORACLE_NAMES))
