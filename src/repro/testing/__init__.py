"""Test-support tooling shipped with the package.

The residents are the kernel verdict oracle
(:mod:`repro.testing.vector_oracle`), which evaluates the paper's FAIL
conditions as whole-loop set computations, and the differential
conformance harness (:mod:`repro.testing.diffcheck`), which holds the
scalar engine's verdicts and failure elements to that oracle on
randomized workloads.  Neither imports numpy.  They live in the package (not under ``tests/``)
so a failing seed can be replayed from any checkout with::

    python -m repro.testing.diffcheck --seed 12345
"""

__all__ = [
    "CaseSpec",
    "DiffMismatch",
    "build_case",
    "check_seed",
    "conformance_signature",
    "run_case",
]


def __getattr__(name):
    # Lazy re-export: keeps ``python -m repro.testing.diffcheck`` from
    # double-importing the submodule (runpy warns about that).
    if name in __all__:
        from . import diffcheck

        return getattr(diffcheck, name)
    raise AttributeError(name)
