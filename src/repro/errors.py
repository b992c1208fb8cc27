"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause.
``SpeculationFailure`` is *not* an error in the usual sense — it is the
signal, defined by the paper, that the speculative parallel execution of
a loop detected a cross-iteration dependence and must be aborted.  It is
an exception because the hardware aborts execution at the instant of
detection, which maps naturally onto stack unwinding.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A machine, loop, or protocol was configured inconsistently."""


class AddressError(ReproError):
    """An address fell outside every declared array or overlapped one."""


class ProtocolError(ReproError):
    """The coherence or speculation protocol reached an impossible state.

    Raised only on internal invariant violations; seeing this exception
    indicates a bug in the simulator, never a property of the workload.
    """


class SchedulingError(ConfigurationError):
    """An iteration schedule violated a protocol's scheduling constraint.

    For example, the non-privatization protocol requires each processor to
    execute its iterations in increasing order (paper §4.1), and the
    processor-wise software test requires static chunks of contiguous
    iterations (paper §2.2.3).  An impossible schedule is a configuration
    error, raised when the ``ScheduleSpec`` or ``RunConfig`` is built.
    """


class SpeculationFailure(ReproError):
    """A cross-iteration dependence was detected during speculation.

    Carries enough context to report *when* and *where* the parallel
    execution was aborted — the hardware scheme's headline advantage is
    that this happens as soon as the dependence occurs (paper §3.1).

    Attributes:
        reason: human-readable description of the failing protocol check.
        element: the (array name, element index) that triggered the
            failure, when known.
        detected_at: simulated cycle at which the FAIL was raised.
        iteration: loop iteration being executed by the faulting
            processor, when known.
        processor: ID of the processor whose access triggered the FAIL.
    """

    def __init__(
        self,
        reason: str,
        element: "tuple[str, int] | None" = None,
        detected_at: "int | None" = None,
        iteration: "int | None" = None,
        processor: "int | None" = None,
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.element = element
        self.detected_at = detected_at
        self.iteration = iteration
        self.processor = processor

    def __reduce__(self):
        # Default exception pickling keeps only ``args`` (the reason);
        # results cross process boundaries in the experiment pool, so
        # the full failure attribution must survive a pickle round-trip.
        return (
            type(self),
            (
                self.reason,
                self.element,
                self.detected_at,
                self.iteration,
                self.processor,
            ),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.reason]
        if self.element is not None:
            parts.append(f"element={self.element[0]}[{self.element[1]}]")
        if self.iteration is not None:
            parts.append(f"iteration={self.iteration}")
        if self.processor is not None:
            parts.append(f"processor={self.processor}")
        if self.detected_at is not None:
            parts.append(f"cycle={self.detected_at}")
        return " ".join(parts)
