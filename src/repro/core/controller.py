"""Speculation controller: arming, failure recording, and abort.

The controller is the single point where a FAIL from any protocol check
lands.  The first failure wins; it is recorded with its detection time
so the evaluation can show how quickly the hardware scheme catches a
serial loop (paper §6.2).  The simulation engine polls
:attr:`SpeculationController.failed` before every processor event, which
models "execution stops [...] as soon as a cross-iteration data
dependence occurs" — each processor aborts at its next cycle.
"""

from __future__ import annotations

from typing import List, Optional

from .. import obs
from ..errors import SpeculationFailure


class SpeculationController:
    """Tracks whether speculation is armed and whether it has failed."""

    def __init__(self) -> None:
        self.armed = False
        self.failure: Optional[SpeculationFailure] = None
        self.history: List[SpeculationFailure] = []
        #: telemetry bus (repro.obs.EventBus); None keeps emission free
        self.bus = None

    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        return self.failure is not None

    def arm(self) -> None:
        """Start a speculative loop execution (clears any old failure)."""
        self.armed = True
        self.failure = None

    def disarm(self) -> None:
        self.armed = False

    def fail(
        self,
        reason: str,
        element: "tuple[str, int] | None" = None,
        detected_at: "float | None" = None,
        iteration: "int | None" = None,
        processor: "int | None" = None,
    ) -> None:
        """Record a FAIL.  Only the first failure is kept as *the* failure
        (later ones from in-flight messages are appended to history)."""
        if not self.armed:
            return
        failure = SpeculationFailure(
            reason,
            element=element,
            detected_at=int(detected_at) if detected_at is not None else None,
            iteration=iteration,
            processor=processor,
        )
        self.history.append(failure)
        if self.failure is None:
            self.failure = failure
        if self.bus is not None and self.bus.active:
            self.bus.emit(
                obs.FailureEvent(
                    detected_at if detected_at is not None else 0.0,
                    reason,
                    element=element,
                    proc=processor,
                    iteration=iteration,
                )
            )

    def check(self) -> None:
        """Raise the recorded failure, if any."""
        if self.failure is not None:
            raise self.failure
