"""The worker's protocol state, written once.

SpecSync's worker is one loop — pull → abortable compute → push → notify —
and a re-sync is honoured only while the iteration it was decided for is
still computing (paper Algorithm 2, worker lines 5-7; Section IV-A's "too
late").  :class:`WorkerLoop` is that state and nothing else: no clock, no
I/O, no thread.  Its drivers supply those: the DES engine from callbacks
(``ps.engine.WorkerRuntime`` is one), ``runtime.worker.Worker`` by blocking.
"""

from __future__ import annotations

import enum

__all__ = ["Phase", "WorkerLoop"]


class Phase(enum.Enum):
    """Where a worker is inside (or between) iterations."""

    IDLE = "idle"  # between iterations, or parked at a BSP/SSP gate
    PULLING = "pulling"  # first pull of the iteration, or a restart's
    COMPUTING = "computing"  # the abortable compute window
    PUSHING = "pushing"  # gradient on its way; no longer abortable


IDLE, PULLING, COMPUTING, PUSHING = Phase  # a global load each on the DES hot path


class WorkerLoop:
    """One worker's iteration counter, phase and abort budget.

    ``begin → pulled → computed → acked`` walks one iteration.  An input in
    the wrong phase is a driver bug and raises ``RuntimeError``, the state
    untouched; a re-sync in the wrong phase is refused, not raised.
    """

    def __init__(self, max_aborts_per_iteration: int = 1) -> None:
        self.max_aborts_per_iteration = max_aborts_per_iteration
        self.phase = IDLE
        self.iteration = 0  # index of the in-progress (or next) iteration
        self.aborts = 0
        self.aborts_in_iteration = 0

    def _step(self, expected: Phase, after: Phase, name: str) -> None:
        if self.phase is not expected:
            raise RuntimeError(f"{name}() needs phase {expected.name}, worker is "
                               f"{self.phase.name} in iteration {self.iteration}")
        self.phase = after

    def begin(self) -> None:
        """Iteration ``iteration`` starts: its first pull is being issued."""
        self._step(IDLE, PULLING, "begin")
        self.aborts_in_iteration = 0

    def pulled(self) -> None:
        """A snapshot arrived; the abortable compute starts."""
        self._step(PULLING, COMPUTING, "pulled")

    def resync(self, for_iteration: int) -> bool:
        """Honour a re-sync decided for ``for_iteration``?  True aborts the
        compute: the driver re-pulls and restarts the same batch.  False is
        too late (not computing, another iteration, budget spent), nothing
        changed — ``_abort_eligible`` of :mod:`repro.analysis.model.specsync`."""
        if (
            self.phase is not COMPUTING
            or self.iteration != for_iteration
            or self.aborts_in_iteration >= self.max_aborts_per_iteration
        ):
            return False
        self.aborts += 1
        self.aborts_in_iteration += 1
        self.phase = PULLING
        return True

    def computed(self) -> None:
        """The compute ran to its end; the gradient is pushed next."""
        self._step(COMPUTING, PUSHING, "computed")

    def acked(self) -> int:
        """The push was applied.  Returns the next iteration's index: the
        tag the ``notify`` carries and a re-sync must match."""
        self._step(PUSHING, IDLE, "acked")
        self.iteration += 1
        return self.iteration
