"""The one wall-clock worker loop, for threads and forked processes alike.

:class:`Worker` drives :class:`repro.ps.loop.WorkerLoop` by blocking: pull,
wait out the sampled compute duration on an abort flag, evaluate the
gradient on the pulled snapshot, push, notify.  What carries it is handed
in: a ``store`` (``pull() -> (params, version)``, ``push(gradient,
version)``), the stop and abort flags, a ``notify`` callable and a
recorder: a ``Tracer`` on the run's collector (threads) or on the
process's ring collector (forked processes), or ``NULL_TRACER``.  A
re-sync arrives as the abort flag plus a two-slot record
``[for_iteration, peer_pushes]`` that :func:`signal_resync` fills
*before* setting the flag; the woken worker clears the flag, reads the
record and lets the machine decide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, MutableSequence, Optional

import numpy as np

from repro.cluster.compute import ComputeTimeModel
from repro.ml.datasets.base import Partition
from repro.ml.models.base import Model
from repro.obs.core import NULL_TRACER
from repro.obs.log import get_logger
from repro.obs.tracks import resync_flow_key, rt_worker_track
from repro.ps.loop import WorkerLoop

__all__ = ["Worker", "signal_resync"]


def signal_resync(tracer, worker_id: int, iteration: int, peer_pushes: int,
                  resync_slot: MutableSequence[int], abort_event) -> None:
    """Scheduler side of the abort signal: tag and count, then the flag."""
    if tracer.enabled:
        # The flow the scheduler staged lands on the worker's track, now.
        track = rt_worker_track(worker_id)
        tracer.flow_end(resync_flow_key(worker_id, iteration), track)
        tracer.instant(
            track, "resync_signal", cat="abort",
            args={"worker": worker_id, "peer_pushes": peer_pushes},
        )
    resync_slot[0] = iteration
    resync_slot[1] = peer_pushes
    abort_event.set()


@dataclass(eq=False)
class Worker:
    """One training worker: the blocking driver of a :class:`WorkerLoop`."""

    worker_id: int
    store: Any
    model: Model
    partition: Partition
    compute_model: ComputeTimeModel
    batch_size: int
    time_scale: float
    batch_rng: np.random.Generator
    compute_rng: np.random.Generator
    stop_event: Any
    abort_event: Any
    resync_slot: MutableSequence[int]
    notify: Callable[[int, int], None]
    max_aborts_per_iteration: int = 1
    recorder: Any = NULL_TRACER
    #: What ended :meth:`run` early; the backend re-raises it after joining.
    error: Optional[Exception] = field(default=None, init=False)

    def __post_init__(self) -> None:
        self.loop = WorkerLoop(self.max_aborts_per_iteration)

    @property
    def iterations(self) -> int:
        """Iterations completed (pushed and acknowledged)."""
        return self.loop.iteration

    @property
    def aborts(self) -> int:
        """Re-syncs honoured."""
        return self.loop.aborts

    def run(self) -> None:
        """Iterate until the stop flag is set.  An exception ends the loop
        and is kept in :attr:`error`; the counters stay readable."""
        try:
            loop, recorder, now = self.loop, self.recorder, time.monotonic
            track = rt_worker_track(self.worker_id)
            while not self.stop_event.is_set():
                started = now()
                batch = self.partition.sample_batch(self.batch_rng, self.batch_size)
                loop.begin()
                while True:  # one pass per (re)start of the same batch
                    pull_started = now()
                    snapshot, version = self.store.pull()
                    compute_started = now()
                    recorder.span(track, "pull", pull_started, compute_started)
                    loop.pulled()
                    duration = self.compute_model.sample(self.compute_rng) * self.time_scale
                    deadline = compute_started + duration
                    aborted = False
                    while not aborted and self.abort_event.wait(deadline - now()):
                        self.abort_event.clear()
                        if self.stop_event.is_set():
                            return
                        # Honoured only for the iteration it was decided for and
                        # within budget (Algorithm 2, worker lines 5-7); refused,
                        # the wait resumes towards the same deadline.
                        aborted = loop.resync(self.resync_slot[0])
                    ended = now()
                    # An aborted wait is still compute time spent — the abort
                    # instant carries how much of it was wasted.
                    recorder.span(track, "compute", compute_started, ended, cat="compute")
                    if not aborted:
                        break
                    recorder.instant(
                        track, "abort", ended, cat="abort",
                        args={"worker": self.worker_id,
                              "wasted_s": round(ended - compute_started, 9),
                              "peer_pushes": self.resync_slot[1]},
                    )
                    recorder.count("rt.aborts")
                loop.computed()
                gradient = self.model.gradient(snapshot, batch)
                push_started = now()
                self.store.push(gradient, version)
                recorder.span(track, "push", push_started, now())
                # Alive into the next iteration, these make the allocator fault
                # in fresh pages for its copies (+20 us a push, measured).
                del snapshot, gradient, batch
                self.notify(self.worker_id, loop.acked())
                recorder.span(track, "iteration", started, now(), cat="iteration")
        except Exception as exc:
            get_logger("runtime").exception("worker %d raised", self.worker_id)
            self.error = exc
