"""Threaded workers + shared store + SpecSync scheduler on wall-clock time.

Concurrency structure:

* ``ThreadedParameterServer`` — the one :class:`repro.ps.store.ParameterStore`
  (version, staleness, apply) under a lock, plus wall-clock pull/push
  instrumentation (MXNet's per-key atomic apply collapses to one lock here
  because every update touches all keys).
* :class:`repro.runtime.worker.Worker` — the shared wall-clock driver of
  the protocol machine (:class:`repro.ps.loop.WorkerLoop`), one thread each,
  handed the server above as its store, ``threading`` events, a two-slot
  list for the re-sync tag, a ``handle_notify`` call and the wall tracer.
* ``SpecSyncScheduler`` from :mod:`repro.core.scheduler`, adapted with a
  lock and one scheduler thread over a heap of ``(deadline, seq, fn)``
  checks (``_ThreadSafeScheduler`` has the wake, lazy-start and
  close/raise rules) — the identical Algorithm 1/2 logic runs on real time.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.cluster.compute import ComputeTimeModel
from repro.core.scheduler import SpecSyncScheduler
from repro.core.tuning import HyperparamTuner
from repro.ml.datasets.base import Partition
from repro.ml.models.base import Model
from repro.ml.optim import SgdUpdateRule
from repro.ml.params import ParamSet
from repro.obs.clock import FunctionClock
from repro.obs.core import NULL_TRACER, NullTracer, Tracer
from repro.obs.core import tracer_for
from repro.obs.log import get_logger
from repro.obs.tracks import RT_RUN_TRACK, RT_SCHEDULER_TRACK, RT_SERVER_TRACK
from repro.ps.store import ParameterStore, PullSnapshot
from repro.runtime.worker import Worker, signal_resync
from repro.utils.rng import RngStreams

TracerLike = Union[Tracer, NullTracer]

__all__ = [
    "ThreadedParameterServer",
    "ThreadedRun",
    "ThreadedRunResult",
]


class ThreadedParameterServer:
    """A :class:`ParameterStore` behind a lock, timed on the wall clock."""

    def __init__(
        self,
        initial_params: ParamSet,
        update_rule: SgdUpdateRule,
        tracer: Optional[TracerLike] = None,
    ):
        self._store = ParameterStore(initial_params.copy(), update_rule)
        self._lock = threading.Lock()
        self.tracer: TracerLike = tracer if tracer is not None else NULL_TRACER
        #: Payload size a pull snapshot / push gradient moves (float64).
        #: The comms instrumentation the socket backend will inherit:
        #: per-message-kind byte histograms alongside the latencies.
        self.message_bytes = initial_params.num_elements * 8

    def pull(self) -> PullSnapshot:
        """A consistent snapshot and its version."""
        tracer = self.tracer
        started = time.monotonic() if tracer.enabled else 0.0
        with tracer.measure(RT_SERVER_TRACK, "pull"):
            with self._lock:
                snapshot = self._store.snapshot()
        if tracer.enabled:
            tracer.observe("rt.msg.pull.latency_s", time.monotonic() - started)
            tracer.observe("rt.msg.pull.bytes", self.message_bytes)
        return snapshot

    def push(self, gradient: ParamSet, snapshot_version: int) -> int:
        """Apply one gradient; returns the staleness it experienced."""
        tracer = self.tracer
        started = time.monotonic() if tracer.enabled else 0.0
        with tracer.measure(RT_SERVER_TRACK, "push"):
            with self._lock:
                # The loop's push names no sender, and the record stays here.
                staleness = self._store.apply_push(-1, gradient, snapshot_version).staleness
        if tracer.enabled:
            tracer.count("rt.pushes")
            tracer.observe("rt.staleness", staleness)
            tracer.observe("rt.msg.push.latency_s", time.monotonic() - started)
            tracer.observe("rt.msg.push.bytes", self.message_bytes)
        return staleness

    @property
    def version(self) -> int:
        with self._lock:
            return self._store.version

    def mean_staleness(self) -> float:
        """Average staleness over all applied pushes."""
        with self._lock:
            return self._store.mean_staleness()


class _ThreadSafeScheduler:
    """Lock + deadline heap putting :class:`SpecSyncScheduler` on wall time.

    One scheduler thread serves every pending check.  ``_schedule`` pushes
    ``(deadline, seq, fn)`` under ``_lock`` and wakes the thread only when
    the new entry became the earliest; the thread runs every due callback
    under ``_lock``, then sleeps until the next deadline or a wake.  The
    thread starts lazily, on the first scheduled callback, so an adapter
    that is built and dropped without a run costs no thread.

    A callback that raises is logged and the thread keeps serving later
    deadlines; :meth:`close` re-raises the first such exception once the
    thread is joined, so the run fails loudly instead of one check short.
    """

    def __init__(
        self,
        num_workers: int,
        tuner: HyperparamTuner,
        send_resync,
        tracer: Optional[TracerLike] = None,
    ):
        self._lock = threading.RLock()
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0  # tie-break: equal deadlines fire in schedule order
        self._wake = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._error: Optional[Exception] = None
        self.inner = SpecSyncScheduler(
            num_workers=num_workers,
            tuner=tuner,
            schedule_fn=self._schedule,
            now_fn=time.monotonic,
            send_resync_fn=send_resync,
            # Wall-clock tracer + the runtime scheduler track: the identical
            # Algorithm 2 logic reports on the wall-time domain here.
            tracer=tracer,
            self_track=RT_SCHEDULER_TRACK,
        )

    def _schedule(self, delay: float, fn) -> None:
        with self._lock:
            if self._closed:
                return
            entry = (time.monotonic() + delay, self._seq, fn)
            self._seq += 1
            heapq.heappush(self._heap, entry)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._serve, args=(self._wake,),
                    name="specsync-scheduler", daemon=True,
                )
                self._thread.start()
            elif self._heap[0] is entry:
                # The thread sleeps towards a later deadline (or none).
                self._wake.set()

    def _serve(self, wake) -> None:
        """Scheduler-thread body: fire due callbacks, sleep to the next."""
        while True:
            with self._lock:
                # Cleared under the lock every wake-up is set under, so a
                # deadline pushed after this point re-arms the event.
                wake.clear()
                # close() empties the heap, also from inside a callback.
                while self._heap and self._heap[0][0] <= time.monotonic():
                    fn = heapq.heappop(self._heap)[2]
                    try:
                        fn()
                    except Exception as exc:
                        get_logger("runtime").exception(
                            "scheduler callback raised; close() re-raises"
                        )
                        if self._error is None:
                            self._error = exc
                if self._closed:
                    return
                timeout = (
                    self._heap[0][0] - time.monotonic() if self._heap else None
                )
            wake.wait(timeout)

    def handle_notify(self, worker_id: int, iteration: int) -> None:
        with self._lock:
            if not self._closed:
                self.inner.handle_notify(worker_id, iteration)

    def close(self) -> None:
        """Mark closed, drop every pending callback, join the thread.

        Idempotent, and safe from inside a callback (the scheduler thread
        does not join itself; it exits when the callback returns).  Nothing
        fires once this returns.  Re-raises, once, the first exception a
        scheduled callback raised.
        """
        with self._lock:
            self._closed = True
            self._heap.clear()
            self._wake.set()
            thread = self._thread
            # Final: callbacks run under this lock and none starts after it.
            error, self._error = self._error, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        if error is not None:
            raise error


@dataclass
class ThreadedRunResult:
    """Counters from one threaded run."""

    total_iterations: int
    total_aborts: int
    mean_staleness: float
    final_loss: float
    resyncs_sent: int
    epochs_tuned: int
    wall_time_s: float


class ThreadedRun:
    """Wire up and run a threaded cluster for a wall-clock duration."""

    def __init__(
        self,
        model: Model,
        partitions: List[Partition],
        eval_batch,
        update_rule: SgdUpdateRule,
        compute_model: ComputeTimeModel,
        batch_size: int = 32,
        time_scale: float = 0.001,  # 1 virtual second -> 1 ms wall
        tuner: Optional[HyperparamTuner] = None,
        seed: int = 0,
        max_aborts_per_iteration: int = 1,
    ):
        if not partitions:
            raise ValueError("need at least one partition/worker")
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        if max_aborts_per_iteration < 0:
            raise ValueError("max_aborts_per_iteration must be >= 0")
        streams = RngStreams(seed)
        self.model = model
        self.eval_batch = eval_batch
        # Wall-clock tracer: the runtime is the only layer allowed to read
        # real time, so it injects the clock into the (clock-agnostic) obs
        # layer here.  The shared no-op when observability is disabled.
        self.tracer = tracer_for(FunctionClock(time.monotonic))
        self._log = get_logger("runtime")
        self.server = ThreadedParameterServer(
            model.init_params(streams.get("init")), update_rule,
            tracer=self.tracer,
        )
        self.stop_event = threading.Event()

        self.scheduler: Optional[_ThreadSafeScheduler] = None
        if tuner is not None:
            self.scheduler = _ThreadSafeScheduler(
                num_workers=len(partitions),
                tuner=tuner,
                send_resync=self._send_resync,
                tracer=self.tracer,
            )

        self.workers = [
            Worker(
                worker_id=i,
                store=self.server,
                model=model,
                partition=partition,
                compute_model=compute_model,
                batch_size=batch_size,
                time_scale=time_scale,
                batch_rng=streams.get("batch", i),
                compute_rng=streams.get("compute", i),
                stop_event=self.stop_event,
                abort_event=threading.Event(),
                resync_slot=[-1, 0],
                notify=self._notify,
                max_aborts_per_iteration=max_aborts_per_iteration,
                recorder=self.tracer,
            )
            for i, partition in enumerate(partitions)
        ]

    def _notify(self, worker_id: int, iteration: int) -> None:
        if self.scheduler is not None:
            self.scheduler.handle_notify(worker_id, iteration)

    def _send_resync(self, worker_id: int, iteration: int, peer_pushes: int) -> None:
        worker = self.workers[worker_id]
        signal_resync(
            self.tracer, worker_id, iteration, peer_pushes,
            worker.resync_slot, worker.abort_event,
        )

    def run(self, duration_s: float = 0.5) -> ThreadedRunResult:
        """Run all workers for ``duration_s`` wall seconds, then stop.

        Worker joins and scheduler close happen in a ``finally`` so that a
        raising thread ``start()`` (or an interrupt during the sleep)
        cannot leak running threads past this call.  A worker's loop that
        raised is re-raised once every thread is joined, the scheduler closed.
        """
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        self._log.info(
            "threaded run: %d workers for %.3gs wall",
            len(self.workers), duration_s,
        )
        started = time.monotonic()
        with self.tracer.measure(RT_RUN_TRACK, "run"):
            # Joining only the started threads matters: if a start() in the
            # middle of the loop raises, joining a never-started thread
            # would itself raise and mask the original error.
            started_threads: List[threading.Thread] = []
            try:
                for worker in self.workers:
                    thread = threading.Thread(
                        target=worker.run, name=f"worker-{worker.worker_id}",
                        daemon=True,
                    )
                    thread.start()
                    started_threads.append(thread)
                time.sleep(duration_s)
            finally:
                self.stop_event.set()
                for worker in self.workers:
                    worker.abort_event.set()  # release any in-flight waits
                for thread in started_threads:
                    thread.join(timeout=5.0)
                if self.scheduler is not None:
                    self.scheduler.close()
        wall = time.monotonic() - started
        for worker in self.workers:
            if worker.error is not None:
                raise worker.error

        final_params, _ = self.server.pull()
        inner = self.scheduler.inner if self.scheduler is not None else None
        return ThreadedRunResult(
            total_iterations=sum(w.iterations for w in self.workers),
            total_aborts=sum(w.aborts for w in self.workers),
            mean_staleness=self.server.mean_staleness(),
            final_loss=self.model.loss(final_params, self.eval_batch),
            resyncs_sent=inner.resyncs_sent if inner else 0,
            epochs_tuned=inner.epochs_completed if inner else 0,
            wall_time_s=wall,
        )
