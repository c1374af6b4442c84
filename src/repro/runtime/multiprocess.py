"""Multi-process backend: real OS processes, queues, and a server process.

The strongest form of protocol validation this package offers: workers are
``multiprocessing`` processes, the parameter server is its own process
hosting the one :class:`repro.ps.store.ParameterStore` (version, staleness,
apply) over the live shared-memory backing, and every pull/push/notify
*control* message crosses a real OS pipe.  A server that raises reports
the exception in its stats reply; the run re-raises it by name once every
child is joined and every segment unlinked.  The SpecSync scheduler runs
in the parent (exactly the centralized architecture of paper Fig. 7).
Each worker process runs the shared loop
(:class:`repro.runtime.worker.Worker`) over two closures on its queues and
stores; a re-sync crosses the fork as ``[for_iteration, peer_pushes]`` in a
lock-free ``ctx.Array("q", 2)``, then the abort event.

Array payloads do not travel the queues: the backend splits control plane
from data plane.  Parameters live in a fenced shared-memory store
(:class:`repro.ps.shm.ShmParamStore`) that the server alone writes and
workers snapshot directly; each worker pushes its gradient through its own
shared-memory slot.  The queues carry only small tagged tuples, so the
server's wire-tag stream (and its replay through the protocol model) is
unchanged while the per-iteration pickle cost is gone — the zero-copy
store the ROADMAP's "make the hot paths actually fast" item called for,
certified by the ``BUF-*`` ownership lint pack.

Scaled-down timing (milliseconds per virtual second) keeps a full run under
a couple of wall seconds.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import queue as queue_module
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.cluster.compute import ComputeTimeModel
from repro.core.tuning import HyperparamTuner
from repro.ml.datasets.base import Partition
from repro.ml.models.base import Model
from repro.ml.optim import SgdUpdateRule
from repro.obs.clock import FunctionClock
from repro.obs.core import tracer_for
from repro.obs.live.ring import NULL_RING_WRITER, RingWriter
from repro.obs.live.session import (
    PARENT_SOURCE,
    SERVER_SOURCE,
    LiveTelemetrySession,
    worker_source,
)
from repro.obs.log import get_logger
from repro.ps.shm import ShmParamStore
from repro.ps.store import ParameterStore
from repro.obs.tracks import RT_RUN_TRACK, RT_SCHEDULER_TRACK, RT_SERVER_TRACK
from repro.runtime.worker import Worker, signal_resync
from repro.utils.rng import RngStreams

__all__ = [
    "MultiprocessRun",
    "MultiprocessRunResult",
]

_POLL_S = 0.02

#: Announcement every live ring writer of this backend sends.  Fork
#: children share the parent's CLOCK_MONOTONIC, so their timestamps need
#: no alignment.
_LIVE_META = json.dumps({"backend": "multiprocess"})


def _queue_depth(q) -> int:
    """Best-effort ``qsize`` (-1 where the platform has no sem_getvalue)."""
    try:
        return q.qsize()
    except (NotImplementedError, OSError):  # pragma: no cover - macOS
        return -1

#: All queues in this backend are created unbounded in ``run()``, so a
#: ``put`` never blocks in practice; the explicit timeout turns the
#: impossible-but-catastrophic case (a corrupted queue feeder) into a loud
#: ``queue.Full`` instead of a silent hang.
_PUT_TIMEOUT_S = 10.0

# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
def _server_main(param_store, grad_stores, update_rule, request_queue,
                 response_queues, stats_reply_queue, server_stop,
                 wire_queue=None, live_ring=None):  # pragma: no cover - separate process
    """Host the one :class:`ParameterStore` until stopped.  An exception
    ends the loop and goes out as the stats reply, as a worker's does."""
    # The server is the parameter store's single writer, so the store may
    # update the live backing in place under the write fence and read it
    # without one; workers only ever see fenced read() snapshots.
    params = param_store.backing()
    store = ParameterStore(params, update_rule)
    # Live telemetry exporter: the ring was created by the parent and
    # inherited across fork; the server is its single writer.
    writer = (
        RingWriter(live_ring, SERVER_SOURCE, time.monotonic,
                   meta_json=_LIVE_META)
        if live_ring is not None else NULL_RING_WRITER
    )
    message_bytes = params.num_elements * 8
    try:
        while not server_stop.is_set():
            try:
                message = request_queue.get(timeout=_POLL_S)
            except queue_module.Empty:
                continue
            received = writer.now() if writer.enabled else 0.0
            kind = message[0]
            if kind == "pull":
                _, worker_id = message
                if wire_queue is not None:
                    # Mirror the wire tag in processing order, for replay
                    # through the protocol model (trace conformance).
                    wire_queue.put(("pull", worker_id), timeout=_PUT_TIMEOUT_S)
                # Zero-copy pull: no reply — the worker snapshots the fenced
                # shared-memory store directly.  The pull message is control
                # plane only, kept so the server-visible wire trace (and the
                # protocol shape the model replays) stays intact.
                if writer.enabled:
                    writer.sample(
                        "rt.msg.pull.latency_s", writer.now() - received
                    )
                    writer.sample("rt.msg.pull.bytes", message_bytes)
                    depth = _queue_depth(request_queue)
                    if depth >= 0:
                        writer.gauge("rt.queue.request_depth", depth)
            elif kind == "push":
                _, worker_id, snapshot_version = message
                if wire_queue is not None:
                    wire_queue.put(("push", worker_id), timeout=_PUT_TIMEOUT_S)
                # The pushing worker blocks on this ack, so its gradient slot
                # is stable for the duration of the apply: the live backing
                # view (no copy, no pickle) is race-free by protocol.  The
                # fence version cross-checks that claim cheaply.
                grad_store = grad_stores[worker_id]
                if grad_store.version != snapshot_version:
                    raise RuntimeError(
                        f"gradient slot of worker {worker_id} is at fence "
                        f"version {grad_store.version}, push says "
                        f"{snapshot_version}; single-writer protocol violated"
                    )
                # The fence publishes the version the apply moves the store to.
                with param_store.write_fence(store.version + 1):
                    record = store.apply_push(
                        worker_id, grad_store.backing(), snapshot_version
                    )
                response_queues[worker_id].put(
                    ("ack", record.version_after), timeout=_PUT_TIMEOUT_S
                )
                if writer.enabled:
                    now = writer.now()
                    writer.span(RT_SERVER_TRACK, "apply", received, now)
                    writer.sample("rt.msg.push.latency_s", now - received)
                    writer.sample("rt.msg.push.bytes", message_bytes)
                    writer.count("rt.pushes")
                    writer.gauge(f"rt.staleness.w{worker_id}", record.staleness)
                    depth = _queue_depth(request_queue)
                    if depth >= 0:
                        writer.gauge("rt.queue.request_depth", depth)
            elif kind == "stats":
                # repro: allow[PERF-PICKLE-PAYLOAD] one-shot shutdown stats snapshot pickled by design — a single reply at teardown, not the per-iteration transfer the zero-copy shm store eliminated
                stats_reply_queue.put(
                    (store.version, store.mean_staleness(), params.copy(), None),
                    timeout=_PUT_TIMEOUT_S,
                )
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown server message {kind!r}")
    except Exception as exc:
        get_logger("runtime").exception("parameter server raised")
        stats_reply_queue.put((None, None, None, repr(exc)), timeout=_PUT_TIMEOUT_S)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(worker_id, model, partition, compute_model, batch_size,
                 time_scale, seed, param_store, grad_store, request_queue,
                 response_queue, notify_queue, abort_event, resync_slot,
                 stop_event, stats_queue, max_aborts_per_iteration,
                 live_ring=None):  # pragma: no cover - separate process
    """Build this process's store closures, run the shared loop, report."""
    streams = RngStreams(seed)
    # Live telemetry exporter: ring created by the parent pre-fork; this
    # worker process is its single writer.
    writer = (
        RingWriter(live_ring, worker_source(worker_id), time.monotonic,
                   meta_json=_LIVE_META)
        if live_ring is not None else NULL_RING_WRITER
    )

    def pull():
        # Control plane only: the tag keeps the server's wire trace (and
        # the pull-before-push protocol shape) intact; the payload is a
        # fenced shared-memory snapshot, not a pickled queue reply.
        request_queue.put(("pull", worker_id), timeout=_PUT_TIMEOUT_S)
        return param_store.read()

    def push(gradient, version):
        # Zero-copy push: the gradient travels through this worker's own
        # fenced shared-memory slot (stamped with the snapshot version the
        # server needs for staleness math); the queue carries only the
        # small control tuple.  A stop ends the wait for the ack, not the
        # push: the server applies it before it answers the stats request.
        grad_store.write(gradient, version)
        request_queue.put(("push", worker_id, version), timeout=_PUT_TIMEOUT_S)
        while not stop_event.is_set():
            try:
                kind, _version = response_queue.get(timeout=_POLL_S)
            except queue_module.Empty:
                continue
            assert kind == "ack"
            return

    worker = Worker(
        worker_id=worker_id,
        store=SimpleNamespace(pull=pull, push=push),
        model=model,
        partition=partition,
        compute_model=compute_model,
        batch_size=batch_size,
        time_scale=time_scale,
        batch_rng=streams.get("batch", worker_id),
        compute_rng=streams.get("compute", worker_id),
        stop_event=stop_event,
        abort_event=abort_event,
        resync_slot=resync_slot,
        notify=lambda *tagged: notify_queue.put(tagged, timeout=_PUT_TIMEOUT_S),
        max_aborts_per_iteration=max_aborts_per_iteration,
        recorder=writer,
    )
    worker.run()
    if writer.enabled:
        # Final fence statistics: the previously-invisible retry counts
        # of this worker's shared-memory mappings.
        for name, value in param_store.counters().items():
            writer.count(f"shm.param.{name}", value)
        for name, value in grad_store.counters().items():
            writer.count(f"shm.grad.{name}", value)
    stats_queue.put(
        (worker_id, worker.iterations, worker.aborts,
         repr(worker.error) if worker.error is not None else None),
        timeout=_PUT_TIMEOUT_S,
    )


@dataclass
class MultiprocessRunResult:
    """Counters collected from the process fleet."""

    total_iterations: int
    total_aborts: int
    mean_staleness: float
    final_loss: float
    resyncs_sent: int
    epochs_tuned: int
    wall_time_s: float
    per_worker_iterations: Dict[int, int]
    #: The server's wire-tag stream in processing order — ``("pull", w)``
    #: / ``("push", w)`` — when the run recorded one (``record_wire_trace``);
    #: replayable through the protocol model via
    #: :func:`repro.analysis.model.replay_wire_trace`.
    wire_trace: Optional[List[Tuple[str, int]]] = None


class MultiprocessRun:
    """Wire up and run a multi-process cluster for a wall-clock duration."""

    def __init__(
        self,
        model: Model,
        partitions: List[Partition],
        eval_batch,
        update_rule: SgdUpdateRule,
        compute_model: ComputeTimeModel,
        batch_size: int = 32,
        time_scale: float = 0.005,
        tuner: Optional[HyperparamTuner] = None,
        seed: int = 0,
        max_aborts_per_iteration: int = 1,
        record_wire_trace: bool = False,
        live_session: Optional[LiveTelemetrySession] = None,
    ):
        if not partitions:
            raise ValueError("need at least one partition/worker")
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        if max_aborts_per_iteration < 0:
            raise ValueError("max_aborts_per_iteration must be >= 0")
        if live_session is not None and live_session.num_workers < len(partitions):
            raise ValueError(
                f"live session has rings for {live_session.num_workers} "
                f"workers but the run needs {len(partitions)}"
            )
        self.model = model
        self.partitions = partitions
        self.eval_batch = eval_batch
        self.update_rule = update_rule
        self.compute_model = compute_model
        self.batch_size = batch_size
        self.time_scale = time_scale
        self.tuner = tuner
        self.seed = seed
        self.max_aborts_per_iteration = max_aborts_per_iteration
        self.record_wire_trace = record_wire_trace
        #: Borrowed, not owned: the caller that created the session (the
        #: CLI, a test) polls its aggregator and unlinks the rings — the
        #: run only writes into them.  SPSC discipline: this class never
        #: drains a ring itself.
        self.live_session = live_session

    def run(self, duration_s: float = 1.0) -> MultiprocessRunResult:
        """Spawn server + workers, run for ``duration_s`` wall seconds."""
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        ctx = mp.get_context("fork")
        num_workers = len(self.partitions)
        # Parent-side observability only: child processes have no access to
        # the collector (no shared memory), so the parent traces what it can
        # see — the notify stream, scheduler decisions, and abort signals.
        tracer = tracer_for(FunctionClock(time.monotonic))
        log = get_logger("runtime")

        request_queue = ctx.Queue()
        response_queues = [ctx.Queue() for _ in range(num_workers)]
        notify_queue = ctx.Queue()
        stats_queue = ctx.Queue()
        stop_event = ctx.Event()
        abort_events = [ctx.Event() for _ in range(num_workers)]
        # A re-sync's [for_iteration, peer_pushes], written before the
        # abort event is set (which orders the two): one writer, no lock.
        resync_slots = [
            ctx.Array("q", [-1, 0], lock=False) for _ in range(num_workers)
        ]

        streams = RngStreams(self.seed)
        initial_params = self.model.init_params(streams.get("init"))

        # Zero-copy data plane: one fenced shared-memory store for the
        # parameters (server writes, workers read) plus a per-worker
        # gradient slot (its worker writes, the server reads).  All
        # segments are created here and inherited across fork — no child
        # ever attaches, so the parent stays the single owner that
        # unlinks at shutdown.
        param_store = ShmParamStore.create(initial_params)
        grad_template = initial_params.zeros_like()
        grad_stores = [
            ShmParamStore.create(grad_template) for _ in range(num_workers)
        ]

        stats_reply_queue = ctx.Queue()
        server_stop = ctx.Event()
        wire_queue = ctx.Queue() if self.record_wire_trace else None
        # Live telemetry rings (if the caller wired a session) are
        # inherited across fork exactly like the parameter segments; the
        # parent's own exporter writes scheduler/run-level records.
        live = self.live_session
        live_writer = (
            RingWriter(live.parent_ring, PARENT_SOURCE, time.monotonic,
                       meta_json=_LIVE_META)
            if live is not None else NULL_RING_WRITER
        )
        server = ctx.Process(
            target=_server_main,
            args=(param_store, grad_stores, self.update_rule, request_queue,
                  response_queues, stats_reply_queue, server_stop,
                  wire_queue, live.server_ring if live else None),
            daemon=True,
        )
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(i, self.model, self.partitions[i], self.compute_model,
                      self.batch_size, self.time_scale, self.seed,
                      param_store, grad_stores[i], request_queue,
                      response_queues[i], notify_queue,
                      abort_events[i], resync_slots[i], stop_event, stats_queue,
                      self.max_aborts_per_iteration,
                      live.worker_ring(i) if live else None),
                daemon=True,
            )
            for i in range(num_workers)
        ]

        # The scheduler runs in the parent on wall-clock timers, exactly
        # like the threaded backend (same SpecSyncScheduler class).
        scheduler = None
        if self.tuner is not None:
            from repro.runtime.threaded import _ThreadSafeScheduler

            def send_resync(worker_id: int, iteration: int, peer_pushes: int) -> None:
                signal_resync(
                    tracer, worker_id, iteration, peer_pushes,
                    resync_slots[worker_id], abort_events[worker_id],
                )

            scheduler = _ThreadSafeScheduler(
                num_workers=num_workers,
                tuner=self.tuner,
                send_resync=send_resync,
                tracer=tracer,
            )

        log.info(
            "multiprocess run: %d workers for %.3gs wall",
            num_workers, duration_s,
        )
        started = time.monotonic()
        with tracer.measure(RT_RUN_TRACK, "run"):
            server.start()
            started_workers: List[mp.process.BaseProcess] = []
            try:
                for worker in workers:
                    worker.start()
                    started_workers.append(worker)

                # Drain notify messages into the scheduler until the clock
                # runs out.
                deadline = started + duration_s
                while time.monotonic() < deadline:
                    try:
                        worker_id, iteration = notify_queue.get(
                            timeout=min(
                                _POLL_S, max(deadline - time.monotonic(), 1e-4)
                            )
                        )
                    except queue_module.Empty:
                        continue
                    if tracer.enabled:
                        tracer.count("rt.notifies_drained")
                    if live_writer.enabled:
                        live_writer.count("rt.notifies_drained")
                        depth = _queue_depth(notify_queue)
                        if depth >= 0:
                            live_writer.gauge("rt.queue.notify_depth", depth)
                    if scheduler is not None:
                        scheduler.handle_notify(worker_id, iteration)

                stop_event.set()
                for event in abort_events:
                    event.set()  # release in-flight waits

                per_worker: Dict[int, int] = {}
                total_aborts = 0
                errors: List[str] = []
                with tracer.measure(RT_SCHEDULER_TRACK, "collect_stats"):
                    for _ in range(num_workers):
                        worker_id, iterations, aborts, error = stats_queue.get(
                            timeout=10.0
                        )
                        per_worker[worker_id] = iterations
                        total_aborts += aborts
                        if error is not None:
                            errors.append(f"worker {worker_id} raised {error}")

                    for worker in workers:
                        worker.join(timeout=10.0)

                    # Final server snapshot, then shut the server down (the
                    # server keeps serving after worker stop so late pushes
                    # and this request drain).
                    request_queue.put(("stats",))
                    version, mean_staleness, final_params, error = (
                        stats_reply_queue.get(timeout=10.0)
                    )
                    if error is not None:
                        errors.append(f"parameter server raised {error}")
            finally:
                # Idempotent on the clean path (joining a finished process
                # is a no-op).  On an exception path — a worker dying
                # before reporting stats, a stats_queue timeout — this is
                # what keeps the child processes from being abandoned with
                # stop_event never set: before this block a stats timeout
                # leaked the server and every worker still alive.
                stop_event.set()
                for event in abort_events:
                    event.set()
                for worker in started_workers:
                    worker.join(timeout=10.0)
                server_stop.set()
                server.join(timeout=10.0)
                try:
                    if scheduler is not None:
                        scheduler.close()  # re-raises a callback's exception
                finally:
                    # Children are joined (or timed out as daemons): the
                    # parent, as single owner, unmaps and frees every
                    # shared-memory segment.
                    for store in (param_store, *grad_stores):
                        store.close()
                        store.unlink()
        wall = time.monotonic() - started
        if errors:
            raise RuntimeError("; ".join(errors))
        if live_writer.enabled:
            # The run container span anchors the drained trace's time
            # window to the same bracket the parent's conventional
            # ``rt.run`` span covers, so post-hoc analyses of the two
            # captures agree on total wall time.
            live_writer.span(RT_RUN_TRACK, "run", started, started + wall)

        wire_trace: Optional[List[Tuple[str, int]]] = None
        if wire_queue is not None:
            wire_trace = []
            while True:
                try:
                    wire_trace.append(wire_queue.get_nowait())
                except queue_module.Empty:
                    break

        inner = scheduler.inner if scheduler is not None else None
        return MultiprocessRunResult(
            total_iterations=version,
            total_aborts=total_aborts,
            mean_staleness=mean_staleness,
            final_loss=self.model.loss(final_params, self.eval_batch),
            resyncs_sent=inner.resyncs_sent if inner else 0,
            epochs_tuned=inner.epochs_completed if inner else 0,
            wall_time_s=wall,
            per_worker_iterations=per_worker,
            wire_trace=wire_trace,
        )
