"""The training engine: drives every worker through pull → compute → push.

This is the simulated counterpart of MXNet's distributed worker runtime.
Each worker loops:

1. ask the policy whether it may start (BSP/SSP gating) and how long to
   defer its pull (naïve waiting);
2. pull a parameter snapshot from the servers (a real network round trip on
   the virtual timeline);
3. compute a gradient for one mini-batch — the computation occupies
   ``ComputeTimeModel.sample()`` virtual seconds and can be **aborted** by a
   policy-requested re-sync, in which case the worker re-pulls and restarts
   (SpecSync's abort-and-refresh, paper Algorithm 2);
4. push the gradient; the store applies it at server-side delivery time
   using the snapshot's version for staleness accounting;
5. notify the policy and go to 1.

Gradients are evaluated numerically on the exact snapshot pulled, so every
staleness effect in the results is real SGD arithmetic, not a model.

Each worker's protocol state is a :class:`repro.ps.loop.WorkerLoop`, the one
machine the wall-clock backends also drive; this is its event-callback driver.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

import numpy as np

from repro.cluster.compute import ComputeTimeModel
from repro.cluster.spec import ClusterSpec
from repro.events import Simulator
from repro.metrics.convergence import ConvergenceCriterion
from repro.metrics.curves import EvalPoint, LossCurve
from repro.metrics.traces import TraceRecorder
from repro.ml.datasets.base import Partition
from repro.ml.models.base import Batch, Model
from repro.ml.optim import SgdUpdateRule
from repro.netsim.ledger import TransferLedger
from repro.netsim.messages import CONTROL_MESSAGE_BYTES, Message, MessageKind
from repro.netsim.network import LinkModel, Network
from repro.obs.clock import VirtualClock
from repro.obs.core import tracer_for
from repro.obs.log import VirtualTimeLoggerAdapter, get_logger
from repro.obs.tracks import SERVER_TRACK, resync_flow_key, worker_track
from repro.ps.loop import COMPUTING, WorkerLoop
from repro.ps.policy import SyncPolicy, WorkerView
from repro.ps.result import RunResult, WorkerStats
from repro.ps.store import ParameterStore, PullSnapshot
from repro.utils.rng import RngStreams

__all__ = ["EngineConfig", "WorkerRuntime", "TrainingEngine"]

SERVERS_NODE = "servers"
SCHEDULER_NODE = "scheduler"
#: Iterations a worker's mean iteration time is taken over.
SPAN_WINDOW = 20


@dataclass
class EngineConfig:
    """Knobs of one training run (independent of workload and scheme)."""

    batch_size: int
    horizon_s: float
    eval_interval_s: float
    param_wire_bytes: float
    grad_wire_bytes: Optional[float] = None  # default: same as params
    link: LinkModel = field(default_factory=LinkModel)
    #: opt-in NIC congestion: serialize each node's outgoing transfers
    #: (see Network.serialize_node_transfers); off for the calibrated
    #: experiments.
    serialize_node_transfers: bool = False
    num_shards: Optional[int] = None  # default: one shard per node
    max_aborts_per_iteration: int = 1
    record_accuracy: bool = False
    convergence: Optional[ConvergenceCriterion] = None  # early-stop when met
    max_total_iterations: Optional[int] = None

    def __post_init__(self):
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {self.horizon_s}")
        if self.eval_interval_s <= 0:
            raise ValueError(
                f"eval_interval_s must be positive, got {self.eval_interval_s}"
            )
        if self.param_wire_bytes < 0:
            raise ValueError("param_wire_bytes must be >= 0")
        if self.max_aborts_per_iteration < 0:
            raise ValueError("max_aborts_per_iteration must be >= 0")
        if self.num_shards is not None and self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")

    @property
    def push_wire_bytes(self) -> float:
        # repro: allow[BUF-RETURN-VIEW] grad_wire_bytes/param_wire_bytes are scalar wire-size settings that trip the arrayish name heuristic, not arrays
        return (
            self.grad_wire_bytes
            if self.grad_wire_bytes is not None
            else self.param_wire_bytes
        )


class WorkerRuntime(WorkerLoop):
    """Mutable per-worker state the engine drives: the protocol machine
    plus what the DES driver keeps around it."""

    def __init__(
        self,
        worker_id: int,
        node_name: str,
        partition: Partition,
        compute_model: ComputeTimeModel,
        batch_rng: np.random.Generator,
        compute_rng: np.random.Generator,
        max_aborts_per_iteration: int = 1,
    ):
        super().__init__(max_aborts_per_iteration)
        self.worker_id = worker_id
        self.node_name = node_name
        self.partition = partition
        self.compute_model = compute_model
        self.batch_rng = batch_rng
        self.compute_rng = compute_rng

        # Iteration state
        self.iteration_started_at = 0.0
        self.snapshot: Optional[PullSnapshot] = None
        self.batch: Optional[Batch] = None
        self.parked = False
        self.compute_event = None
        self.compute_started_at = 0.0
        # Span anchors (observability): when the in-flight pull/push began.
        self.pull_issued_at = 0.0
        self.push_started_at = 0.0
        self.track = worker_track(worker_id)

        # Counters
        self.pulls = 0
        self.pushes = 0
        # The last SPAN_WINDOW iteration spans, abort-free ones and all.
        self.clean_spans: Deque[float] = deque(maxlen=SPAN_WINDOW)
        self.all_spans: Deque[float] = deque(maxlen=SPAN_WINDOW)

    def mean_iteration_time(self) -> Optional[float]:
        """Recent mean iteration span, preferring abort-free iterations."""
        spans = self.clean_spans or self.all_spans
        if not spans:
            return None
        return sum(spans) / len(spans)

    def view(self) -> WorkerView:
        """Snapshot this worker's policy-visible state."""
        return WorkerView(
            worker_id=self.worker_id,
            node_name=self.node_name,
            iterations_completed=self.iteration,
            computing=self.phase is COMPUTING,
            parked=self.parked,
        )


class TrainingEngine:
    """One simulated distributed-training run."""

    def __init__(
        self,
        model: Model,
        partitions: List[Partition],
        eval_batch: Batch,
        update_rule: SgdUpdateRule,
        policy: SyncPolicy,
        cluster: ClusterSpec,
        base_compute_model: ComputeTimeModel,
        config: EngineConfig,
        seed: int = 0,
        workload_name: str = "workload",
        compute_models: Optional[List[ComputeTimeModel]] = None,
    ):
        if len(partitions) != cluster.num_workers:
            raise ValueError(
                f"{len(partitions)} partitions for {cluster.num_workers} workers"
            )
        if compute_models is not None and len(compute_models) != cluster.num_workers:
            raise ValueError(
                f"{len(compute_models)} compute models for "
                f"{cluster.num_workers} workers"
            )
        self.model = model
        self.eval_batch = eval_batch
        self.policy = policy
        self.cluster = cluster
        self.config = config
        self.seed = seed
        self.workload_name = workload_name

        self.streams = RngStreams(seed)
        self.sim = Simulator()
        self.ledger = TransferLedger()
        self.network = Network(
            self.sim, link=config.link, ledger=self.ledger,
            rng=self.streams.get("network"),
            node_bandwidth={
                node.name: node.instance.network_bytes_per_s
                for node in cluster.nodes
            },
            serialize_node_transfers=config.serialize_node_transfers,
        )
        self.store = ParameterStore(
            initial_params=model.init_params(self.streams.get("init")),
            update_rule=update_rule,
        )
        #: Sharding is transfer timing only: the streams a pull/push fans over.
        self.num_shards = config.num_shards or cluster.num_workers
        self.traces = TraceRecorder()
        self.curve = LossCurve()
        # Observability: live against the enabled collector, or the shared
        # no-op tracer (the default).  Bound at construction — enable
        # observability (repro.obs.collecting) *before* building engines.
        self.tracer = tracer_for(VirtualClock(self.sim))
        self._log = VirtualTimeLoggerAdapter(
            get_logger("engine"), lambda: self.sim.now
        )

        self.workers: List[WorkerRuntime] = []
        for i, node in enumerate(cluster.nodes):
            self.workers.append(
                WorkerRuntime(
                    worker_id=i,
                    node_name=node.name,
                    partition=partitions[i],
                    compute_model=(
                        compute_models[i]
                        if compute_models is not None
                        else base_compute_model.scaled(node.speed_factor)
                    ),
                    batch_rng=self.streams.get("batch", i),
                    compute_rng=self.streams.get("compute", i),
                    max_aborts_per_iteration=config.max_aborts_per_iteration,
                )
            )

        self._stopped = False
        self._consecutive_converged = 0
        self._accuracy_fn: Optional[Callable] = (
            getattr(model, "accuracy", None) if config.record_accuracy else None
        )
        policy.bind(self)

    # ------------------------------------------------------------------
    # Public surface for policies
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    def worker_view(self, worker_id: int) -> WorkerView:
        """Read-only facts about one worker (for policies)."""
        return self.workers[worker_id].view()

    def worker_node(self, worker_id: int) -> str:
        """The cluster node name hosting a worker."""
        return self.workers[worker_id].node_name

    def release_worker(self, worker_id: int) -> None:
        """Wake a parked worker (BSP barrier open, SSP bound satisfied)."""
        worker = self.workers[worker_id]
        if not worker.parked:
            return
        worker.parked = False
        if not self._stopped:
            self._schedule_pull(worker)

    def request_resync(
        self,
        worker_id: int,
        for_iteration: int,
        peer_pushes: Optional[int] = None,
    ) -> bool:
        """Abort ``worker_id``'s in-flight iteration and have it re-pull.

        ``peer_pushes`` is the triggering peer-push count from the
        scheduler's decision; it rides on the abort instant so trace
        analytics need no heuristic reconstruction of the cause.

        Returns False (no abort) when the worker already moved past
        ``for_iteration``, is not computing, or exhausted its abort budget —
        the "too late" cases of paper Section IV-A (``WorkerLoop.resync``).
        """
        worker = self.workers[worker_id]
        if self._stopped or not worker.resync(for_iteration):
            # Too late: drop any causal-flow origins the scheduler staged.
            self.tracer.flow_discard(resync_flow_key(worker_id, for_iteration))
            return False

        worker.compute_event.cancel()
        wasted = self.sim.now - worker.compute_started_at
        if self.tracer.enabled:
            # The aborted portion of the compute, the abort point itself,
            # and the causal arrow from the scheduler decision that
            # triggered this re-sync.
            self.tracer.span(
                worker.track, "compute", start=worker.compute_started_at,
                args={"iteration": worker.iteration, "aborted": True,
                      "wasted_s": round(wasted, 9)},
            )
            abort_args = {"iteration": worker.iteration,
                          "wasted_s": round(wasted, 9)}
            if peer_pushes is not None:
                abort_args["peer_pushes"] = peer_pushes
            self.tracer.instant(
                worker.track, "abort", cat="abort", args=abort_args,
            )
            self.tracer.flow_end(
                resync_flow_key(worker_id, for_iteration), worker.track
            )
            self.tracer.count("engine.aborts")
            self.tracer.observe("engine.wasted_compute_s", wasted)
        self._log.debug(
            "worker %d aborted iteration %d (wasted %.3gs)",
            worker_id, worker.iteration, wasted,
        )
        self.traces.record_abort(self.sim.now, worker_id, worker.iteration, wasted)
        self.policy.on_abort(worker_id, worker.iteration)
        self._issue_pull(worker, is_restart=True)
        return True

    def send_control(
        self,
        kind: MessageKind,
        src: str,
        dst: str,
        payload,
        on_delivery: Callable[[Message], None],
    ) -> None:
        """Send a small control message (notify / re-sync) over the network."""
        message = Message(
            kind=kind, src=src, dst=dst,
            size_bytes=CONTROL_MESSAGE_BYTES, payload=payload,
        )
        self.network.send(message, on_delivery)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the run and return its results."""
        self._log.info(
            "run start: %s/%s, %d workers, horizon %.6gs",
            self.workload_name, self.policy.name, self.num_workers,
            self.config.horizon_s,
        )
        if self.tracer.enabled:
            # Run boundary markers: several engines may share one collector
            # (repro compare --trace), each restarting virtual time at 0 —
            # the analyzer segments the event stream on these instants.
            self.tracer.instant(
                SERVER_TRACK, "run_start", cat="run",
                args={"workload": self.workload_name,
                      "scheme": self.policy.name,
                      "seed": self.seed,
                      "workers": self.num_workers,
                      "horizon_s": self.config.horizon_s},
            )
        for worker in self.workers:
            self._start_next_iteration(worker)
        self._schedule_eval()
        self.sim.run(until=self.config.horizon_s, stop_when=lambda: self._stopped)
        self.policy.on_run_end()
        if self.tracer.enabled:
            self.tracer.instant(
                SERVER_TRACK, "run_end", cat="run",
                args={"total_iterations": self.store.version,
                      "total_aborts": sum(w.aborts for w in self.workers)},
            )
        self._log.info(
            "run end: %d iterations, %d aborts, %d events fired",
            self.store.version, sum(w.aborts for w in self.workers),
            self.sim.events_fired,
        )
        return self._build_result()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _start_next_iteration(self, worker: WorkerRuntime) -> None:
        if self._stopped or self._iteration_budget_exhausted():
            return
        worker.iteration_started_at = self.sim.now
        if not self.policy.can_start_iteration(worker.worker_id):
            worker.parked = True
            return
        self._schedule_pull(worker)

    def _schedule_pull(self, worker: WorkerRuntime) -> None:
        worker.begin()
        delay = self.policy.pull_delay(worker.worker_id)
        if delay < 0:
            raise ValueError(f"policy returned negative pull delay {delay}")
        if delay > 0:
            self.sim.defer(delay, self._issue_pull, worker, False)
        else:
            self._issue_pull(worker, False)

    def _issue_pull(self, worker: WorkerRuntime, is_restart: bool) -> None:
        worker.pull_issued_at = self.sim.now
        request = Message(
            kind=MessageKind.PULL_REQUEST,
            src=worker.node_name,
            dst=SERVERS_NODE,
            size_bytes=CONTROL_MESSAGE_BYTES,
            payload=worker.worker_id,
        )
        self.network.send(
            request, lambda msg: self._serve_pull(worker, is_restart)
        )

    def _serve_pull(self, worker: WorkerRuntime, is_restart: bool) -> None:
        snapshot = self.store.snapshot()
        response = Message(
            kind=MessageKind.PULL_RESPONSE,
            src=SERVERS_NODE,
            dst=worker.node_name,
            size_bytes=self.config.param_wire_bytes,
            payload=snapshot,
            parallel_streams=self.num_shards,
        )
        self.network.send(
            response, lambda msg: self._on_pull_response(worker, snapshot, is_restart)
        )

    def _on_pull_response(
        self, worker: WorkerRuntime, snapshot: PullSnapshot, is_restart: bool
    ) -> None:
        if self._stopped:
            return
        worker.snapshot = snapshot
        worker.pulls += 1
        if self.tracer.enabled:
            self.tracer.span(
                worker.track, "pull", start=worker.pull_issued_at,
                args={"iteration": worker.iteration,
                      "version": snapshot.version, "restart": is_restart},
            )
            self.tracer.count("engine.pulls")
        self.traces.record_pull(
            self.sim.now, worker.worker_id, snapshot.version, worker.iteration, is_restart
        )
        self.policy.on_pull(worker.worker_id, snapshot.version)
        if not is_restart or worker.batch is None:
            # A restart recomputes the same training batch (Algorithm 2
            # jumps back to the gradient step for the same batch index).
            worker.batch = worker.partition.sample_batch(
                worker.batch_rng, self.config.batch_size
            )
        duration = worker.compute_model.sample_at(worker.compute_rng, self.sim.now)
        worker.pulled()
        worker.compute_started_at = self.sim.now
        worker.compute_event = self.sim.schedule(
            duration, self._on_compute_done, worker
        )

    def _on_compute_done(self, worker: WorkerRuntime) -> None:
        worker.computed()
        if self.tracer.enabled:
            self.tracer.span(
                worker.track, "compute", start=worker.compute_started_at,
                args={"iteration": worker.iteration, "aborted": False},
            )
        worker.push_started_at = self.sim.now
        gradient = self.model.gradient(worker.snapshot.params, worker.batch)
        push = Message(
            kind=MessageKind.PUSH,
            src=worker.node_name,
            dst=SERVERS_NODE,
            size_bytes=self.config.push_wire_bytes,
            payload=(gradient, worker.snapshot.version),
            parallel_streams=self.num_shards,
        )
        self.network.send(push, lambda msg: self._apply_push(worker, msg))

    def _apply_push(self, worker: WorkerRuntime, message: Message) -> None:
        gradient, snapshot_version = message.payload
        record = self.store.apply_push(worker.worker_id, gradient, snapshot_version)
        if self.tracer.enabled:
            self.tracer.instant(
                SERVER_TRACK, "push_applied",
                args={"worker": worker.worker_id,
                      "version_after": record.version_after,
                      "staleness": record.staleness},
            )
            self.tracer.count("engine.pushes")
            self.tracer.observe("engine.staleness", record.staleness)
        self.traces.record_push(
            self.sim.now, worker.worker_id, record.version_after,
            record.snapshot_version, record.staleness, worker.iteration,
        )
        self.policy.on_push_applied(record)
        ack = Message(
            kind=MessageKind.PUSH_ACK,
            src=SERVERS_NODE,
            dst=worker.node_name,
            size_bytes=CONTROL_MESSAGE_BYTES,
        )
        self.network.send(ack, lambda msg: self._on_push_acked(worker))

    def _on_push_acked(self, worker: WorkerRuntime) -> None:
        span = self.sim.now - worker.iteration_started_at
        worker.all_spans.append(span)
        if worker.aborts_in_iteration == 0:
            worker.clean_spans.append(span)
        if self.tracer.enabled:
            self.tracer.span(
                worker.track, "push", start=worker.push_started_at,
                args={"iteration": worker.iteration},
            )
            self.tracer.span(
                worker.track, "iteration", start=worker.iteration_started_at,
                cat="iteration",
                args={"iteration": worker.iteration,
                      "aborts": worker.aborts_in_iteration},
            )
            self.tracer.observe("engine.iteration_s", span)
        worker.pushes += 1
        worker.batch = None
        self.policy.on_iteration_complete(worker.worker_id, worker.acked())
        self._start_next_iteration(worker)

    def _iteration_budget_exhausted(self) -> bool:
        limit = self.config.max_total_iterations
        return limit is not None and self.store.version >= limit

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _schedule_eval(self) -> None:
        self.sim.defer(self.config.eval_interval_s, self._evaluate)

    def _evaluate(self) -> None:
        loss = self.model.loss(self.store.params, self.eval_batch)
        accuracy = None
        if self._accuracy_fn is not None:
            accuracy = self._accuracy_fn(self.store.params, self.eval_batch)
        if self.tracer.enabled:
            self.tracer.instant(
                SERVER_TRACK, "eval",
                args={"loss": round(float(loss), 9),
                      "total_iterations": self.store.version},
            )
        self.curve.add(
            EvalPoint(
                time=self.sim.now,
                total_iterations=self.store.version,
                loss=loss,
                accuracy=accuracy,
            )
        )
        if self._check_early_stop(loss):
            self._stopped = True
            return
        if self.sim.now < self.config.horizon_s:
            self._schedule_eval()

    def _check_early_stop(self, loss: float) -> bool:
        criterion = self.config.convergence
        if criterion is None:
            return False
        if loss <= criterion.target_loss:
            self._consecutive_converged += 1
        else:
            self._consecutive_converged = 0
        return self._consecutive_converged >= criterion.consecutive

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _build_result(self) -> RunResult:
        stats = [
            WorkerStats(
                worker_id=w.worker_id,
                node_name=w.node_name,
                iterations=w.iteration,
                pulls=w.pulls,
                pushes=w.pushes,
                aborts=w.aborts,
                mean_iteration_time=w.mean_iteration_time() or 0.0,
            )
            for w in self.workers
        ]
        return RunResult(
            scheme=self.policy.name,
            workload=self.workload_name,
            num_workers=self.num_workers,
            seed=self.seed,
            horizon_s=self.config.horizon_s,
            curve=self.curve,
            traces=self.traces,
            ledger=self.ledger,
            worker_stats=stats,
            policy_summary=self.policy.summary(),
        )
