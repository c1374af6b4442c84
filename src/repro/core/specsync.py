"""The SpecSync policy: wires the central scheduler into the engine.

The policy implements the worker side of Algorithm 2 (send ``notify`` after
every push, honor ``re-sync`` instructions) and hosts the scheduler on its
own pseudo-node.  Both messages cross the simulated network as tiny control
messages, so the communication overhead the paper measures (Fig. 12/13) is
accounted faithfully.

Composability (paper Section IV-A, benefit 2): pass ``base_policy`` (e.g. an
:class:`repro.sync.SspPolicy`) to run SpecSync *on top of* a gated scheme —
gating hooks delegate to the base while speculation runs unchanged.
"""

from __future__ import annotations

from typing import Optional

from repro.core.scheduler import SpecSyncScheduler
from repro.core.tuning import AdaptiveTuner, FixedTuner, HyperparamTuner
from repro.core.hyperparams import SpecSyncHyperparams
from repro.netsim.messages import MessageKind
from repro.ps.policy import SyncPolicy

__all__ = ["SpecSyncPolicy"]

SCHEDULER_NODE = "scheduler"


class SpecSyncPolicy(SyncPolicy):
    """Speculative synchronization on top of ASP (default) or a base scheme."""

    def __init__(
        self,
        tuner: HyperparamTuner,
        base_policy: Optional[SyncPolicy] = None,
    ):
        super().__init__()
        self.tuner = tuner
        self.base_policy = base_policy
        self.scheduler: Optional[SpecSyncScheduler] = None
        self._notifies_sent = 0
        self._resyncs_honored = 0

    # ------------------------------------------------------------------
    # Constructors for the paper's two variants
    # ------------------------------------------------------------------
    @classmethod
    def adaptive(
        cls, base_policy: Optional[SyncPolicy] = None, max_candidates: int = 512
    ) -> "SpecSyncPolicy":
        """SpecSync-Adaptive: Algorithm 1 retunes every epoch."""
        return cls(tuner=AdaptiveTuner(max_candidates=max_candidates),
                   base_policy=base_policy)

    @classmethod
    def cherrypick(
        cls,
        hyperparams: SpecSyncHyperparams,
        base_policy: Optional[SyncPolicy] = None,
    ) -> "SpecSyncPolicy":
        """SpecSync-Cherrypick: fixed hyperparameters from a grid search."""
        return cls(tuner=FixedTuner(hyperparams), base_policy=base_policy)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        base = f"+{self.base_policy.name}" if self.base_policy else ""
        return f"specsync-{self.tuner.label}{base}"

    def bind(self, engine) -> None:
        super().bind(engine)
        if self.base_policy is not None:
            self.base_policy.bind(engine)
        self.scheduler = SpecSyncScheduler(
            num_workers=engine.num_workers,
            tuner=self.tuner,
            schedule_fn=lambda delay, fn: engine.sim.defer(delay, fn),
            now_fn=lambda: engine.now,
            send_resync_fn=self._send_resync,
            # The scheduler shares the engine's virtual-time tracer, so its
            # decision events land on the same timeline as the worker spans
            # and the abort flow arrows pair up across the two layers.
            tracer=engine.tracer,
        )

    def on_run_end(self) -> None:
        if self.base_policy is not None:
            self.base_policy.on_run_end()

    # ------------------------------------------------------------------
    # Gating delegates to the base scheme (ASP when none)
    # ------------------------------------------------------------------
    def pull_delay(self, worker_id: int) -> float:
        if self.base_policy is not None:
            return self.base_policy.pull_delay(worker_id)
        return 0.0

    def can_start_iteration(self, worker_id: int) -> bool:
        if self.base_policy is not None:
            return self.base_policy.can_start_iteration(worker_id)
        return True

    def on_pull(self, worker_id: int, snapshot_version: int) -> None:
        if self.base_policy is not None:
            self.base_policy.on_pull(worker_id, snapshot_version)

    def on_push_applied(self, record) -> None:
        if self.base_policy is not None:
            self.base_policy.on_push_applied(record)

    # ------------------------------------------------------------------
    # Worker side of Algorithm 2
    # ------------------------------------------------------------------
    def on_iteration_complete(self, worker_id: int, iteration: int) -> None:
        if self.base_policy is not None:
            self.base_policy.on_iteration_complete(worker_id, iteration)
        # The worker just pushed and is starting iteration ``iteration``
        # (completed count == next in-progress index): notify the scheduler.
        self._notifies_sent += 1
        self.engine.send_control(
            kind=MessageKind.NOTIFY,
            src=self.engine.worker_node(worker_id),
            dst=SCHEDULER_NODE,
            payload=(worker_id, iteration),
            on_delivery=lambda msg: self.scheduler.handle_notify(*msg.payload),
        )

    def _send_resync(self, worker_id: int, iteration: int, peer_pushes: int) -> None:
        self.engine.send_control(
            kind=MessageKind.RESYNC,
            src=SCHEDULER_NODE,
            dst=self.engine.worker_node(worker_id),
            payload=(worker_id, iteration, peer_pushes),
            on_delivery=self._deliver_resync,
        )

    def _deliver_resync(self, msg) -> None:
        worker_id, iteration, peer_pushes = msg.payload
        if self.engine.request_resync(worker_id, iteration, peer_pushes):
            self._resyncs_honored += 1

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        summary = {
            "notifies_sent": self._notifies_sent,
            "resyncs_honored": self._resyncs_honored,
        }
        if self.scheduler is not None:
            summary.update(self.scheduler.summary())
        if self.base_policy is not None:
            summary["base"] = self.base_policy.summary()
        if isinstance(self.tuner, AdaptiveTuner):
            summary["tuning_wall_s"] = round(self.tuner.total_tuning_wall_s, 6)
        return summary
