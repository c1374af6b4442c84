"""The Workload abstraction: everything a run needs except cluster + scheme."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.cluster.compute import ComputeTimeModel
from repro.cluster.spec import ClusterSpec
from repro.metrics.convergence import ConvergenceCriterion
from repro.ml.datasets.base import Dataset
from repro.ml.models.base import Model
from repro.ml.optim import SgdUpdateRule
from repro.netsim.network import LinkModel
from repro.ps.engine import EngineConfig, TrainingEngine
from repro.ps.policy import SyncPolicy
from repro.utils.rng import RngStreams

__all__ = ["WorkloadScale", "Workload"]


class WorkloadScale(enum.Enum):
    """How big the numeric problem is.

    ``PAPER`` keeps virtual iteration times and wire sizes at Table I scale
    with simulation-sized numerics; ``BENCH`` additionally shrinks the
    numeric problem so the full benchmark suite runs in minutes.
    """

    PAPER = "paper"
    BENCH = "bench"


@dataclass
class Workload:
    """A named, fully-specified training workload."""

    name: str
    model_factory: Callable[[], Model]
    dataset_factory: Callable[[int], Dataset]  # seed -> dataset
    update_rule_factory: Callable[[], SgdUpdateRule]
    batch_size: int
    base_compute: ComputeTimeModel
    param_wire_bytes: float
    convergence: ConvergenceCriterion
    default_horizon_s: float
    eval_interval_s: float
    # Table I metadata (reporting only)
    paper_num_parameters: int = 0
    paper_dataset_size: int = 0
    paper_iteration_time_s: float = 0.0
    link: LinkModel = field(default_factory=LinkModel)

    def with_overrides(self, **changes) -> "Workload":
        """A copy of this workload with some fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # Engine construction
    # ------------------------------------------------------------------
    def build_engine(
        self,
        cluster: ClusterSpec,
        policy: SyncPolicy,
        seed: int = 0,
        horizon_s: Optional[float] = None,
        early_stop: bool = False,
        max_total_iterations: Optional[int] = None,
        record_accuracy: bool = False,
        max_aborts_per_iteration: int = 1,
        compute_models: Optional[List[ComputeTimeModel]] = None,
    ) -> TrainingEngine:
        """Wire up a :class:`TrainingEngine` for this workload.

        ``early_stop=True`` stops the simulation once the paper's
        convergence criterion holds (used by runtime-to-convergence
        experiments); otherwise the run spans the full horizon (used by
        learning-curve experiments).  ``compute_models`` replaces the
        cluster's per-worker compute models (e.g. a scripted slowdown).
        """
        streams = RngStreams(seed)
        dataset = self.dataset_factory(seed)
        partitions = dataset.partition(cluster.num_workers, streams.get("partition"))
        config = EngineConfig(
            batch_size=self.batch_size,
            horizon_s=horizon_s if horizon_s is not None else self.default_horizon_s,
            eval_interval_s=self.eval_interval_s,
            param_wire_bytes=self.param_wire_bytes,
            link=self.link,
            convergence=self.convergence if early_stop else None,
            max_total_iterations=max_total_iterations,
            record_accuracy=record_accuracy,
            max_aborts_per_iteration=max_aborts_per_iteration,
        )
        return TrainingEngine(
            model=self.model_factory(),
            partitions=partitions,
            eval_batch=dataset.eval_batch(),
            update_rule=self.update_rule_factory(),
            policy=policy,
            cluster=cluster,
            base_compute_model=self.base_compute,
            config=config,
            seed=seed,
            workload_name=self.name,
            compute_models=compute_models,
        )

    def run(
        self,
        cluster: ClusterSpec,
        policy: SyncPolicy,
        seed: int = 0,
        **kwargs,
    ):
        """Build and run in one call; returns the :class:`RunResult`."""
        return self.build_engine(cluster, policy, seed=seed, **kwargs).run()
