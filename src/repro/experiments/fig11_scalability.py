"""Fig. 11 — scalability with cluster size.

Two scenarios from the paper, both on CIFAR-10 with 20 / 30 / 40 workers:

* **target-accuracy scenario** (left plot): speedup of SpecSync-Adaptive
  over Original in runtime to the same target loss;
* **fixed-budget scenario** (right plot): loss improvement of
  SpecSync-Adaptive over Original after training for the same amount of
  (virtual) time.

The paper's claim: SpecSync consistently wins, and the gap widens as the
cluster grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.cluster.spec import ClusterSpec
from repro.experiments.common import (
    Cell, ExperimentScale, format_speedup, nest, ratio, render_table,
    run_cells, scheme_catalog, time_to_target, unzip,
)
from repro.workloads.presets import cifar10_workload

__all__ = ["Fig11Result", "run_fig11", "CLUSTER_SIZES"]

CLUSTER_SIZES = (20, 30, 40)


@dataclass
class Fig11Result:
    #: cluster size -> scheme -> time to target
    time_to_target: Dict[int, Dict[str, Optional[float]]]
    #: cluster size -> scheme -> loss at the fixed budget
    loss_at_budget: Dict[int, Dict[str, float]]
    budget_s: float
    target: float

    def speedup(self, size: int) -> Optional[float]:
        times = self.time_to_target[size]
        return ratio(times.get("original"), times.get("adaptive"))

    def loss_improvement(self, size: int) -> float:
        """Relative loss improvement at the fixed budget (positive = better)."""
        orig = self.loss_at_budget[size]["original"]
        spec = self.loss_at_budget[size]["adaptive"]
        return (orig - spec) / orig

    def render(self) -> str:
        return render_table(
            f"Fig. 11: CIFAR-10 scalability "
            f"(target {self.target}, budget {self.budget_s:.0f}s)",
            ["Workers", "Speedup to target", "Loss (Original)",
             "Loss (Adaptive)", "Improvement at budget"],
            (
                [size, format_speedup(self.speedup(size)),
                 f"{self.loss_at_budget[size]['original']:.3f}",
                 f"{self.loss_at_budget[size]['adaptive']:.3f}",
                 f"{self.loss_improvement(size):.0%}"]
                for size in sorted(self.time_to_target)
            ),
        )


def run_fig11(
    scale: ExperimentScale = ExperimentScale.FULL,
    seed: int = 3,
    sizes: Sequence[int] = CLUSTER_SIZES,
    budget_s: Optional[float] = None,
) -> Fig11Result:
    if scale is ExperimentScale.SMOKE:
        sizes = tuple(max(4, s // 4) for s in sizes)
    workload = cifar10_workload(seed)
    catalog = scheme_catalog(workload.name)
    budget = budget_s if budget_s is not None else workload.default_horizon_s / 4
    times, losses = unzip(run_cells(
        [
            Cell((size, key), workload, ClusterSpec.homogeneous(size),
                 catalog[key].factory)
            for size in sizes
            for key in ("original", "adaptive")
        ],
        lambda run: (time_to_target(run), run.result.curve.loss_at_time(budget)),
        seed,
    ))
    return Fig11Result(
        time_to_target=nest(times),
        loss_at_budget=nest(losses),
        budget_s=budget,
        target=workload.convergence.target_loss,
    )
