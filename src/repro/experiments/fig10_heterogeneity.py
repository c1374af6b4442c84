"""Fig. 10 — robustness to heterogeneity.

Runs CIFAR-10 under Original and SpecSync-Adaptive on both the homogeneous
Cluster 1 and the 4-instance-type Cluster 2, reporting loss curves and
time-to-target.  The paper's observations, all checked by the bench:

* SpecSync-Adaptive beats Original on both cluster types;
* heterogeneity slows everyone down;
* the speedup on the heterogeneous cluster is smaller than on the
  homogeneous one (the tuner's uniform-arrival assumption degrades).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.spec import ClusterSpec
from repro.experiments.common import (
    Cell, ExperimentScale, format_speedup, format_time, nest, paper_cluster, ratio,
    render_table, run_cells, scheme_catalog, time_to_target, unzip,
)
from repro.metrics.curves import LossCurve
from repro.workloads.presets import cifar10_workload

__all__ = ["Fig10Result", "run_fig10"]


@dataclass
class Fig10Result:
    #: (cluster kind, scheme) -> loss curve
    curves: Dict[str, Dict[str, LossCurve]]
    #: (cluster kind, scheme) -> time to target
    time_to_target: Dict[str, Dict[str, Optional[float]]]
    target: float

    def speedup(self, cluster_kind: str) -> Optional[float]:
        times = self.time_to_target[cluster_kind]
        return ratio(times.get("original"), times.get("adaptive"))

    def render(self) -> str:
        return render_table(
            f"Fig. 10: CIFAR-10 heterogeneity robustness (target {self.target})",
            ["Cluster", "Scheme", "Time to target", "Speedup"],
            (
                [kind, scheme, format_time(per_scheme.get(scheme)),
                 format_speedup(self.speedup(kind) if scheme == "adaptive" else None)]
                for kind, per_scheme in self.time_to_target.items()
                for scheme in ("original", "adaptive")
            ),
        )


def run_fig10(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> Fig10Result:
    per_type = 10 if scale is ExperimentScale.FULL else 2
    clusters = {
        "homogeneous (Cluster 1)": paper_cluster(scale, smoke_workers=8),
        "heterogeneous (Cluster 2)": ClusterSpec.heterogeneous(
            [(name, per_type)
             for name in ("m3.xlarge", "m3.2xlarge", "m4.xlarge", "m4.2xlarge")]
        ),
    }
    workload = cifar10_workload(seed)
    catalog = scheme_catalog(workload.name)
    curves, times = unzip(run_cells(
        [
            Cell((kind, key), workload, cluster, catalog[key].factory,
                 early_stop=True)
            for kind, cluster in clusters.items()
            for key in ("original", "adaptive")
        ],
        lambda run: (run.result.curve, time_to_target(run)),
        seed,
    ))
    return Fig10Result(
        curves=nest(curves), time_to_target=nest(times),
        target=workload.convergence.target_loss,
    )
