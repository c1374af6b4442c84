"""Fig. 9 — loss as a function of iterations, and accumulated iterations.

The companion view to Fig. 8: SpecSync iterations are individually longer
(re-syncs stretch them) but higher quality, so convergence needs *fewer*
iterations.  The paper reports up to 58% fewer iterations to converge for
SpecSync vs Original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.experiments.common import (
    Cell, ExperimentScale, nest, paper_cluster, paper_workloads, ratio,
    run_cells, scheme_catalog, unzip,
)
from repro.metrics.curves import LossCurve
from repro.utils.tables import TextTable
from repro.workloads.base import Workload

__all__ = ["Fig9Result", "run_fig9"]

FIG9_SCHEMES = ("original", "adaptive")


@dataclass
class Fig9Result:
    #: workload -> scheme -> loss curve (carries total_iterations per point)
    curves: Dict[str, Dict[str, LossCurve]]
    #: workload -> scheme -> iterations to reach the target (None = never)
    iterations_to_target: Dict[str, Dict[str, Optional[int]]]
    targets: Dict[str, float]

    def iteration_reduction(self, workload: str) -> Optional[float]:
        """Fraction of iterations saved by adaptive vs original (0.58 = 58%)."""
        iterations = self.iterations_to_target[workload]
        share = ratio(iterations.get("adaptive"), iterations.get("original"))
        return None if share is None else 1.0 - share

    def render(self) -> str:
        table = TextTable(
            ["Workload", "Scheme", "Iterations to target", "Reduction"],
            title="Fig. 9: Iterations to convergence (paper: up to 58% fewer)",
        )
        for workload, per_scheme in self.iterations_to_target.items():
            reduction = self.iteration_reduction(workload)
            for scheme in FIG9_SCHEMES:
                iters = per_scheme.get(scheme)
                table.add_row(
                    [
                        f"{workload} (target {self.targets[workload]})",
                        scheme,
                        iters if iters is not None else "did not converge",
                        f"{reduction:.0%}" if (
                            scheme == "adaptive" and reduction is not None
                        ) else "-",
                    ]
                )
        return table.render()


def run_fig9(
    scale: ExperimentScale = ExperimentScale.FULL,
    seed: int = 3,
    workloads: Optional[Sequence[Workload]] = None,
) -> Fig9Result:
    cluster = paper_cluster(scale)
    workloads = paper_workloads(scale, seed, workloads)
    curves, iterations = unzip(run_cells(
        [
            Cell((w.name, key), w, cluster,
                 scheme_catalog(w.name)[key].factory, early_stop=True)
            for w in workloads
            for key in FIG9_SCHEMES
        ],
        lambda run: (
            run.result.curve,
            run.result.curve.iterations_to_loss(
                run.cell.workload.convergence.target_loss
            ),
        ),
        seed,
    ))
    return Fig9Result(
        curves=nest(curves),
        iterations_to_target=nest(iterations),
        targets={w.name: w.convergence.target_loss for w in workloads},
    )
