"""Fig. 3 — distribution of pushes-after-a-pull (PAP) per 1-second interval.

Runs the ASP scheme on the CIFAR-10 and MF workloads (the paper's two
Section-III study workloads) on Cluster 1 and reports, for each 1-second
interval after a pull, the 5/25/50/75/95th percentiles of the number of
peer pushes received — the paper's box plots, as a table.

The headline check: with 40 workers on CIFAR-10, the median number of
pushes uncovered within the first two seconds after a pull is > 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.common import (
    Cell, CellRun, ExperimentScale, paper_cluster, render_table, run_cells,
    scheme_catalog, unzip,
)
from repro.metrics.pap import BoxStats, PapAnalysis
from repro.workloads.presets import cifar10_workload, matrix_factorization_workload

__all__ = ["Fig3Result", "run_fig3"]


@dataclass
class Fig3Result:
    #: workload name -> interval index -> box stats
    boxes: Dict[str, Dict[int, BoxStats]]
    #: workload name -> median PAP within the first two seconds
    median_pap_2s: Dict[str, float]
    num_workers: int

    def render(self) -> str:
        blocks: List[str] = []
        for workload, intervals in self.boxes.items():
            blocks.append(render_table(
                f"Fig. 3 ({workload}): PAP per 1s interval, "
                f"{self.num_workers} workers",
                ["interval", "p5", "p25", "median", "p75", "p95"],
                (
                    [f"{idx}-{idx + 1}s", f"{box.p5:.0f}", f"{box.p25:.0f}",
                     f"{box.median:.0f}", f"{box.p75:.0f}", f"{box.p95:.0f}"]
                    for idx, box in sorted(intervals.items())
                ),
            ))
            blocks.append(
                f"median PAP within 2s: {self.median_pap_2s[workload]:.1f} "
                f"(paper: > 6 for CIFAR-10)"
            )
        return "\n\n".join(blocks)


def run_fig3(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> Fig3Result:
    cluster = paper_cluster(scale)
    workloads = [cifar10_workload(seed), matrix_factorization_workload(seed)]
    # Enough virtual time for every worker to run ~40 iterations.
    boxes, medians = unzip(run_cells(
        [
            Cell(w.name, w, cluster, scheme_catalog(w.name)["original"].factory,
                 horizon_s=w.paper_iteration_time_s * 40)
            for w in workloads
        ],
        _pap, seed,
    ))
    return Fig3Result(
        boxes=boxes, median_pap_2s=medians, num_workers=cluster.num_workers
    )


def _pap(run: CellRun) -> Tuple[Dict[int, BoxStats], float]:
    num_intervals = max(2, int(run.cell.workload.paper_iteration_time_s))
    analysis = PapAnalysis(
        run.result.traces, interval_s=1.0, num_intervals=num_intervals
    )
    return analysis.boxes, analysis.median_pap_within(2.0)
