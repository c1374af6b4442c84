"""Table I — workload characterization.

Reports, for each workload: the paper's parameter count and dataset size
(mirrored into the workload metadata), and the *measured* mean iteration
time from a short ASP run, which should land on the paper's 3s / 14s / 70s
column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.common import (
    Cell, ExperimentScale, mean, paper_cluster, render_table, run_cells,
    scheme_catalog,
)
from repro.workloads.presets import PAPER_WORKLOADS

__all__ = ["Table1Row", "Table1Result", "run_table1"]


@dataclass(frozen=True)
class Table1Row:
    workload: str
    num_parameters: int
    dataset_size: int
    paper_iteration_time_s: float
    measured_iteration_time_s: float


@dataclass
class Table1Result:
    rows: List[Table1Row]

    def render(self) -> str:
        return render_table(
            "Table I: Workload characterization",
            ["Workload", "# parameters", "Dataset size",
             "Iteration time (paper)", "Iteration time (measured)"],
            (
                [row.workload,
                 f"{row.num_parameters / 1e6:.1f} million",
                 f"{row.dataset_size:,}",
                 f"{row.paper_iteration_time_s:.0f}s",
                 f"{row.measured_iteration_time_s:.1f}s"]
                for row in self.rows
            ),
        )


def run_table1(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> Table1Result:
    """Measure iteration times with short ASP runs on Cluster 1."""
    cluster = paper_cluster(scale, smoke_workers=8)
    workloads = PAPER_WORKLOADS(seed)
    # ~25 iterations per worker is plenty to estimate the mean span.
    grid = [
        Cell(w.name, w, cluster, scheme_catalog(w.name)["original"].factory,
             horizon_s=w.paper_iteration_time_s * 25)
        for w in workloads
    ]
    measured = run_cells(
        grid,
        lambda run: mean([
            w.mean_iteration_time for w in run.result.worker_stats
            if w.iterations > 0
        ]),
        seed,
    )
    return Table1Result(rows=[
        Table1Row(
            workload=w.name,
            num_parameters=w.paper_num_parameters,
            dataset_size=w.paper_dataset_size,
            paper_iteration_time_s=w.paper_iteration_time_s,
            measured_iteration_time_s=measured[w.name],
        )
        for w in workloads
    ])
