"""Grid search for SpecSync-Cherrypick hyperparameters.

The paper tunes ABORT_TIME and ABORT_RATE by exhaustive search with
profiling runs (Section VI-E): ABORT_TIME candidates span up to half the
iteration time with steps above the communication time, ABORT_RATE takes
10 values.  Each grid cell here is a (shortened) profiling run scored by
loss at a fixed time budget; the full Table-II-sized search is what makes
Cherrypick expensive, which :mod:`repro.experiments.table2_tuning_cost`
quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.specsync import SpecSyncPolicy
from repro.experiments.common import Cell, render_table, run_cells
from repro.workloads.base import Workload

__all__ = ["GridTrial", "GridSearchResult", "grid_search_hyperparams", "mf_search"]


@dataclass(frozen=True)
class GridTrial:
    """One profiling run of the grid."""

    hyperparams: SpecSyncHyperparams
    score_loss: float  # loss at the probe budget (lower is better)
    probe_time_s: float  # virtual time spent on the trial


@dataclass
class GridSearchResult:
    workload: str
    trials: List[GridTrial]
    best: SpecSyncHyperparams
    total_virtual_time_s: float

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    def render(self, top: int = 5) -> str:
        table = render_table(
            f"Cherrypick grid search on {self.workload}: "
            f"{self.num_trials} trials, "
            f"{self.total_virtual_time_s / 3600:.1f} virtual hours",
            ["ABORT_TIME", "ABORT_RATE", "loss at budget"],
            (
                [f"{trial.hyperparams.abort_time_s:.3g}s",
                 f"{trial.hyperparams.abort_rate:.2f}",
                 f"{trial.score_loss:.4f}"]
                for trial in sorted(self.trials, key=lambda t: t.score_loss)[:top]
            ),
        )
        return table + f"\nbest: {self.best}"


def default_grid(
    iteration_time_s: float,
    num_abort_times: int,
    num_abort_rates: int,
) -> List[SpecSyncHyperparams]:
    """The paper-shaped grid: ABORT_TIME up to half the iteration time,
    ABORT_RATE spanning (0, 0.5]."""
    times = np.linspace(
        iteration_time_s / 20.0, iteration_time_s / 2.0, num_abort_times
    )
    rates = np.linspace(0.05, 0.5, num_abort_rates)
    return [
        SpecSyncHyperparams(abort_time_s=float(t), abort_rate=float(r))
        for t in times
        for r in rates
    ]


def grid_search_hyperparams(
    workload: Workload,
    cluster: ClusterSpec,
    seed: int = 3,
    num_abort_times: int = 5,
    num_abort_rates: int = 10,
    probe_horizon_s: Optional[float] = None,
    grid: Optional[Sequence[SpecSyncHyperparams]] = None,
) -> GridSearchResult:
    """Run the grid; score each cell by eval loss at the probe budget.

    ``probe_horizon_s`` defaults to a quarter of the workload's horizon —
    long enough to rank hyperparameters, short enough that the whole grid
    remains runnable (the paper burned hundreds of EC2 hours on the full
    version; Table II).
    """
    horizon = (
        probe_horizon_s
        if probe_horizon_s is not None
        else workload.default_horizon_s / 4.0
    )
    points = (
        list(grid)
        if grid is not None
        else default_grid(
            workload.paper_iteration_time_s, num_abort_times, num_abort_rates
        )
    )
    # Grid points are keyed by index: two cells may hold equal hyperparams.
    losses = run_cells(
        [
            Cell(i, workload, cluster,
                 partial(SpecSyncPolicy.cherrypick, hyperparams), horizon_s=horizon)
            for i, hyperparams in enumerate(points)
        ],
        lambda run: run.result.curve.best_loss(),
        seed,
    )
    trials = [
        GridTrial(hyperparams=hyperparams, score_loss=losses[i], probe_time_s=horizon)
        for i, hyperparams in enumerate(points)
    ]
    best = min(trials, key=lambda t: t.score_loss).hyperparams
    return GridSearchResult(
        workload=workload.name,
        trials=trials,
        best=best,
        total_virtual_time_s=sum(t.probe_time_s for t in trials),
    )


def mf_search() -> GridSearchResult:
    """The archived search (``benchmarks/results/cherrypick_search_mf.txt``):
    Table-I MF on 40 workers, a 3 x 4 grid, seed 3."""
    from repro.workloads.presets import matrix_factorization_workload

    return grid_search_hyperparams(
        matrix_factorization_workload(),
        ClusterSpec.homogeneous(40),
        num_abort_times=3,
        num_abort_rates=4,
    )


if __name__ == "__main__":
    print(mf_search().render())
