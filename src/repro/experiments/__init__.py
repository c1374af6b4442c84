"""Experiment drivers: one module per table/figure of the paper's evaluation.

Each driver builds a list of grid cells (workload × cluster × scheme) and
hands them to the one runner, :func:`~repro.experiments.common.run_grid`,
which runs every (cell, seed) once; the driver then reduces the keyed
results into a structured result object whose ``render()`` prints the
rows/series the paper reports.  Multi-seed Fig. 8 is ``run_fig8(seeds=…)``.
The benchmark harness (``benchmarks/``) calls these drivers; the CLI runs
any one of them::

    repro experiment fig8 --scale smoke
"""

from repro.experiments.common import (
    Cell,
    ExperimentScale,
    SchemeSpec,
    run_grid,
    scheme_catalog,
)
from repro.experiments.table1 import run_table1
from repro.experiments.fig3_pap import run_fig3
from repro.experiments.fig5_naive_waiting import run_fig5
from repro.experiments.fig8_effectiveness import run_fig8
from repro.experiments.fig9_iterations import run_fig9
from repro.experiments.fig10_heterogeneity import run_fig10
from repro.experiments.fig11_scalability import run_fig11
from repro.experiments.fig12_transfer import run_fig12
from repro.experiments.fig13_breakdown import run_fig13
from repro.experiments.table2_tuning_cost import run_table2
from repro.experiments.cherrypick_search import grid_search_hyperparams

__all__ = [
    "Cell",
    "ExperimentScale",
    "SchemeSpec",
    "run_grid",
    "scheme_catalog",
    "run_table1",
    "run_fig3",
    "run_fig5",
    "run_fig8",
    "run_fig9",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_table2",
    "grid_search_hyperparams",
]
