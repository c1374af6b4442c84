"""Table II — the cost of hyperparameter tuning: Cherrypick vs Adaptive.

Reproduces the paper's cost accounting for the exhaustive grid search
(trial counts × per-trial training time) and contrasts it with the measured
cost of the Adaptive tuner, which is a closed-form scan over a short list
of logged push timestamps (Algorithm 1) — no profiling runs at all.

Paper's Table II (EC2 hours):

========== ============== ============== =============== =================
workload   ABORT_TIME     ABORT_RATE     each trial (h)  total search (h)
========== ============== ============== =============== =================
MF         5              10             1.33            40
CIFAR-10   7              10             6               420
ImageNet   10             10             > 8             > 800
========== ============== ============== =============== =================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.specsync import SpecSyncPolicy
from repro.experiments.common import (
    Cell, ExperimentScale, paper_cluster, render_table, run_cells,
)
from repro.workloads.presets import PAPER_WORKLOADS

__all__ = ["Table2Row", "Table2Result", "run_table2", "PAPER_TABLE2"]

#: The paper's reported grid sizes and per-trial durations.
PAPER_TABLE2: Dict[str, Dict[str, float]] = {
    "mf": {"time_trials": 5, "rate_trials": 10, "trial_hours": 1.33,
           "total_hours": 40.0},
    "cifar10": {"time_trials": 7, "rate_trials": 10, "trial_hours": 6.0,
                "total_hours": 420.0},
    "imagenet": {"time_trials": 10, "rate_trials": 10, "trial_hours": 8.0,
                 "total_hours": 800.0},
}


@dataclass(frozen=True)
class Table2Row:
    workload: str
    time_trials: int
    rate_trials: int
    trial_hours: float
    cherrypick_total_hours: float
    #: measured wall-clock seconds the Adaptive tuner spent over a full run
    adaptive_tuning_wall_s: float
    adaptive_epochs_tuned: int


@dataclass
class Table2Result:
    rows: List[Table2Row]

    def render(self) -> str:
        return render_table(
            "Table II: Hyperparameter tuning cost",
            ["workload", "# ABORT_TIME trials", "# ABORT_RATE trials",
             "each trial (h)", "Cherrypick total (h)",
             "Adaptive total (measured)"],
            (
                [row.workload, row.time_trials, row.rate_trials,
                 f"{row.trial_hours:g}", f"{row.cherrypick_total_hours:g}",
                 f"{row.adaptive_tuning_wall_s * 1000:.1f} ms "
                 f"({row.adaptive_epochs_tuned} epochs)"]
                for row in self.rows
            ),
        )


def run_table2(
    scale: ExperimentScale = ExperimentScale.FULL, seed: int = 3
) -> Table2Result:
    """Report the paper's grid cost alongside the measured Adaptive cost.

    The Cherrypick columns restate the search dimensions (trial counts ×
    trial durations — the cost structure is the paper's point, and the
    per-trial hours are wall-clock properties of their EC2 testbed); the
    Adaptive column is *measured* here by running each workload once with
    the adaptive tuner and timing Algorithm 1's scans.
    """
    cluster = paper_cluster(scale)
    workloads = PAPER_WORKLOADS(seed)
    summaries = run_cells(
        [
            Cell(w.name, w, cluster, SpecSyncPolicy.adaptive,
                 horizon_s=w.default_horizon_s if scale is ExperimentScale.FULL
                 else w.paper_iteration_time_s * 30)
            for w in workloads
        ],
        lambda run: run.result.policy_summary,
        seed,
    )
    return Table2Result(rows=[
        Table2Row(
            workload=w.name,
            time_trials=int(PAPER_TABLE2[w.name]["time_trials"]),
            rate_trials=int(PAPER_TABLE2[w.name]["rate_trials"]),
            trial_hours=PAPER_TABLE2[w.name]["trial_hours"],
            cherrypick_total_hours=PAPER_TABLE2[w.name]["total_hours"],
            adaptive_tuning_wall_s=summaries[w.name]["tuning_wall_s"],
            adaptive_epochs_tuned=summaries[w.name]["epochs_completed"],
        )
        for w in workloads
    ])
