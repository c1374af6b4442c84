"""Fig. 12 — accumulated data transfer over time, Original vs Adaptive.

The paper's claims, both checked here:

* the accumulated-transfer curves of Original and SpecSync-Adaptive stay
  close at all times (SpecSync adds only small re-pull + control traffic
  per unit time);
* because SpecSync converges sooner, its *total* transfer to convergence is
  smaller (the paper's CIFAR-10 example: 3.17 TB vs 2.00 TB, ≈ 40% less).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import (
    Cell, CellRun, ExperimentScale, nest, paper_cluster, paper_workloads,
    ratio, run_cells, scheme_catalog, time_to_target, unzip,
)
from repro.utils.tables import TextTable, format_bytes
from repro.workloads.base import Workload

__all__ = ["Fig12Result", "run_fig12"]


@dataclass
class Fig12Result:
    #: workload -> scheme -> (time, cumulative bytes) series
    series: Dict[str, Dict[str, List[Tuple[float, float]]]]
    #: workload -> scheme -> total bytes transferred by convergence
    total_to_convergence: Dict[str, Dict[str, Optional[float]]]
    #: workload -> scheme -> mean transfer rate (bytes per virtual second)
    rate: Dict[str, Dict[str, float]]

    def rate_overhead(self, workload: str) -> float:
        """Adaptive's transfer-rate overhead over Original (0.05 = +5%)."""
        orig = self.rate[workload]["original"]
        spec = self.rate[workload]["adaptive"]
        return spec / orig - 1.0

    def transfer_saving(self, workload: str) -> Optional[float]:
        """Fractional total-transfer saving to convergence (paper: ~40%)."""
        totals = self.total_to_convergence[workload]
        share = ratio(totals["adaptive"], totals["original"])
        return None if share is None else 1.0 - share

    def render(self) -> str:
        table = TextTable(
            ["Workload", "Scheme", "Rate (bytes/s)", "Total to convergence",
             "Saving"],
            title="Fig. 12: Accumulated data transfer",
        )
        for workload, per_scheme in self.total_to_convergence.items():
            saving = self.transfer_saving(workload)
            for scheme in ("original", "adaptive"):
                total = per_scheme[scheme]
                table.add_row(
                    [
                        workload,
                        scheme,
                        format_bytes(self.rate[workload][scheme]),
                        format_bytes(total) if total is not None else "n/a",
                        f"{saving:.0%}" if (
                            scheme == "adaptive" and saving is not None
                        ) else "-",
                    ]
                )
        return table.render()


def run_fig12(
    scale: ExperimentScale = ExperimentScale.FULL,
    seed: int = 3,
    workloads: Optional[Sequence[Workload]] = None,
    num_samples: int = 50,
) -> Fig12Result:
    cluster = paper_cluster(scale)
    workloads = paper_workloads(scale, seed, workloads)

    def extract(run: CellRun) -> Tuple[List[Tuple[float, float]], Optional[float], float]:
        ledger = run.result.ledger
        horizon = run.cell.workload.default_horizon_s
        converge_time = time_to_target(run)
        return (
            ledger.cumulative_series(list(np.linspace(0.0, horizon, num_samples))),
            ledger.cumulative_at(converge_time) if converge_time is not None else None,
            ledger.total_bytes / horizon,
        )

    series, totals, rates = unzip(run_cells(
        [
            Cell((w.name, key), w, cluster,
                 scheme_catalog(w.name)[key].factory)
            for w in workloads
            for key in ("original", "adaptive")
        ],
        extract, seed,
    ))
    return Fig12Result(
        series=nest(series), total_to_convergence=nest(totals), rate=nest(rates)
    )
