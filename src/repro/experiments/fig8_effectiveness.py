"""Fig. 8 — effectiveness: loss-over-time and runtime-to-convergence.

For each Table-I workload on Cluster 1 (40 × m4.xlarge), runs the paper's
three schemes — Original (ASP), SpecSync-Cherrypick, SpecSync-Adaptive —
and reports each scheme's loss curve, runtime to convergence (loss below
target for 5 consecutive evaluations), and speedup over Original.

Paper headline: up to 2.97× (MF), 2.25× (CIFAR-10), 3× (ImageNet); and the
Adaptive variant lands close to Cherrypick.

With several ``seeds`` (a robustness extension: the paper reports point
estimates from single deployments) every cell runs once per seed and the
table reports the fraction of seeds that converged and the mean ± std
runtime.  Multi-seed at full scale multiplies the cost by the seed count,
so the default bench gates it on ``REPRO_MULTISEED=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import (
    Cell,
    CellRun,
    ExperimentScale,
    format_speedup,
    format_time,
    paper_cluster,
    paper_workloads,
    render_table,
    run_grid,
    scheme_catalog,
    time_to_target,
)
from repro.ps.result import RunResult
from repro.workloads.base import Workload

__all__ = ["Fig8Cell", "Fig8Result", "run_fig8", "FIG8_SCHEMES"]

FIG8_SCHEMES = ("original", "cherrypick", "adaptive")


@dataclass
class Fig8Cell:
    """One (workload, scheme) cell of the effectiveness matrix.

    ``result`` is the first seed's run; ``times_to_target`` holds every
    seed's runtime to convergence (None = did not converge).
    """

    workload: str
    scheme: str
    display_name: str
    result: Optional[RunResult]
    times_to_target: Tuple[Optional[float], ...]

    @property
    def time_to_convergence(self) -> Optional[float]:
        """The first seed's runtime to convergence."""
        return self.times_to_target[0]

    @property
    def converged(self) -> bool:
        """Whether the first seed's run converged."""
        return self.time_to_convergence is not None

    @property
    def converged_times(self) -> List[float]:
        """The runtimes of the seeds that converged."""
        return [t for t in self.times_to_target if t is not None]

    @property
    def converged_fraction(self) -> float:
        return len(self.converged_times) / len(self.times_to_target)

    @property
    def mean_time_to_target(self) -> Optional[float]:
        times = self.converged_times
        return float(np.mean(times)) if times else None

    @property
    def std_time_to_target(self) -> Optional[float]:
        """Sample std of the converged runtimes (None below two samples)."""
        times = self.converged_times
        return float(np.std(times, ddof=1)) if len(times) >= 2 else None


@dataclass
class Fig8Result:
    """The effectiveness matrix: one cell per (workload, scheme)."""

    cells: List[Fig8Cell]
    targets: Dict[str, float]
    seeds: Tuple[int, ...] = (3,)

    def cell(self, workload: str, scheme: str) -> Fig8Cell:
        """Look up one (workload, scheme) cell."""
        for cell in self.cells:
            if cell.workload == workload and cell.scheme == scheme:
                return cell
        raise KeyError(f"no cell for ({workload}, {scheme})")

    def speedup(self, workload: str, scheme: str) -> Optional[float]:
        """Mean-runtime speedup of ``scheme`` over Original on ``workload``."""
        base = self.cell(workload, "original").mean_time_to_target
        mine = self.cell(workload, scheme).mean_time_to_target
        if base is None or not mine:
            return None
        return base / mine

    def workloads(self) -> List[str]:
        """Workload names in first-seen order."""
        seen: List[str] = []
        for cell in self.cells:
            if cell.workload not in seen:
                seen.append(cell.workload)
        return seen

    def render(self, with_curves: bool = True) -> str:
        """The matrix as a table, plus the loss curves for a single seed."""
        if len(self.seeds) > 1:
            return self._render_seeds()
        table = render_table(
            "Fig. 8: Effectiveness of SpecSync (Cluster 1)",
            ["Workload", "Scheme", "Runtime to convergence",
             "Speedup vs Original", "Final loss", "Aborts"],
            (
                [
                    f"{cell.workload} (target {self.targets[cell.workload]})",
                    cell.display_name,
                    format_time(cell.time_to_convergence),
                    format_speedup(self.speedup(cell.workload, cell.scheme)),
                    f"{cell.result.final_loss:.3f}",
                    cell.result.total_aborts,
                ]
                for cell in self.cells
            ),
        )
        blocks = [table]
        if with_curves:
            blocks.extend(self._render_curves())
        return "\n\n".join(blocks)

    def _render_seeds(self) -> str:
        rows = []
        for cell in self.cells:
            mean_time = cell.mean_time_to_target
            std_time = cell.std_time_to_target
            if mean_time is None:
                time_text = "never"
            elif std_time is None:
                time_text = f"{mean_time:.0f}s"
            else:
                time_text = f"{mean_time:.0f}s ± {std_time:.0f}s"
            rows.append([
                cell.workload,
                cell.scheme,
                f"{cell.converged_fraction:.0%}",
                time_text,
                format_speedup(self.speedup(cell.workload, cell.scheme)),
            ])
        return render_table(
            f"Fig. 8 across seeds {self.seeds}",
            ["Workload", "Scheme", "Converged", "Runtime (mean±std)",
             "Speedup vs Original"],
            rows,
        )

    def _render_curves(self) -> List[str]:
        """The loss-over-time panels of Fig. 8, as ASCII plots.

        Transient early-training loss spikes would flatten the interesting
        convergence region, so the y-axis is clipped at the 90th percentile
        of all plotted values (marked in the panel title when it bites).
        """
        from repro.utils.ascii_plot import ascii_plot

        blocks = []
        for workload in self.workloads():
            series = {
                cell.scheme: cell.result.curve.as_series()
                for cell in self.cells
                if cell.workload == workload
                and cell.result is not None and len(cell.result.curve)
            }
            if not series:
                continue
            values = sorted(v for pts in series.values() for _, v in pts)
            cap = values[int(len(values) * 0.9)] if len(values) > 10 else values[-1]
            clipped = {
                name: [(t, min(v, cap)) for t, v in pts]
                for name, pts in series.items()
            }
            capped = cap < values[-1]
            title = f"loss over time ({workload})" + (
                f" [y clipped at {cap:.3g}]" if capped else ""
            )
            blocks.append(
                title + ":\n"
                + ascii_plot(clipped, x_label="virtual s", y_label="loss")
            )
        return blocks


def run_fig8(
    scale: ExperimentScale = ExperimentScale.FULL,
    seed: int = 3,
    schemes: Sequence[str] = FIG8_SCHEMES,
    workloads: Optional[Sequence[Workload]] = None,
    seeds: Sequence[int] = (),
) -> Fig8Result:
    """Race ``schemes`` on each workload; ``seeds`` (default ``(seed,)``)
    repeats every cell once per seed."""
    seeds = tuple(seeds) or (seed,)
    cluster = paper_cluster(scale)
    workloads = paper_workloads(scale, seeds[0], workloads)
    catalogs = {workload.name: scheme_catalog(workload.name) for workload in workloads}
    # early_stop halts each run once the paper's convergence criterion
    # holds — runtime-to-convergence is unaffected.
    grid = [
        Cell((workload.name, key), workload, cluster,
             catalogs[workload.name][key].factory, early_stop=True)
        for workload in workloads
        for key in schemes
    ]

    def extract(run: CellRun) -> Tuple[Optional[RunResult], Optional[float]]:
        # Only the first seed's run is kept whole (curves, loss, aborts).
        kept = run.result if run.seed == seeds[0] else None
        return kept, time_to_target(run)

    runs = run_grid(grid, extract, seeds)
    cells = [
        Fig8Cell(
            workload=cell.workload.name,
            scheme=cell.key[1],
            display_name=catalogs[cell.workload.name][cell.key[1]].display_name,
            result=runs[cell.key, seeds[0]][0],
            times_to_target=tuple(runs[cell.key, s][1] for s in seeds),
        )
        for cell in grid
    ]
    targets = {w.name: w.convergence.target_loss for w in workloads}
    return Fig8Result(cells=cells, targets=targets, seeds=seeds)
