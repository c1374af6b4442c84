"""Staleness statistics: the quantity SpecSync directly improves.

Staleness of an applied push = number of peer updates the gradient's
snapshot missed.  This module summarizes its distribution (mean, quantiles,
tail mass) from a run's push trace, and compares two runs — the measurement
behind the freshness claims in the paper's Sections III-IV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.metrics.traces import TraceRecorder
from repro.utils.tables import TextTable

__all__ = ["StalenessStats", "StalenessAnalysis", "compare_staleness"]


@dataclass(frozen=True)
class StalenessStats:
    """Summary statistics of one staleness distribution."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    max_value: int

    @classmethod
    def from_values(cls, values: List[int]) -> "StalenessStats":
        if not values:
            raise ValueError("no staleness samples")
        arr = np.asarray(values, dtype=np.float64)
        return cls(
            count=len(values),
            mean=float(arr.mean()),
            median=float(np.median(arr)),
            p95=float(np.percentile(arr, 95)),
            p99=float(np.percentile(arr, 99)),
            max_value=int(arr.max()),
        )


class StalenessAnalysis:
    """Staleness distribution of one run, overall and per worker."""

    def __init__(self, traces: TraceRecorder):
        pushes = traces.pushes
        if not pushes:
            raise ValueError("trace contains no pushes")
        self.values = pushes.column("staleness").tolist()
        self.overall = StalenessStats.from_values(self.values)
        self._per_worker: Dict[int, List[int]] = {}
        for worker_id, staleness in zip(pushes.column("worker_id"), self.values):
            self._per_worker.setdefault(worker_id, []).append(staleness)

    def per_worker(self) -> Dict[int, StalenessStats]:
        """Summary per worker (stragglers show up as heavy tails here)."""
        return {
            worker: StalenessStats.from_values(values)
            for worker, values in self._per_worker.items()
        }

    def tail_mass(self, threshold: float) -> float:
        """Fraction of pushes whose staleness exceeds ``threshold``."""
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        return sum(1 for v in self.values if v > threshold) / len(self.values)

    def histogram(self, num_bins: int = 10) -> Dict[str, int]:
        """Counts per staleness bin, for quick terminal inspection."""
        if num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        counts, edges = np.histogram(self.values, bins=num_bins)
        return {
            f"[{edges[i]:.0f}, {edges[i + 1]:.0f})": int(counts[i])
            for i in range(num_bins)
        }


def compare_staleness(
    runs: Dict[str, TraceRecorder], tail_threshold: float = 0.0
) -> str:
    """Render a staleness comparison table across named runs.

    ``tail_threshold`` defaults to the cross-run mean, highlighting how
    much of each run's distribution sits in the harmful tail.
    """
    analyses = {name: StalenessAnalysis(t) for name, t in runs.items()}
    if tail_threshold <= 0.0:
        tail_threshold = float(
            np.mean([a.overall.mean for a in analyses.values()])
        )
    table = TextTable(
        ["run", "pushes", "mean", "median", "p95", "p99",
         f"tail > {tail_threshold:.0f}"],
        title="Staleness comparison (missed peer updates per applied push)",
    )
    for name, analysis in analyses.items():
        stats = analysis.overall
        table.add_row(
            [
                name,
                stats.count,
                f"{stats.mean:.1f}",
                f"{stats.median:.0f}",
                f"{stats.p95:.0f}",
                f"{stats.p99:.0f}",
                f"{analysis.tail_mass(tail_threshold):.0%}",
            ]
        )
    return table.render()
