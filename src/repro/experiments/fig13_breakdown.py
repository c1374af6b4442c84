"""Fig. 13 — data-transfer breakdown for SpecSync-Adaptive.

Splits the total transfer of an Adaptive run into parameter pulls, gradient
pushes, and SpecSync control traffic (notify / re-sync / acks), per
workload.  The control share should be negligible — the property that makes
the centralized-scheduler design viable (paper Section V-A).

Each run is traced and fed through :mod:`repro.obs.analysis`, so the table
is accompanied by a per-scheme critical-path/wasted-work breakdown (ASP vs
SSP vs Adaptive) on the same seeds; the traced Adaptive run's ledger is the
byte table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro import obs
from repro.experiments.common import (
    Cell, CellRun, ExperimentScale, nest, paper_cluster, paper_workloads,
    run_cells, scheme_catalog, unzip,
)
from repro.utils.tables import TextTable, format_bytes
from repro.workloads.base import Workload

__all__ = ["Fig13Result", "run_fig13"]

#: schemes the analytics table compares (the paper's headline trio)
_ANALYTICS_SCHEMES = ("original", "ssp", "adaptive")


@dataclass
class Fig13Result:
    #: workload -> category -> bytes
    breakdown: Dict[str, Dict[str, float]]
    #: workload -> fine-grained per-kind bytes
    by_kind: Dict[str, Dict[str, float]]
    #: workload -> scheme -> trace-analytics summary (critical-path
    #: categories, abort/wasted-work totals); empty when tracing failed
    analytics: Dict[str, Dict[str, dict]] = field(default_factory=dict)

    def control_fraction(self, workload: str) -> float:
        per_cat = self.breakdown[workload]
        total = sum(per_cat.values())
        return per_cat.get("control", 0.0) / total if total else 0.0

    def render(self) -> str:
        table = TextTable(
            ["Workload", "Pull", "Push", "Control", "Control share"],
            title="Fig. 13: SpecSync-Adaptive transfer breakdown",
        )
        for workload, per_cat in self.breakdown.items():
            table.add_row(
                [
                    workload,
                    format_bytes(per_cat.get("pull", 0.0)),
                    format_bytes(per_cat.get("push", 0.0)),
                    format_bytes(per_cat.get("control", 0.0)),
                    f"{self.control_fraction(workload):.4%}",
                ]
            )
        sections = [table.render()]
        for workload, per_scheme in self.analytics.items():
            analytics = TextTable(
                ["Scheme", "Compute s", "Network s", "Sync-wait s",
                 "Wasted s", "Aborts", "Gain/abort"],
                title=f"{workload}: per-scheme critical-path analytics",
            )
            for scheme, summary in per_scheme.items():
                by_cat = summary["by_category"]
                gain = summary.get("mean_realized_gain")
                analytics.add_row(
                    [
                        scheme,
                        f"{by_cat.get('compute', 0.0):.4g}",
                        f"{by_cat.get('network', 0.0):.4g}",
                        f"{by_cat.get('sync_wait', 0.0):.4g}",
                        f"{summary.get('aborted_compute_s', 0.0):.4g}",
                        str(summary.get("total_aborts", 0)),
                        f"{gain:.3g}" if gain is not None else "-",
                    ]
                )
            sections.append(analytics.render())
        return "\n\n".join(sections)


def run_fig13(
    scale: ExperimentScale = ExperimentScale.FULL,
    seed: int = 3,
    workloads: Optional[Sequence[Workload]] = None,
) -> Fig13Result:
    cluster = paper_cluster(scale)
    workloads = paper_workloads(scale, seed, workloads)
    summaries, by_category, by_kind = unzip(run_cells(
        [
            Cell((w.name, key), w, cluster,
                 scheme_catalog(w.name)[key].factory, traced=True)
            for w in workloads
            for key in _ANALYTICS_SCHEMES
        ],
        _analytics, seed,
    ))
    return Fig13Result(
        breakdown={w.name: by_category[w.name, "adaptive"] for w in workloads},
        by_kind={w.name: by_kind[w.name, "adaptive"] for w in workloads},
        analytics=nest(summaries),
    )


def _analytics(run: CellRun) -> Tuple[dict, Dict[str, float], Dict[str, float]]:
    """One traced run, reduced to its analytics summary row and its bytes."""
    (analysis,) = obs.analyze_records(run.records)["runs"]
    ledger = analysis["ledger"]
    summary = {
        "by_category": analysis["critical_path"]["by_category"],
        "total_s": analysis["critical_path"]["total_s"],
        "total_aborts": ledger["total_aborts"],
        "aborted_compute_s": ledger["total_aborted_compute_s"],
        "mean_realized_gain": ledger["mean_realized_gain"],
    }
    return (
        summary,
        run.result.ledger.bytes_by_category(),
        run.result.ledger.bytes_by_kind(),
    )
