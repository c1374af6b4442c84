"""Fig. 13 — data-transfer breakdown for SpecSync-Adaptive.

Splits the total transfer of an Adaptive run into parameter pulls, gradient
pushes, and SpecSync control traffic (notify / re-sync / acks), per
workload.  The control share should be negligible — the property that makes
the centralized-scheduler design viable (paper Section V-A).

Each run is also traced and fed through :mod:`repro.obs.analysis`, so the
table is accompanied by a per-scheme critical-path/wasted-work breakdown
(ASP vs SSP vs Adaptive) on the same seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.cluster.spec import ClusterSpec
from repro.experiments.common import ExperimentScale, run_scheme, scheme_catalog
from repro.utils.tables import TextTable, format_bytes
from repro.workloads.base import Workload
from repro.workloads.presets import PAPER_WORKLOADS

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
    num_workers = 40 if scale is ExperimentScale.FULL else 10
    cluster = ClusterSpec.homogeneous(num_workers)
    if workloads is None:
        workloads = PAPER_WORKLOADS(seed)
        if scale is ExperimentScale.SMOKE:
            workloads = workloads[:1]

    breakdown: Dict[str, Dict[str, float]] = {}
    by_kind: Dict[str, Dict[str, float]] = {}
    analytics: Dict[str, Dict[str, dict]] = {}
    for workload in workloads:
        catalog = scheme_catalog(workload.name)
        result = run_scheme(workload, cluster, catalog["adaptive"], seed=seed)
        breakdown[workload.name] = result.ledger.bytes_by_category()
        by_kind[workload.name] = result.ledger.bytes_by_kind()
        analytics[workload.name] = {
            scheme: _traced_analytics(workload, cluster, catalog[scheme], seed)
            for scheme in _ANALYTICS_SCHEMES
        }
    return Fig13Result(
        breakdown=breakdown, by_kind=by_kind, analytics=analytics
    )


def _traced_analytics(workload, cluster, spec, seed: int) -> dict:
    """One traced run of ``spec``, reduced to the analytics summary row.

    Reuses an ambient collector when the whole experiment is being traced
    (``repro experiment fig13 --trace``) and analyses only the records
    this run appended to it.
    """
    from repro import obs

    collector = obs.current_collector()
    if collector is not None:
        first = len(collector.records)
        run_scheme(workload, cluster, spec, seed=seed)
    else:
        first = 0
        collector = obs.TraceCollector()
        with obs.collecting(collector):
            run_scheme(workload, cluster, spec, seed=seed)
    (run,) = obs.analyze_records(collector.records[first:])["runs"]
    ledger = run["ledger"]
    return {
        "by_category": run["critical_path"]["by_category"],
        "total_s": run["critical_path"]["total_s"],
        "total_aborts": ledger["total_aborts"],
        "aborted_compute_s": ledger["total_aborted_compute_s"],
        "mean_realized_gain": ledger["mean_realized_gain"],
    }


if __name__ == "__main__":
    print(run_fig13(ExperimentScale.from_env()).render())
