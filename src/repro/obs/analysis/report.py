"""``repro analyze`` — the analytics bundle and its renderers.

:func:`analyze_trace` reduces a parsed trace file to one JSON-ready
object::

    {
      "schema_version": 1,
      "trace_format_version": 2,
      "runs": [
        {"index": 0, "domain": "virtual", "scheme": "...", ...,
         "critical_path": {...}, "per_worker": {...},
         "ledger": {...}, "staleness": {...}}
      ]
    }

Determinism: every float is rounded to 9 decimals and consumers dump
with ``sort_keys=True``, so a seeded DES run produces a byte-identical
analytics file (pinned by a golden test, ``REPRO_REGEN_GOLDEN=1`` to
regenerate).
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.analysis.critical_path import (
    ATTRIBUTION_CATEGORIES,
    critical_path,
    per_worker_breakdown,
)
from repro.obs.analysis.graph import CausalGraph
from repro.obs.analysis.ledger import speculation_ledger, staleness_distributions
from repro.utils.tables import TextTable

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "analyze_trace",
    "render_analysis_text",
    "render_analysis_comparison",
]

#: Bumped whenever the analytics JSON changes shape.
ANALYSIS_SCHEMA_VERSION = 1


def _rounded(value):
    """Round every float in a nested structure to 9 decimals (determinism)."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def analyze_trace(trace: dict) -> dict:
    """Full analytics for one parsed trace object.

    Raises:
        AnalysisError: when the trace cannot support causal analysis
            (see :class:`repro.obs.analysis.graph.CausalGraph`).
    """
    graph = CausalGraph.from_trace(trace)
    runs: List[dict] = []
    for run in graph.runs:
        runs.append(
            {
                "index": run.index,
                "domain": run.domain,
                "explicit": run.explicit,
                "workload": run.meta.get("workload"),
                "scheme": run.meta.get("scheme"),
                "seed": run.meta.get("seed"),
                "workers": len(run.worker_tracks()),
                "duration_s": run.duration_s,
                "total_iterations": run.end_meta.get("total_iterations"),
                "total_aborts": run.end_meta.get("total_aborts"),
                "critical_path": critical_path(run),
                "per_worker": per_worker_breakdown(run),
                "ledger": speculation_ledger(run),
                "staleness": staleness_distributions(run),
            }
        )
    return _rounded(
        {
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "trace_format_version": graph.format_version,
            "runs": runs,
        }
    )


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def _run_label(run: dict) -> str:
    parts = [f"run {run['index']}"]
    if run.get("workload"):
        parts.append(str(run["workload"]))
    if run.get("scheme"):
        parts.append(str(run["scheme"]))
    parts.append(f"{run['domain']} time")
    return " · ".join(parts)


def _category_row(by_category: Dict[str, float], total: float) -> List[str]:
    cells = []
    for category in ATTRIBUTION_CATEGORIES:
        seconds = by_category.get(category, 0.0)
        share = f" ({seconds / total:.1%})" if total else ""
        cells.append(f"{seconds:.4g}s{share}")
    return cells


def render_analysis_text(analysis: dict) -> str:
    """Human-readable analytics report, one section group per run."""
    sections: List[str] = [
        f"trace analytics (schema v{analysis['schema_version']}, "
        f"{len(analysis['runs'])} run(s))"
    ]
    for run in analysis["runs"]:
        path = run["critical_path"]
        table = TextTable(
            ["path"] + [c.replace("_", "-") for c in ATTRIBUTION_CATEGORIES],
            title=f"{_run_label(run)} — critical-path attribution "
                  f"(total {path['total_s']:.6g}s on {path['track']})",
        )
        table.add_row(
            ["critical"] + _category_row(path["by_category"], path["total_s"])
        )
        for track in sorted(run["per_worker"]):
            worker = run["per_worker"][track]
            table.add_row(
                [track]
                + _category_row(worker["by_category"], worker["total_s"])
            )
        sections.append(table.render())

        ledger = run["ledger"]
        lines = [
            f"speculation ledger: {ledger['total_aborts']} aborts, "
            f"{ledger['total_aborted_compute_s']:.6g}s aborted compute"
        ]
        if ledger.get("mean_realized_gain") is not None:
            lines.append(
                f"  mean realized freshness gain: "
                f"{ledger['mean_realized_gain']:.3g} versions/abort"
            )
        if ledger.get("observed_window_s") is not None:
            lines.append(
                f"  observed speculation window Δ ≈ "
                f"{ledger['observed_window_s']:.6g}s"
            )
        analytic = ledger.get("analytic_gain_by_worker") or {}
        empirical = ledger.get("empirical_gain_by_worker") or {}
        for worker in sorted(analytic, key=int):
            lines.append(
                f"  w{worker}: empirical gain {empirical.get(worker, 0):.3g} "
                f"vs analytic ũ(Δ) {analytic[worker]:.3g}"
            )
        curve = ledger.get("freshness_curve") or []
        if curve:
            best = max(curve, key=lambda p: p["improvement"])
            lines.append(
                f"  empirical F(Δ) curve: {len(curve)} candidates, "
                f"best Δ={best['window_s']:.6g}s "
                f"(F̃={best['improvement']:.4g})"
            )
        sections.append("\n".join(lines))

        staleness = run["staleness"]
        if staleness["per_worker"]:
            bound = staleness.get("bound")
            title = "staleness of applied pushes"
            if bound is not None:
                title += f" (SSP bound s={bound})"
            table = TextTable(
                ["worker", "pushes", "mean", "p95", "max"], title=title
            )
            for worker in sorted(staleness["per_worker"], key=int):
                stats = staleness["per_worker"][worker]
                table.add_row(
                    [
                        f"w{worker}",
                        str(stats["count"]),
                        f"{stats['mean']:.3g}" if stats["mean"] is not None else "-",
                        f"{stats['p95']:.3g}" if stats["p95"] is not None else "-",
                        f"{stats['max']:.3g}" if stats["max"] is not None else "-",
                    ]
                )
            sections.append(table.render())
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# Comparison rendering
# ----------------------------------------------------------------------
def _run_key(run: dict) -> tuple:
    return (run.get("workload"), run.get("scheme"), run.get("domain"))


def render_analysis_comparison(old: dict, new: dict) -> str:
    """Delta view between two analyses (matched by workload/scheme/domain)."""
    old_runs = {_run_key(run): run for run in old["runs"]}
    sections: List[str] = []
    table = TextTable(
        ["run", "category", "old s", "new s", "delta"],
        title="critical-path attribution deltas",
    )
    matched = 0
    for run in new["runs"]:
        other = old_runs.get(_run_key(run))
        if other is None:
            continue
        matched += 1
        label = _run_label(run)
        for category in ATTRIBUTION_CATEGORIES:
            old_s = other["critical_path"]["by_category"].get(category, 0.0)
            new_s = run["critical_path"]["by_category"].get(category, 0.0)
            if old_s == 0.0 and new_s == 0.0:
                continue
            table.add_row(
                [
                    label,
                    category.replace("_", "-"),
                    f"{old_s:.6g}",
                    f"{new_s:.6g}",
                    f"{new_s - old_s:+.6g}",
                ]
            )
        old_ledger, new_ledger = other["ledger"], run["ledger"]
        table.add_row(
            [
                label,
                "aborted-compute",
                f"{old_ledger['total_aborted_compute_s']:.6g}",
                f"{new_ledger['total_aborted_compute_s']:.6g}",
                f"{new_ledger['total_aborted_compute_s'] - old_ledger['total_aborted_compute_s']:+.6g}",
            ]
        )
    if not matched:
        return (
            "no comparable runs (workload/scheme/domain keys do not "
            "overlap between the two analyses)"
        )
    sections.append(table.render())
    return "\n\n".join(sections)
