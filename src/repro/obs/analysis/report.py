"""``repro analyze`` — the analytics bundle and its renderers, the one
reader of a run's records.

:func:`analyze_trace` reduces a parsed trace file, and
:func:`analyze_records` a collector's records in process, to the same
JSON-ready object::

    {
      "schema_version": 3,
      "trace_format_version": 3,
      "runs": [
        {"index": 0, "domain": "virtual", "scheme": "...", ...,
         "critical_path": {...}, "per_worker": {...},
         "ledger": {...}, "staleness": {...},
         "phases": {"pull": {"count": 43, "p50": ...}, ...},
         "detectors": {"straggler": {...}, "abort_storm": {...}}}
      ],
      "recording": {
        "events": 276, "tracks": 5, "metadata": {...},
        "spans": {"pull": {"count": 43, "total_s": 0.045}, ...},
        "instants": {"abort": 5, ...}, "flow_pairs": {"abort": 10},
        "metrics": {...}
      }
    }

``phases`` and ``detectors`` are derived from the run's worker spans
(:mod:`repro.obs.analysis.phases`); ``recording.metrics`` is the trace's
own section, copied unchanged.

Determinism: every other float is rounded to 9 decimals and consumers
dump with ``sort_keys=True``, so a seeded DES run produces a
byte-identical analytics file (pinned by a golden test,
``REPRO_REGEN_GOLDEN=1`` to regenerate).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.analysis.critical_path import (
    ATTRIBUTION_CATEGORIES,
    attribute,
)
from repro.obs.analysis.graph import (
    CausalGraph,
    Recording,
    frame_records,
    load_trace,
)
from repro.obs.analysis.ledger import speculation_ledger, staleness_distributions
from repro.obs.core import AnyRecord
from repro.obs.analysis.phases import detector_reports, phase_stats
from repro.utils.tables import TextTable

__all__ = [
    "ANALYSIS_SCHEMA_VERSION",
    "analyze_records",
    "analyze_trace",
    "render_analysis_text",
    "render_analysis_comparison",
]

#: Bumped whenever the analytics JSON changes shape.
#: v2: the top-level "recording" block.
#: v3: per-run "phases" and "detectors"; no "recording.perf".
ANALYSIS_SCHEMA_VERSION = 3

_US_TO_S = 1e-6


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
            (see :func:`repro.obs.analysis.graph.load_trace`).
    """
    return _analyze(load_trace(trace))


def analyze_records(
    records: Sequence[AnyRecord],
    metadata: Optional[Dict[object, object]] = None,
    metrics: Optional[dict] = None,
) -> dict:
    """Full analytics of a collector's records in process: equal to
    :func:`analyze_trace` of the trace the collector would export
    (``metrics`` is its metrics snapshot)."""
    return _analyze(frame_records(records, metadata, metrics))


def _analyze(recording: Recording) -> dict:
    graph = CausalGraph.from_records(recording.records, recording.metadata)
    runs: List[dict] = []
    for run in graph.runs:
        path, per_worker = attribute(run)
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
                "critical_path": path,
                "per_worker": per_worker,
                "ledger": speculation_ledger(run),
                "staleness": staleness_distributions(run),
                "phases": phase_stats(run),
                "detectors": detector_reports(run),
            }
        )
    analysis = _rounded(
        {
            "schema_version": ANALYSIS_SCHEMA_VERSION,
            "trace_format_version": recording.format_version,
            "runs": runs,
            "recording": {
                "events": recording.events,
                "tracks": recording.tracks,
                "metadata": {
                    key: value for key, value in recording.metadata.items()
                    if key != "format_version"
                },
                "spans": {
                    name: {"count": count, "total_s": total_us * _US_TO_S}
                    for name, (count, total_us) in recording.span_totals.items()
                },
                "instants": recording.instant_counts,
                "flow_pairs": recording.flow_pairs,
            },
        }
    )
    analysis["recording"]["metrics"] = recording.metrics
    return analysis


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


def _fmt(value: Optional[float]) -> str:
    return f"{value:.6g}" if value is not None else "-"


def _render_metrics(metrics: dict) -> Optional[str]:
    scalars = {**metrics.get("counters", {}), **metrics.get("gauges", {})}
    histograms = metrics.get("histograms", {})
    if not (scalars or histograms):
        return None
    table = TextTable(["metric", "value"], title="metrics")
    for name in sorted(scalars):
        table.add_row([name, f"{scalars[name]:g}"])
    for name in sorted(histograms):
        agg = histograms[name]
        table.add_row([
            name, f"count={agg.get('count')} mean={_fmt(agg.get('mean'))} "
                  f"p99={_fmt(agg.get('p99'))}",
        ])
    return table.render()


def _render_data_quality(metrics: dict) -> str:
    """Is the recording complete?  Flow origins, ring drops, torn reads."""
    counters = metrics.get("counters", {})
    lines = [
        "data quality",
        f"  flow origins: {counters.get('obs.flow_origins_registered', 0):g} "
        f"emitted, {counters.get('obs.flow_arrows_closed', 0):g} closed, "
        f"{counters.get('obs.flow_origins_discarded', 0):g} discarded",
    ]
    for label, values, prefix, suffix in (
        ("live ring drops", metrics.get("gauges", {}), "live.ring.", ".dropped"),
        ("shm torn-read retries", counters, "shm.", ".torn_read_retries"),
    ):
        found = [
            f"{name[len(prefix):-len(suffix)]}={values[name]:g}"
            for name in sorted(values)
            if name.startswith(prefix) and name.endswith(suffix)
        ]
        if found:
            lines.append(f"  {label}: {', '.join(found)}")
    return "\n".join(lines)


def _render_phases(phases: Dict[str, dict]) -> str:
    table = TextTable(
        ["phase", "count", "mean s", "p50 s", "p90 s", "p99 s", "max s"],
        title="worker phase percentiles",
    )
    for name, agg in phases.items():
        table.add_row([name, str(agg["count"])] + [
            _fmt(agg[key]) for key in ("mean", "p50", "p90", "p99", "max")
        ])
    return table.render()


def _render_detectors(detectors: Dict[str, dict]) -> str:
    straggler, storm = detectors["straggler"], detectors["abort_storm"]
    flagged = ", ".join(f"w{w}" for w in straggler["stragglers"])
    return (
        f"detectors: {f'STRAGGLERS {flagged}' if flagged else 'no stragglers'}; "
        f"abort storm {'STORMING' if storm['storming'] else 'calm'} "
        f"(ratio {_fmt(storm['abort_ratio'])}, {storm['storm_count']} storms, "
        f"{storm['total_aborts']} aborts)"
    )


def render_analysis_text(analysis: dict) -> str:
    """Human-readable analytics report: one section group per run (with
    its phase percentiles and detector verdicts), then what the trace
    recorded (data quality, metrics)."""
    recording = analysis["recording"]
    metrics = recording["metrics"]
    header = (
        f"trace analytics (schema v{analysis['schema_version']}, "
        f"{len(analysis['runs'])} run(s)): {recording['events']} events "
        f"on {recording['tracks']} tracks"
    )
    context = ", ".join(
        f"{key}={value}" for key, value in sorted(recording["metadata"].items())
    )
    sections: List[str] = [f"{header} ({context})" if context else header]
    if not recording["events"]:
        if not any(metrics.values()):
            sections.append(
                "trace file is empty (no events or metrics) — "
                "was instrumentation enabled during capture?"
            )
            return "\n\n".join(sections)
        sections.append("no trace events (metrics-only capture)")
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
        sections.append(_render_phases(run["phases"]))
        sections.append(_render_detectors(run["detectors"]))

    sections.append(_render_data_quality(metrics))
    rendered = _render_metrics(metrics)
    if rendered:
        sections.append(rendered)
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
