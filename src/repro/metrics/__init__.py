"""Metrics: event traces, PAP analysis, learning curves, convergence.

Everything the evaluation section measures comes out of this package:
pull/push traces feed the Fig. 3 PAP analysis, eval-loss curves feed
Figs. 5/8/9/10/11, and the convergence detector implements the paper's
"loss below target for 5 consecutive evaluations" runtime criterion.
"""

from repro.metrics.traces import TraceRecorder, PullEvent, PushEvent, AbortEvent
from repro.metrics.pap import PapAnalysis, pap_interval_counts, pap_box_stats, BoxStats
from repro.metrics.curves import LossCurve, EvalPoint
from repro.metrics.convergence import ConvergenceCriterion, detect_convergence
from repro.metrics.staleness import StalenessAnalysis, StalenessStats, compare_staleness
from repro.metrics.serialize import curve_from_dict, curve_to_dict, run_summary_to_dict

__all__ = [
    "TraceRecorder",
    "PullEvent",
    "PushEvent",
    "AbortEvent",
    "PapAnalysis",
    "pap_interval_counts",
    "pap_box_stats",
    "BoxStats",
    "LossCurve",
    "EvalPoint",
    "ConvergenceCriterion",
    "detect_convergence",
    "StalenessAnalysis",
    "StalenessStats",
    "compare_staleness",
    "curve_to_dict",
    "curve_from_dict",
    "run_summary_to_dict",
]
