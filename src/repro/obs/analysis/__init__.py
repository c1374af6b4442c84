"""repro.obs.analysis — causal trace analytics.

Turns a run's records — a trace file (the write side:
:mod:`repro.obs.perfetto`) read back, or a collector in process — into
explanations:

* :mod:`graph` loads a trace file into records, or frames a collector's
  records the way the file would hold them, and segments them into runs;
* :mod:`critical_path` walks the makespan-determining worker track and
  attributes every second to compute / network / sync-wait /
  scheduler-decision / abort-wasted-work;
* :mod:`ledger` computes the speculation ledger: PAP counts, aborted
  compute seconds, realized post-abort freshness gains, and the
  empirical F(Δ) curve replayed through :mod:`repro.core.tuning`;
* :mod:`phases` derives worker-loop phase percentiles and the
  straggler / abort-storm verdicts from the worker spans;
* :mod:`report` bundles all of it into schema-versioned JSON plus the
  text/comparison renderers behind ``repro analyze``.

See docs/observability.md ("Trace analytics") for the model.
"""

from repro.obs.analysis.critical_path import (
    ATTRIBUTION_CATEGORIES,
    attribute,
)
from repro.obs.analysis.graph import (
    AnalysisError,
    CausalGraph,
    RunSegment,
)
from repro.obs.analysis.ledger import speculation_ledger, staleness_distributions
from repro.obs.analysis.report import (
    ANALYSIS_SCHEMA_VERSION,
    analyze_records,
    analyze_trace,
    render_analysis_comparison,
    render_analysis_text,
)

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "AnalysisError",
    "CausalGraph",
    "RunSegment",
    "ANALYSIS_SCHEMA_VERSION",
    "analyze_records",
    "analyze_trace",
    "attribute",
    "render_analysis_comparison",
    "render_analysis_text",
    "speculation_ledger",
    "staleness_distributions",
]
