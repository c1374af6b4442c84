"""repro.obs — unified observability: tracing, metrics, Perfetto export.

A zero-dependency span/counter/histogram layer that is **clock-agnostic**
(virtual time inside the DES, wall time in the runtime backends) and
**free when disabled** (every instrumentation site talks to a shared
no-op tracer).  See ``docs/observability.md`` for the span model, clock
domains, and a Perfetto walkthrough.

Typical use::

    from repro import obs

    with obs.collecting() as collector:
        result = workload.run(cluster, SpecSyncPolicy.adaptive(), seed=3)
    with open("out.json", "w", encoding="utf-8") as handle:
        obs.write_chrome_trace(collector, handle)

The resulting file opens directly in ``chrome://tracing`` or
https://ui.perfetto.dev with one track per worker, server and scheduler
tracks, and abort causality drawn as flow arrows.
"""

from repro.obs.clock import VIRTUAL, WALL, Clock, FunctionClock, VirtualClock
from repro.obs.core import (
    NULL_TRACER,
    FlowRecord,
    InstantRecord,
    NullTracer,
    SpanRecord,
    TraceCollector,
    Tracer,
    collecting,
    current_collector,
    disable,
    enable,
    tracer_for,
)
from repro.obs.analysis import (
    ANALYSIS_SCHEMA_VERSION,
    ATTRIBUTION_CATEGORIES,
    AnalysisError,
    CausalGraph,
    analyze_trace,
    render_analysis_comparison,
    render_analysis_text,
)
from repro.obs.log import (
    VirtualTimeLoggerAdapter,
    attach_cli_handler,
    get_logger,
    install_null_handler,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.perfetto import (
    TRACE_FORMAT_VERSION,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.straggler import AbortStormDetector, StragglerDetector
from repro.obs.tracks import (
    RT_RUN_TRACK,
    RT_SCHEDULER_TRACK,
    RT_SERVER_TRACK,
    SCHEDULER_TRACK,
    SERVER_TRACK,
    resync_flow_key,
    rt_worker_track,
    worker_track,
)

__all__ = [
    "VIRTUAL",
    "WALL",
    "Clock",
    "FunctionClock",
    "VirtualClock",
    "NULL_TRACER",
    "FlowRecord",
    "InstantRecord",
    "NullTracer",
    "SpanRecord",
    "TraceCollector",
    "Tracer",
    "collecting",
    "current_collector",
    "disable",
    "enable",
    "tracer_for",
    "VirtualTimeLoggerAdapter",
    "attach_cli_handler",
    "get_logger",
    "install_null_handler",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "AbortStormDetector",
    "StragglerDetector",
    "TRACE_FORMAT_VERSION",
    "to_chrome_trace",
    "write_chrome_trace",
    "ANALYSIS_SCHEMA_VERSION",
    "ATTRIBUTION_CATEGORIES",
    "AnalysisError",
    "CausalGraph",
    "analyze_trace",
    "render_analysis_comparison",
    "render_analysis_text",
    "SERVER_TRACK",
    "SCHEDULER_TRACK",
    "RT_SERVER_TRACK",
    "RT_SCHEDULER_TRACK",
    "RT_RUN_TRACK",
    "worker_track",
    "rt_worker_track",
    "resync_flow_key",
]
