"""Live cross-process telemetry plane.

``repro.obs.live`` streams spans, counters, gauges, and samples out
of running processes through per-process lock-free shared-memory rings
(:mod:`repro.obs.live.ring`), aggregates them online in the parent
(:mod:`repro.obs.live.aggregate`), wires whole runs together through
:mod:`repro.obs.live.session`, and renders them as the ``repro top``
dashboard (:mod:`repro.obs.live.top`).  A drained capture serializes to
a trace file, so ``repro analyze`` reads live runs unchanged.
"""

from repro.obs.live.aggregate import (
    SNAPSHOT_SCHEMA_VERSION,
    TelemetryAggregator,
)
from repro.obs.live.ring import (
    DEFAULT_RING_BYTES,
    NULL_RING_WRITER,
    LiveAnnounce,
    LiveCount,
    LiveGauge,
    LiveInstant,
    LiveRecord,
    LiveSample,
    LiveSpan,
    NullRingWriter,
    RingSpec,
    RingWriter,
    ShmRing,
    decode_record,
    encode_record,
)
from repro.obs.live.session import (
    LIVE_SPEC_SCHEMA_VERSION,
    PARENT_SOURCE,
    SERVER_SOURCE,
    LiveTelemetrySession,
    worker_source,
)
from repro.obs.live.top import render_dashboard, run_dashboard

__all__ = [
    "DEFAULT_RING_BYTES",
    "LIVE_SPEC_SCHEMA_VERSION",
    "NULL_RING_WRITER",
    "PARENT_SOURCE",
    "SERVER_SOURCE",
    "SNAPSHOT_SCHEMA_VERSION",
    "LiveAnnounce",
    "LiveCount",
    "LiveGauge",
    "LiveInstant",
    "LiveRecord",
    "LiveSample",
    "LiveSpan",
    "LiveTelemetrySession",
    "NullRingWriter",
    "RingSpec",
    "RingWriter",
    "ShmRing",
    "TelemetryAggregator",
    "decode_record",
    "encode_record",
    "render_dashboard",
    "run_dashboard",
    "worker_source",
]
