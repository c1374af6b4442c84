"""Live cross-process telemetry plane.

``repro.obs.live`` streams the :mod:`repro.obs.core` records (spans,
instants, metric updates) out of running processes through per-process
lock-free shared-memory rings
(:mod:`repro.obs.live.ring`), collects them in the parent
(:mod:`repro.obs.live.aggregate`), wires whole runs together through
:mod:`repro.obs.live.session`, and shows them as ``repro top``
(:mod:`repro.obs.live.top`).  A live snapshot is the ``repro analyze``
document of the records delivered so far, and a drained capture
serializes to a trace file that ``repro analyze`` reads unchanged.
"""

from repro.obs.live.aggregate import TelemetryAggregator
from repro.obs.live.ring import (
    DEFAULT_RING_BYTES,
    RingCollector,
    RingSpec,
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
from repro.obs.live.top import render_frame, run_dashboard

__all__ = [
    "DEFAULT_RING_BYTES",
    "LIVE_SPEC_SCHEMA_VERSION",
    "PARENT_SOURCE",
    "SERVER_SOURCE",
    "LiveTelemetrySession",
    "RingCollector",
    "RingSpec",
    "ShmRing",
    "TelemetryAggregator",
    "decode_record",
    "encode_record",
    "render_frame",
    "run_dashboard",
    "worker_source",
]
