"""Parent-side collection of the live telemetry streams.

:class:`TelemetryAggregator` polls any number of :class:`ShmRing`
exporters (one per process) and retains every record, in arrival order.
It keeps no view of its own: :meth:`~TelemetryAggregator.snapshot`
replays what has arrived so far into a fresh trace collector and returns
the ``repro analyze`` document of its records, so ``repro top`` and
``repro analyze`` read one schema and judge stragglers and abort storms
with one detector feed (:func:`repro.obs.analysis.phases.detector_reports`).

Timestamps are taken as written: every process of the fork-based
multiprocess backend reads the parent's ``CLOCK_MONOTONIC``.  Like the
rest of ``repro.obs`` this module never reads a clock, so a snapshot is
a function of the records retained.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.analysis.report import analyze_records
from repro.obs.core import MetricRecord, TraceCollector
from repro.obs.live.ring import ShmRing, WireRecord

__all__ = ["TelemetryAggregator"]


class TelemetryAggregator:
    """Polls worker rings and retains their records for analysis."""

    def __init__(self) -> None:
        self._rings: Dict[str, ShmRing] = {}
        #: retained records, in arrival order
        self._retained: List[WireRecord] = []

    def add_ring(self, ring: ShmRing) -> None:
        """Start polling ``ring`` (keyed by its source name)."""
        if ring.source in self._rings:
            raise ValueError(f"duplicate ring source {ring.source!r}")
        self._rings[ring.source] = ring

    def poll(self) -> int:
        """Drain every ring once; returns the records consumed."""
        before = len(self._retained)
        for source in sorted(self._rings):
            self._retained.extend(self._rings[source].drain())
        return len(self._retained) - before

    def apply(self, source: str, record: WireRecord, recv_ts: float) -> None:
        """Retain one record from ``source``.

        Public so tests and harnesses can feed streams without polling;
        ``source`` and ``recv_ts`` (when the record was received) are
        accepted for that call shape and not used: timestamps are taken
        as written.
        """
        self._retained.append(record)

    def snapshot(self, now: Optional[float] = None) -> dict:
        """The ``repro analyze`` document of the records retained so far.

        Two keys are added to :func:`~repro.obs.analysis.analyze_trace`'s:
        ``totals`` (``records`` retained, ``dropped_records`` the rings
        counted) and ``counters`` (the drained metric counters).  ``now``
        is accepted for the pollers' call shape; the document depends on
        the records alone.
        """
        collector = TraceCollector()
        self.drain_to_collector(collector)
        analysis = analyze_records(
            collector.records, collector.metadata, collector.metrics.snapshot()
        )
        analysis["totals"] = {
            "records": len(self._retained),
            "dropped_records": sum(ring.dropped for ring in self._rings.values()),
        }
        analysis["counters"] = analysis["recording"]["metrics"]["counters"]
        return analysis

    def drain_to_collector(self, collector: TraceCollector) -> int:
        """Replay the retained stream into ``collector``.

        Spans and instants are appended as they arrived, metric updates
        applied to its metrics, and each ring's pushed and dropped
        counts set as ``live.ring.<source>.*`` gauges, so the collector
        exports a trace file that ``repro analyze`` reads unchanged.
        Returns the number of records replayed.
        """
        for record in self._retained:
            if isinstance(record, MetricRecord):
                getattr(collector, record.kind)(record.name, record.value)
            else:
                collector.append(record)
        for source in sorted(self._rings):
            ring = self._rings[source]
            collector.gauge(f"live.ring.{source}.pushed", ring.pushed)
            collector.gauge(f"live.ring.{source}.dropped", ring.dropped)
        collector.metadata.setdefault("live_capture", True)
        return len(self._retained)

    def __repr__(self) -> str:
        return (
            f"TelemetryAggregator(sources={len(self._rings)}, "
            f"retained={len(self._retained)})"
        )
