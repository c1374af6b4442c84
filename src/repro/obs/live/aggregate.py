"""Parent-side collection of the live telemetry streams.

:class:`TelemetryAggregator` polls any number of :class:`ShmRing`
exporters (one per process) and retains every record, in arrival order,
with its source.  It keeps no view of its own: :meth:`~TelemetryAggregator.snapshot`
drains what has arrived so far into a fresh trace collector and returns
the ``repro analyze`` document of it, so ``repro top`` and ``repro
analyze`` read one schema and judge stragglers and abort storms with one
detector feed (:func:`repro.obs.analysis.phases.detector_reports`).

Timestamps are taken as written: every process of the fork-based
multiprocess backend reads the parent's ``CLOCK_MONOTONIC``.  Like the
rest of ``repro.obs`` this module never reads a clock, so a snapshot is
a function of the records retained.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.obs.analysis.report import analyze_trace
from repro.obs.core import InstantRecord, SpanRecord, TraceCollector
from repro.obs.live.ring import (
    LiveAnnounce,
    LiveCount,
    LiveGauge,
    LiveInstant,
    LiveRecord,
    LiveSample,
    LiveSpan,
    ShmRing,
)
from repro.obs.perfetto import to_chrome_trace

__all__ = ["TelemetryAggregator"]


class TelemetryAggregator:
    """Polls worker rings and retains their records for analysis."""

    def __init__(self) -> None:
        self._rings: Dict[str, ShmRing] = {}
        #: retained ``(source, record)`` stream, in arrival order
        self._retained: List[Tuple[str, LiveRecord]] = []

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    def add_ring(self, ring: ShmRing) -> None:
        """Start polling ``ring`` (keyed by its source name)."""
        if ring.source in self._rings:
            raise ValueError(f"duplicate ring source {ring.source!r}")
        self._rings[ring.source] = ring

    def sources(self) -> List[str]:
        """The source names of the polled rings."""
        return sorted(self._rings)

    # ------------------------------------------------------------------
    # Polling and record application
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Drain every ring once; returns the records consumed."""
        before = len(self._retained)
        for source in sorted(self._rings):
            self._retained.extend(
                (source, record) for record in self._rings[source].drain()
            )
        return len(self._retained) - before

    def apply(self, source: str, record: LiveRecord, recv_ts: float) -> None:
        """Retain one record from ``source``.

        Public so tests and harnesses can feed streams without polling;
        ``recv_ts`` (when the record was received) is accepted for that
        call shape and not used: timestamps are taken as written.
        """
        self._retained.append((source, record))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
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
        analysis = analyze_trace(to_chrome_trace(collector))
        analysis["totals"] = {
            "records": len(self._retained),
            "dropped_records": sum(
                ring.stats()["dropped"] for ring in self._rings.values()
            ),
        }
        analysis["counters"] = analysis["recording"]["metrics"]["counters"]
        return analysis

    # ------------------------------------------------------------------
    # Drain to a trace file
    # ------------------------------------------------------------------
    def drain_to_collector(self, collector: TraceCollector) -> int:
        """Serialize the retained stream into ``collector``.

        Spans and instants land as wall-domain records, counts, gauges
        and samples as metrics — the exact shapes
        :func:`repro.obs.perfetto.to_chrome_trace` serializes, so the
        resulting file is a first-class trace file that ``repro analyze``
        reads unchanged.  Returns the number of records drained.
        """
        for source, record in self._retained:
            if isinstance(record, LiveSpan):
                collector.append(
                    SpanRecord(
                        domain="wall", track=record.track, name=record.name,
                        cat=record.cat, start=record.start, end=record.end,
                    )
                )
            elif isinstance(record, LiveInstant):
                args: Optional[dict] = None
                if record.args_json:
                    try:
                        parsed = json.loads(record.args_json)
                    except ValueError:
                        parsed = None
                    if isinstance(parsed, dict):
                        args = parsed
                collector.append(
                    InstantRecord(
                        domain="wall", track=record.track, name=record.name,
                        cat=record.cat, ts=record.ts, args=args,
                    )
                )
            elif isinstance(record, LiveCount):
                collector.metrics.counter(record.name).inc(record.amount)
            elif isinstance(record, LiveGauge):
                collector.metrics.gauge(record.name).set(record.value)
            elif isinstance(record, LiveSample):
                collector.metrics.histogram(record.name).observe(record.value)
            elif isinstance(record, LiveAnnounce):
                collector.metadata.setdefault(
                    f"live.source.{source}", record.source
                )
        for source in sorted(self._rings):
            stats = self._rings[source].stats()
            collector.metrics.gauge(f"live.ring.{source}.pushed").set(
                stats["pushed"]
            )
            collector.metrics.gauge(f"live.ring.{source}.dropped").set(
                stats["dropped"]
            )
        collector.metadata.setdefault("live_capture", True)
        return len(self._retained)

    def __repr__(self) -> str:
        return (
            f"TelemetryAggregator(sources={len(self._rings)}, "
            f"retained={len(self._retained)})"
        )
