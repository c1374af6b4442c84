"""Parent-side online aggregation of the live telemetry streams.

:class:`TelemetryAggregator` polls any number of :class:`ShmRing`
exporters (one per process), aligns their timestamps, and folds the
records into rolling state: per-worker iteration rates, phase
breakdowns, queue-depth gauges, staleness, and the existing
:class:`~repro.obs.straggler.StragglerDetector` /
:class:`~repro.obs.straggler.AbortStormDetector` verdicts — the online
signals the ROADMAP's detection→mitigation loop needs *during* a run,
not after it.

Clock alignment
---------------
Every source announces its clock mode.  Processes on one host sharing
``CLOCK_MONOTONIC`` (the fork-based multiprocess backend) declare
``shared``: no offset is applied, and the minimum observed
``receive_ts - record_ts`` is only *reported* as the skew/latency bound.
A source with an ``independent`` clock (a future socket backend peer on
another host) gets the classic one-way estimate: the minimum observed
``receive_ts - record_ts`` over all its records approaches the true
offset from below-plus-minimum-latency, and drained timestamps are
shifted by it.

Like the rest of ``repro.obs`` this module never reads a clock — the
poller passes ``now`` in, so the aggregator itself stays deterministic
given its inputs (the replay tests exploit exactly that).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.analysis.graph import WORKER_TRACK_RE
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
from repro.obs.straggler import AbortStormDetector, StragglerDetector

__all__ = ["SNAPSHOT_SCHEMA_VERSION", "TelemetryAggregator"]

#: Version stamp on every :meth:`TelemetryAggregator.snapshot`.
SNAPSHOT_SCHEMA_VERSION = 1

#: Iteration-end timestamps retained per worker for the rolling rate.
_RATE_WINDOW = 64

#: Clock modes a source may announce.
_CLOCK_SHARED = "shared"
_CLOCK_INDEPENDENT = "independent"


class _SourceState:
    """Rolling per-source (per-process) aggregation state."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.clock_mode = _CLOCK_SHARED
        #: min(receive_ts - record_ts): the one-way offset/latency bound
        self.skew_bound_s: Optional[float] = None
        self.last_record_ts: Optional[float] = None
        self.records_seen = 0
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: span name → [count, total seconds]
        self.span_stats: Dict[str, List[float]] = {}
        self.meta: Dict[str, object] = {}

    @property
    def offset_s(self) -> float:
        """The offset applied when aligning this source's timestamps."""
        if self.clock_mode == _CLOCK_INDEPENDENT and self.skew_bound_s:
            return self.skew_bound_s
        return 0.0

    def observe_skew(self, record_ts: float, recv_ts: float) -> None:
        delta = recv_ts - record_ts
        if self.skew_bound_s is None or delta < self.skew_bound_s:
            self.skew_bound_s = delta


class _WorkerView:
    """Rolling per-worker view (keyed by worker id across all sources)."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.iterations = 0
        self.aborts = 0
        self.iteration_ends: Deque[float] = deque(maxlen=_RATE_WINDOW)
        self.last_event_ts: Optional[float] = None

    def rate_per_s(self) -> Optional[float]:
        if len(self.iteration_ends) < 2:
            return None
        elapsed = self.iteration_ends[-1] - self.iteration_ends[0]
        if elapsed <= 0:
            return None
        return (len(self.iteration_ends) - 1) / elapsed


class TelemetryAggregator:
    """Polls worker rings, maintains rolling gauges, feeds the detectors.

    Records are retained (in arrival order, with their source) so
    :meth:`drain_to_collector` can serialize the whole captured stream
    to a trace file after the run; pass ``retain_records=False`` for
    a pure monitoring deployment where memory must stay bounded.
    """

    def __init__(
        self,
        num_workers: int,
        retain_records: bool = True,
        straggler: Optional[StragglerDetector] = None,
        abort_storm: Optional[AbortStormDetector] = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = num_workers
        self.retain_records = retain_records
        self.straggler = (
            straggler if straggler is not None else StragglerDetector(num_workers)
        )
        self.abort_storm = (
            abort_storm if abort_storm is not None else AbortStormDetector()
        )
        self._rings: Dict[str, ShmRing] = {}
        self._sources: Dict[str, _SourceState] = {}
        self._workers: Dict[int, _WorkerView] = {
            w: _WorkerView(w) for w in range(num_workers)
        }
        #: retained ``(source, record)`` stream for drain-to-trace
        self._retained: List[Tuple[str, LiveRecord]] = []
        self.records_applied = 0

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    def add_ring(self, ring: ShmRing) -> None:
        """Start polling ``ring`` (keyed by its source name)."""
        if ring.source in self._rings:
            raise ValueError(f"duplicate ring source {ring.source!r}")
        self._rings[ring.source] = ring
        self._sources.setdefault(ring.source, _SourceState(ring.source))

    def sources(self) -> List[str]:
        return sorted(self._sources)

    def _source(self, source: str) -> _SourceState:
        state = self._sources.get(source)
        if state is None:
            state = _SourceState(source)
            self._sources[source] = state
        return state

    # ------------------------------------------------------------------
    # Polling and record application
    # ------------------------------------------------------------------
    def poll(self, now: float) -> int:
        """Drain every ring once; returns the records consumed."""
        consumed = 0
        for source in sorted(self._rings):
            for record in self._rings[source].drain():
                self.apply(source, record, recv_ts=now)
                consumed += 1
        return consumed

    def apply(self, source: str, record: LiveRecord, recv_ts: float) -> None:
        """Fold one record into the rolling state.

        Public so tests can feed synthetic streams without a ring.
        """
        state = self._source(source)
        state.records_seen += 1
        self.records_applied += 1
        if self.retain_records:
            self._retained.append((source, record))

        if isinstance(record, LiveAnnounce):
            state.observe_skew(record.writer_ts, recv_ts)
            state.last_record_ts = record.writer_ts
            if record.meta_json:
                try:
                    meta = json.loads(record.meta_json)
                except ValueError:
                    meta = {}
                if isinstance(meta, dict):
                    state.meta.update(meta)
                    mode = meta.get("clock")
                    if mode in (_CLOCK_SHARED, _CLOCK_INDEPENDENT):
                        state.clock_mode = str(mode)
            return

        ts = _record_ts(record)
        state.observe_skew(ts, recv_ts)
        state.last_record_ts = ts
        offset = state.offset_s

        if isinstance(record, LiveSpan):
            stats = state.span_stats.setdefault(record.name, [0, 0.0])
            stats[0] += 1
            stats[1] += max(record.end - record.start, 0.0)
            self._apply_worker_span(record, offset)
        elif isinstance(record, LiveInstant):
            self._apply_worker_instant(record, offset)
        elif isinstance(record, LiveCount):
            state.counters[record.name] = (
                state.counters.get(record.name, 0.0) + record.amount
            )
        elif isinstance(record, LiveGauge):
            state.gauges[record.name] = record.value
        elif isinstance(record, LiveSample):
            # Samples aggregate at drain time; online we keep the last
            # value visible next to the gauges.
            state.gauges[record.name] = record.value

    def _worker_for_track(self, track: str) -> Optional[_WorkerView]:
        match = WORKER_TRACK_RE.match(track)
        if not match:
            return None
        worker_id = int(match.group(1))
        view = self._workers.get(worker_id)
        if view is None:
            view = _WorkerView(worker_id)
            self._workers[worker_id] = view
        return view

    def _apply_worker_span(self, record: LiveSpan, offset: float) -> None:
        view = self._worker_for_track(record.track)
        if view is None:
            return
        end = record.end + offset
        view.last_event_ts = end
        if record.name == "iteration":
            view.iterations += 1
            view.iteration_ends.append(end)
        elif record.name == "push":
            self.straggler.record_push(view.worker_id, end)
            self.abort_storm.record_push(end)

    def _apply_worker_instant(self, record: LiveInstant, offset: float) -> None:
        view = self._worker_for_track(record.track)
        if view is None:
            return
        ts = record.ts + offset
        view.last_event_ts = ts
        if record.name == "abort":
            view.aborts += 1
            self.abort_storm.record_abort(ts)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> dict:
        """JSON-ready rolling state: workers, gauges, rings, detectors."""
        workers = {}
        for worker_id in sorted(self._workers):
            view = self._workers[worker_id]
            entry: Dict[str, object] = {
                "iterations": view.iterations,
                "aborts": view.aborts,
                "rate_per_s": view.rate_per_s(),
                "staleness": self._staleness_for(worker_id),
            }
            if now is not None and view.last_event_ts is not None:
                entry["last_seen_s_ago"] = max(now - view.last_event_ts, 0.0)
            workers[str(worker_id)] = entry

        counters: Dict[str, float] = {}
        for state in self._sources.values():
            for name, value in state.counters.items():
                counters[name] = counters.get(name, 0.0) + value

        return {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "workers": workers,
            "phases": self._phase_breakdown(),
            "gauges": {
                source: dict(sorted(state.gauges.items()))
                for source, state in sorted(self._sources.items())
                if state.gauges
            },
            "counters": dict(sorted(counters.items())),
            "rings": {
                source: self._rings[source].stats()
                for source in sorted(self._rings)
            },
            "clock": {
                source: {
                    "mode": state.clock_mode,
                    "offset_applied_s": state.offset_s,
                    "skew_bound_s": state.skew_bound_s,
                }
                for source, state in sorted(self._sources.items())
            },
            "detectors": {
                "straggler": self.straggler.report(),
                "abort_storm": self.abort_storm.report(),
            },
            "totals": {
                "records": self.records_applied,
                "iterations": sum(v.iterations for v in self._workers.values()),
                "aborts": sum(v.aborts for v in self._workers.values()),
                "dropped_records": sum(
                    ring.stats()["dropped"] for ring in self._rings.values()
                ),
            },
        }

    def _staleness_for(self, worker_id: int) -> Optional[float]:
        """Last staleness the server observed for ``worker_id``'s pushes."""
        for state in self._sources.values():
            value = state.gauges.get(f"rt.staleness.w{worker_id}")
            if value is not None:
                return value
        return None

    def _phase_breakdown(self) -> Dict[str, dict]:
        """Span time by name across all sources (count + total seconds)."""
        merged: Dict[str, List[float]] = {}
        for state in self._sources.values():
            for name, (count, total) in state.span_stats.items():
                entry = merged.setdefault(name, [0, 0.0])
                entry[0] += count
                entry[1] += total
        return {
            name: {"count": int(count), "total_s": total}
            for name, (count, total) in sorted(merged.items())
        }

    # ------------------------------------------------------------------
    # Drain to a trace file
    # ------------------------------------------------------------------
    def drain_to_collector(self, collector: TraceCollector) -> int:
        """Serialize the retained stream into ``collector``.

        Spans and instants land as wall-domain records, counts, gauges
        and samples as metrics — the exact shapes
        :func:`repro.obs.perfetto.to_chrome_trace` serializes, so the
        resulting file is a first-class trace file that ``repro analyze``
        reads unchanged (and judges with the same detector feed as
        :meth:`apply`).  Returns the number of records drained.
        """
        if not self.retain_records:
            raise RuntimeError(
                "aggregator was built with retain_records=False; nothing "
                "to drain"
            )
        drained = 0
        for source, record in self._retained:
            drained += 1
            offset = self._source(source).offset_s
            if isinstance(record, LiveSpan):
                collector.append(
                    SpanRecord(
                        domain="wall", track=record.track, name=record.name,
                        cat=record.cat, start=record.start + offset,
                        end=record.end + offset,
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
                        cat=record.cat, ts=record.ts + offset, args=args,
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
        return drained

    def __repr__(self) -> str:
        return (
            f"TelemetryAggregator(workers={self.num_workers}, "
            f"sources={len(self._sources)}, applied={self.records_applied})"
        )


def _record_ts(record: LiveRecord) -> float:
    """The representative timestamp of a non-announce record."""
    if isinstance(record, LiveSpan):
        return record.end
    if isinstance(record, LiveAnnounce):  # pragma: no cover - handled earlier
        return record.writer_ts
    return record.ts
