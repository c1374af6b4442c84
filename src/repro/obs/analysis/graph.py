"""Causal-graph reconstruction from exported Chrome trace-event JSON.

The exporter (:mod:`repro.obs.perfetto`) lays one Perfetto process per
clock domain and one thread per track; this module inverts that layout:
``M`` metadata events rebuild the (pid, tid) → (domain, track) map,
complete spans and instants come back in seconds, and ``s``/``f`` flow
pairs are re-joined by id into causal arrows.

Because several engines may share one collector (``repro compare
--trace`` runs every scheme back to back, each restarting virtual time
at 0), the event stream is segmented into :class:`RunSegment` objects on
the ``run_start`` instants the engine emits; traces captured before
those markers existed fall back to a single implicit segment per clock
domain.

Malformed causality is a hard error, not a silent skip: a flow finish
with no matching start (or a start that never finishes) means the trace
cannot support attribution, and :class:`AnalysisError` says exactly
which id broke.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

__all__ = [
    "AnalysisError",
    "AnalyzedSpan",
    "AnalyzedInstant",
    "AnalyzedFlow",
    "RunSegment",
    "CausalGraph",
    "WORKER_TRACK_RE",
    "TS_TOLERANCE",
]

_US_TO_S = 1e-6

#: matching tolerance for "these two events share one clock read" — trace
#: timestamps are rounded to 1e-3 µs by the exporter, i.e. 1e-9 s
TS_TOLERANCE = 1e-8

#: the phases the graph is built from: spans, instants, flow start/finish
_ANALYZED_PHASES = ("s", "f", "X", "i")

#: Worker tracks in both namespaces (DES ``worker-N``, runtime
#: ``rt.worker-N``) — everything else is infrastructure (server,
#: scheduler, network).
WORKER_TRACK_RE = re.compile(r"^(?:rt\.)?worker-(\d+)$")


class AnalysisError(ValueError):
    """The trace cannot support causal analysis (schema/causality defect)."""


class AnalyzedSpan(NamedTuple):
    """One complete span, back in seconds on a named track."""

    track: str
    name: str
    cat: str
    start: float
    end: float
    args: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class AnalyzedInstant(NamedTuple):
    """One point event on a named track."""

    track: str
    name: str
    cat: str
    ts: float
    args: dict


class AnalyzedFlow(NamedTuple):
    """One causal arrow (flow pair re-joined by id)."""

    name: str
    cat: str
    src_track: str
    src_ts: float
    dst_track: str
    dst_ts: float
    args: dict


@dataclass
class RunSegment:
    """One engine run's worth of events on one clock domain."""

    index: int
    domain: str
    #: the ``run_start`` instant's args (workload/scheme/seed/workers/
    #: horizon_s), or the trace's ``otherData`` for implicit segments
    meta: Dict[str, object] = field(default_factory=dict)
    #: the matching ``run_end`` instant's args, when present
    end_meta: Dict[str, object] = field(default_factory=dict)
    spans: List[AnalyzedSpan] = field(default_factory=list)
    instants: List[AnalyzedInstant] = field(default_factory=list)
    flows: List[AnalyzedFlow] = field(default_factory=list)
    #: explicit run boundaries (run_start/run_end instants), when present
    start_ts: Optional[float] = None
    end_ts: Optional[float] = None
    #: ``spans`` grouped by track and sorted, built by ``track_spans`` and
    #: rebuilt if ``spans`` has grown since (``_indexed`` is its length then)
    _by_track: Dict[str, List[AnalyzedSpan]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _indexed: int = field(default=0, repr=False, compare=False)

    @property
    def explicit(self) -> bool:
        """True when the segment came from a ``run_start`` marker."""
        return self.start_ts is not None

    def worker_tracks(self) -> List[str]:
        """Worker tracks present, sorted by worker id."""
        tracks = {s.track for s in self.spans} | {i.track for i in self.instants}
        workers = []
        for track in tracks:
            match = WORKER_TRACK_RE.match(track)
            if match:
                workers.append((int(match.group(1)), track))
        return [track for _id, track in sorted(workers)]

    def window(self) -> Tuple[float, float]:
        """The analysis window ``[start, end]`` in seconds.

        Explicit segments use the run markers (the run's virtual
        duration); implicit ones span the observed events.
        """
        if self.start_ts is not None:
            end = self.end_ts
            if end is None:
                end = max(
                    [self.start_ts]
                    + [s.end for s in self.spans]
                    + [i.ts for i in self.instants]
                )
            return (self.start_ts, end)
        starts = [s.start for s in self.spans] + [i.ts for i in self.instants]
        ends = [s.end for s in self.spans] + [i.ts for i in self.instants]
        if not starts:
            return (0.0, 0.0)
        return (min(starts), max(ends))

    @property
    def duration_s(self) -> float:
        start, end = self.window()
        return end - start

    def track_spans(self, track: str) -> List[AnalyzedSpan]:
        """Spans on one track, ordered by start time (a fresh list per call)."""
        if self._indexed != len(self.spans):
            by_track: Dict[str, List[AnalyzedSpan]] = {}
            for span in self.spans:
                by_track.setdefault(span.track, []).append(span)
            for spans in by_track.values():
                spans.sort(key=lambda s: (s.start, s.end))
            self._by_track, self._indexed = by_track, len(self.spans)
        return list(self._by_track.get(track, ()))

    def named_instants(self, name: str) -> List[AnalyzedInstant]:
        """Instants with ``name``, in trace order."""
        return [i for i in self.instants if i.name == name]


@dataclass
class CausalGraph:
    """Every run segment reconstructed from one trace file, plus what the
    file recorded, counted in the same walk."""

    runs: List[RunSegment] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    format_version: Optional[int] = None
    events: int = 0
    tracks: int = 0
    #: span name -> [count, total duration in µs]
    span_totals: Dict[str, List[float]] = field(default_factory=dict)
    instant_counts: Dict[str, int] = field(default_factory=dict)
    #: flow name -> re-joined (start, finish) pairs
    flow_pairs: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_trace(cls, trace: dict) -> "CausalGraph":
        """Rebuild the causal graph from a parsed trace-event object.

        Raises:
            AnalysisError: on structural defects — missing/foreign
                ``traceEvents``, events on unnamed threads, or flow
                pairs with a missing parent.
        """
        events = trace.get("traceEvents") if isinstance(trace, dict) else None
        if not isinstance(events, list):
            raise AnalysisError(
                "not a Chrome trace-event object (missing 'traceEvents' list)"
            )
        metadata = trace.get("otherData", {})
        if not isinstance(metadata, dict):
            raise AnalysisError("'otherData' must be an object")
        format_version = metadata.get("format_version")
        if format_version is not None and not isinstance(format_version, int):
            raise AnalysisError(
                f"non-integer format_version {format_version!r}"
            )

        domains: Dict[int, str] = {}
        tracks: Dict[Tuple[int, int], str] = {}
        for event in events:
            if event.get("ph") != "M":
                continue
            if event.get("name") == "process_name":
                label = str(event.get("args", {}).get("name", ""))
                # the exporter names processes "<domain> time"
                domains[event["pid"]] = (
                    label[: -len(" time")] if label.endswith(" time") else label
                )
            elif event.get("name") == "thread_name":
                tracks[(event["pid"], event["tid"])] = str(
                    event.get("args", {}).get("name", "")
                )

        #: (pid, tid) -> (domain, track), resolved once per named thread
        threads: Dict[Tuple[object, object], Tuple[str, str]] = {
            key: (domains.get(key[0], f"pid-{key[0]}"), track)
            for key, track in tracks.items()
        }

        graph = cls(
            metadata=dict(metadata), format_version=format_version,
            events=len(events), tracks=len(tracks),
        )
        #: current segment per domain (created lazily / on run_start)
        current: Dict[str, RunSegment] = {}
        #: open flow starts by id: (segment, name, cat, track, ts, args)
        open_flows: Dict[object, Tuple[RunSegment, str, str, str, float, dict]] = {}

        def _open(segment: RunSegment) -> RunSegment:
            graph.runs.append(segment)
            current[segment.domain] = segment
            return segment

        for event in events:
            phase = event.get("ph")
            if phase not in _ANALYZED_PHASES:
                # metadata was read above; other phases (counter events
                # etc.) are not produced by our exporter — ignore them so
                # foreign-but-valid traces still load
                continue
            thread = threads.get((event.get("pid"), event.get("tid")))
            if thread is None:
                raise AnalysisError(
                    f"event {event.get('name')!r} on unnamed thread "
                    f"pid={event.get('pid')} tid={event.get('tid')} "
                    "(missing thread_name metadata)"
                )
            domain, track = thread
            ts = float(event.get("ts", 0.0)) * _US_TO_S
            if phase == "f":
                flow_id = event.get("id")
                start = open_flows.pop(flow_id, None)
                if start is None:
                    raise AnalysisError(
                        f"flow finish id={flow_id!r} has no matching start "
                        "(missing parent)"
                    )
                segment, name, cat, src_track, src_ts, args = start
                segment.flows.append(
                    AnalyzedFlow(name, cat, src_track, src_ts, track, ts, args)
                )
                graph.flow_pairs[name] = graph.flow_pairs.get(name, 0) + 1
                continue
            name = str(event.get("name", ""))
            cat = str(event.get("cat", ""))
            args = dict(event.get("args") or {})
            segment = current.get(domain)
            if phase == "i" and name == "run_start":
                segment = _open(RunSegment(
                    index=len(graph.runs), domain=domain, meta=args, start_ts=ts,
                ))
            elif segment is None:
                segment = _open(RunSegment(
                    index=len(graph.runs), domain=domain,
                    meta={
                        k: v for k, v in graph.metadata.items()
                        if k != "format_version"
                    },
                ))
            if phase == "X":
                dur = float(event.get("dur", 0.0))
                segment.spans.append(
                    AnalyzedSpan(track, name, cat, ts, ts + dur * _US_TO_S, args)
                )
                totals = graph.span_totals.setdefault(name, [0, 0.0])
                totals[0] += 1
                totals[1] += dur
            elif phase == "i":
                if name == "run_end":
                    segment.end_meta = args
                    segment.end_ts = ts
                segment.instants.append(AnalyzedInstant(track, name, cat, ts, args))
                graph.instant_counts[name] = graph.instant_counts.get(name, 0) + 1
            else:
                flow_id = event.get("id")
                if flow_id in open_flows:
                    raise AnalysisError(
                        f"duplicate flow start id={flow_id!r}"
                    )
                open_flows[flow_id] = (segment, name, cat, track, ts, args)
        if open_flows:
            ids = ", ".join(repr(i) for i in sorted(open_flows, key=repr)[:5])
            raise AnalysisError(
                f"{len(open_flows)} flow start(s) never finished "
                f"(dangling ids: {ids})"
            )
        for run in graph.runs:
            _flag_aborted_computes(run)
        return graph


def _flag_aborted_computes(run: RunSegment) -> None:
    """Flag ``aborted: true`` on each ``compute`` span that ends at an
    ``abort`` instant on its own track.

    The DES flags its own.  A wall-clock worker's span carries no args,
    but the worker stamps its end and the abort instant with one clock
    read, so the analysis counts its aborted compute the same way.
    """
    aborts: Dict[str, List[float]] = {}
    for instant in run.named_instants("abort"):
        aborts.setdefault(instant.track, []).append(instant.ts)
    for times in aborts.values():
        times.sort()
    for span in run.spans:
        times = aborts.get(span.track)
        if span.name == "compute" and times and not span.args.get("aborted"):
            index = bisect_left(times, span.end - TS_TOLERANCE)
            if index < len(times) and times[index] <= span.end + TS_TOLERANCE:
                span.args["aborted"] = True
