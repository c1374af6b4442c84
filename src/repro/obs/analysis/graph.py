"""The run graph: a run's records, on the exported file's time frame,
split into runs.

Two paths meet in one :class:`Recording`.  :func:`load_trace` turns a
Chrome trace-event object (the :mod:`repro.obs.perfetto` export) back
into records: ``M`` metadata rebuilds the (pid, tid) → (domain, track)
map and ``s``/``f`` pairs are re-joined by id into one ``FlowRecord``.
:func:`frame_records` puts a collector's records on the exporter's
:class:`~repro.obs.perfetto.TraceFrame` in process, so the analysis of a
run in memory equals the analysis of its file byte for byte.

:class:`CausalGraph` splits the records into :class:`RunSegment` objects
on the engine's ``run_start`` instants (``repro compare --trace`` runs
every scheme into one collector, each restarting virtual time at 0);
traces without those markers get one implicit segment per clock domain.
It reads the records and never changes them.  A malformed trace is a
hard :class:`AnalysisError` naming the event that broke, not a skip.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.core import AnyRecord, FlowRecord, InstantRecord, SpanRecord
from repro.obs.perfetto import trace_frame, trace_other_data
from repro.obs.tracks import WORKER_TRACK_RE

__all__ = [
    "AnalysisError",
    "CausalGraph",
    "Recording",
    "RunSegment",
    "TS_TOLERANCE",
    "WORKER_TRACK_RE",
    "frame_records",
    "load_trace",
]

_US_TO_S = 1e-6

#: matching tolerance for "these two events share one clock read" — trace
#: timestamps are rounded to 1e-3 µs by the exporter, i.e. 1e-9 s
TS_TOLERANCE = 1e-8

#: the phases the graph is built from: spans, instants, flow start/finish
_ANALYZED_PHASES = ("s", "f", "X", "i")

#: the args of a record that has none (read-only: nothing writes to it)
_NO_ARGS: Mapping[str, object] = MappingProxyType({})

_NUMBER = (int, float)

class AnalysisError(ValueError):
    """The trace cannot support causal analysis (schema/causality defect)."""


class Recording:
    """A trace's records on the exported file's time frame, and the counts
    of what it recorded (``repro analyze``'s ``recording`` block).

    Times arrive in µs on the frame and are kept in seconds, each span's
    end as its start plus its duration, exactly as read back from the
    file; records without args get a shared read-only empty mapping.
    """

    def __init__(
        self, metadata: Dict[str, object], metrics: dict, events: int, tracks: int
    ) -> None:
        self.records: List[AnyRecord] = []
        self.metadata = metadata
        self.format_version = metadata.get("format_version")
        self.metrics = metrics
        self.events = events
        self.tracks = tracks
        #: span name -> [count, total duration in µs]
        self.span_totals: Dict[str, List[float]] = {}
        self.instant_counts: Dict[str, int] = {}
        #: flow name -> re-joined (start, finish) pairs
        self.flow_pairs: Dict[str, int] = {}

    def span(self, domain: str, track: str, name: str, cat: str,
             ts_us: float, dur_us: float, args: Optional[dict]) -> None:
        start = ts_us * _US_TO_S
        self.records.append(SpanRecord(
            domain, track, name, cat, start, start + dur_us * _US_TO_S,
            args or _NO_ARGS,
        ))
        totals = self.span_totals.setdefault(name, [0, 0.0])
        totals[0] += 1
        totals[1] += dur_us

    def instant(self, domain: str, track: str, name: str, cat: str,
                ts_us: float, args: Optional[dict]) -> None:
        self.records.append(InstantRecord(
            domain, track, name, cat, ts_us * _US_TO_S, args or _NO_ARGS,
        ))
        self.instant_counts[name] = self.instant_counts.get(name, 0) + 1

    def flow(self, domain: str, name: str, cat: str, src_track: str, src_us: float,
             dst_track: str, dst_us: float, args: Optional[dict]) -> FlowRecord:
        """The re-joined arrow; the caller places it in :attr:`records`."""
        self.flow_pairs[name] = self.flow_pairs.get(name, 0) + 1
        return FlowRecord(
            domain, name, cat, src_track, src_us * _US_TO_S,
            dst_track, dst_us * _US_TO_S, args or _NO_ARGS,
        )


def frame_records(
    records: Sequence[AnyRecord],
    metadata: Optional[Dict[object, object]] = None,
    metrics: Optional[dict] = None,
) -> Recording:
    """A collector's records (and metadata and metrics snapshot) as the
    exported file would hold them."""
    frame = trace_frame(records)
    recording = Recording(
        trace_other_data(metadata or {}), metrics or {}, frame.events, len(frame.tids)
    )
    firsts, seconds = frame.times_us(records)
    for record, first, second in zip(records, firsts, seconds):
        domain = record.domain
        if isinstance(record, SpanRecord):
            recording.span(
                domain, record.track, record.name, record.cat, first, second, record.args,
            )
        elif isinstance(record, InstantRecord):
            recording.instant(
                domain, record.track, record.name, record.cat, first, record.args,
            )
        else:
            recording.records.append(recording.flow(
                domain, record.name, record.cat,
                record.src_track, first, record.dst_track, second, record.args,
            ))
    return recording


def _bad(index: int, event: dict, problem: str) -> AnalysisError:
    return AnalysisError(
        f"event #{index} ({event.get('name')!r}, ph {event.get('ph')!r}) {problem}"
    )


def load_trace(trace: dict) -> Recording:
    """Validate a parsed trace-event object and turn it back into records.

    Raises:
        AnalysisError: on a structural defect, naming the event — missing
            or foreign ``traceEvents``, a non-object event, metadata
            without its ``pid``/``tid``, a non-numeric ``ts``/``dur``,
            non-object ``args``, an event on an unnamed thread, or a
            flow pair with a missing or duplicate parent.
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
        raise AnalysisError(f"non-integer format_version {format_version!r}")
    metrics = trace.get("metrics", {})
    if not isinstance(metrics, dict):
        raise AnalysisError("'metrics' must be an object")

    domains: Dict[object, str] = {}
    names: Dict[Tuple[object, object], str] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise AnalysisError(f"event #{index} is not an object: {event!r}")
        kind = event.get("name")
        if event.get("ph") != "M" or kind not in ("process_name", "thread_name"):
            continue
        keys = ("pid",) if kind == "process_name" else ("pid", "tid")
        for key in keys:
            if not isinstance(event.get(key), (int, str)):
                raise _bad(index, event, f"has no integer {key!r}")
        args = event.get("args") or {}
        if not isinstance(args, dict):
            raise _bad(index, event, f"has non-object args {args!r}")
        label = str(args.get("name", ""))
        if kind == "process_name":
            # the exporter names processes "<domain> time"
            domains[event["pid"]] = label[: -len(" time")] if label.endswith(" time") else label
        else:
            names[(event["pid"], event["tid"])] = label
    #: (pid, tid) -> (domain, track), resolved once per named thread
    threads = {
        key: (domains.get(key[0], f"pid-{key[0]}"), track) for key, track in names.items()
    }

    recording = Recording(dict(metadata), metrics, len(events), len(names))
    records = recording.records
    #: open flow starts by id: (record slot, domain, name, cat, track, ts, args)
    open_flows: Dict[object, tuple] = {}
    for index, event in enumerate(events):
        phase = event.get("ph")
        if phase not in _ANALYZED_PHASES:
            # metadata was read above; other phases (counter events
            # etc.) are not produced by our exporter — ignore them so
            # foreign-but-valid traces still load
            continue
        try:
            thread = threads.get((event.get("pid"), event.get("tid")))
        except TypeError:  # an unhashable pid or tid names no thread
            thread = None
        if thread is None:
            raise _bad(
                index, event,
                f"is on unnamed thread pid={event.get('pid')} tid={event.get('tid')} "
                "(missing thread_name metadata)",
            )
        domain, track = thread
        ts = event.get("ts")
        if type(ts) not in _NUMBER:
            raise _bad(index, event, f"has non-numeric ts {ts!r}")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            raise _bad(index, event, f"has non-object args {args!r}")
        if phase in ("s", "f"):
            flow_id = event.get("id")
            if not isinstance(flow_id, (int, str)):
                raise _bad(index, event, f"has flow id {flow_id!r}, not an integer or string")
            if phase == "f":
                start = open_flows.pop(flow_id, None)
                if start is None:
                    raise AnalysisError(
                        f"flow finish id={flow_id!r} has no matching start "
                        "(missing parent)"
                    )
                slot, domain, name, cat, src_track, src_ts, args = start
                records[slot] = recording.flow(
                    domain, name, cat, src_track, src_ts, track, ts, args
                )
                continue
        name = str(event.get("name", ""))
        cat = str(event.get("cat", ""))
        if phase == "X":
            dur = event.get("dur", 0.0)
            if type(dur) not in _NUMBER:
                raise _bad(index, event, f"has non-numeric dur {dur!r}")
            recording.span(domain, track, name, cat, ts, dur, args)
        elif phase == "i":
            recording.instant(domain, track, name, cat, ts, args)
        else:
            if flow_id in open_flows:
                raise AnalysisError(f"duplicate flow start id={flow_id!r}")
            # the arrow takes the start's place in the record order
            open_flows[flow_id] = (len(records), domain, name, cat, track, ts, args)
            records.append(None)  # type: ignore[arg-type]
    if open_flows:
        ids = ", ".join(repr(i) for i in sorted(open_flows, key=repr)[:5])
        raise AnalysisError(
            f"{len(open_flows)} flow start(s) never finished "
            f"(dangling ids: {ids})"
        )
    return recording


@dataclass
class RunSegment:
    """One engine run's worth of events on one clock domain."""

    index: int
    domain: str
    #: the ``run_start`` instant's args (workload/scheme/seed/workers/
    #: horizon_s), or the trace's ``otherData`` for implicit segments
    meta: Mapping[str, object] = field(default_factory=dict)
    #: the matching ``run_end`` instant's args, when present
    end_meta: Mapping[str, object] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    instants: List[InstantRecord] = field(default_factory=list)
    flows: List[FlowRecord] = field(default_factory=list)
    #: explicit run boundaries (run_start/run_end instants), when present
    start_ts: Optional[float] = None
    end_ts: Optional[float] = None
    #: ``spans`` grouped by track and sorted, built by ``track_spans`` and
    #: rebuilt if ``spans`` has grown since (``_indexed`` is its length then)
    _by_track: Dict[str, List[SpanRecord]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _indexed: int = field(default=0, repr=False, compare=False)
    #: ``instants`` grouped by name, kept the same way
    _by_name: Dict[str, List[InstantRecord]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _named: int = field(default=0, repr=False, compare=False)

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

    def track_spans(self, track: str) -> List[SpanRecord]:
        """Spans on one track, ordered by start time (a fresh list per call)."""
        if self._indexed != len(self.spans):
            by_track: Dict[str, List[SpanRecord]] = {}
            for span in self.spans:
                by_track.setdefault(span.track, []).append(span)
            for spans in by_track.values():
                spans.sort(key=lambda s: (s.start, s.end))
            self._by_track, self._indexed = by_track, len(self.spans)
        return list(self._by_track.get(track, ()))

    def named_instants(self, name: str) -> List[InstantRecord]:
        """Instants with ``name``, in trace order (a fresh list per call)."""
        if self._named != len(self.instants):
            by_name: Dict[str, List[InstantRecord]] = {}
            for instant in self.instants:
                by_name.setdefault(instant.name, []).append(instant)
            self._by_name, self._named = by_name, len(self.instants)
        return list(self._by_name.get(name, ()))


@dataclass
class CausalGraph:
    """Every run segment of one recording."""

    runs: List[RunSegment] = field(default_factory=list)

    @classmethod
    def from_records(
        cls, records: Sequence[AnyRecord], metadata: Mapping[str, object]
    ) -> "CausalGraph":
        """Split framed records into runs; ``metadata`` (the file's
        ``otherData``) is the meta of implicit segments."""
        graph = cls()
        #: current segment per domain (created lazily / on run_start)
        current: Dict[str, RunSegment] = {}

        def _open(segment: RunSegment) -> RunSegment:
            graph.runs.append(segment)
            current[segment.domain] = segment
            return segment

        for record in records:
            domain = record.domain
            segment = current.get(domain)
            is_instant = isinstance(record, InstantRecord)
            if is_instant and record.name == "run_start":
                segment = _open(RunSegment(
                    index=len(graph.runs), domain=domain, meta=record.args,
                    start_ts=record.ts,
                ))
            elif segment is None:
                segment = _open(RunSegment(
                    index=len(graph.runs), domain=domain,
                    meta={k: v for k, v in metadata.items() if k != "format_version"},
                ))
            if is_instant:
                if record.name == "run_end":
                    segment.end_meta = record.args
                    segment.end_ts = record.ts
                segment.instants.append(record)
            elif isinstance(record, SpanRecord):
                segment.spans.append(record)
            else:
                segment.flows.append(record)
        for run in graph.runs:
            _flag_aborted_computes(run)
        return graph

    @classmethod
    def from_trace(cls, trace: dict) -> "CausalGraph":
        """The graph of a parsed trace-event object (see :func:`load_trace`)."""
        recording = load_trace(trace)
        return cls.from_records(recording.records, recording.metadata)


def _flag_aborted_computes(run: RunSegment) -> None:
    """Flag ``aborted: true`` on each ``compute`` span that ends at an
    ``abort`` instant on its own track, in a copy: the segment's span
    list takes the flagged copy, the record itself is left as read.

    The DES flags its own.  A wall-clock worker's span carries no args,
    but the worker stamps its end and the abort instant with one clock
    read, so the analysis counts its aborted compute the same way.
    """
    aborts: Dict[str, List[float]] = {}
    for instant in run.named_instants("abort"):
        aborts.setdefault(instant.track, []).append(instant.ts)
    if not aborts:
        return
    for times in aborts.values():
        times.sort()
    spans = run.spans
    for index, span in enumerate(spans):
        times = aborts.get(span.track)
        if span.name == "compute" and times and not span.args.get("aborted"):
            at = bisect_left(times, span.end - TS_TOLERANCE)
            if at < len(times) and times[at] <= span.end + TS_TOLERANCE:
                if spans is run.spans:
                    spans = list(spans)
                spans[index] = span._replace(args={**span.args, "aborted": True})
    run.spans = spans
