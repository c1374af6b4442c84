"""Chrome trace-event (Perfetto) JSON export.

Lays a collected trace out in the JSON object format both
``chrome://tracing`` and https://ui.perfetto.dev open directly:

* one Perfetto *process* per clock domain (virtual time vs wall time —
  their microsecond axes must never share a timeline);
* one *thread* (track) per worker, plus server / scheduler / network
  tracks, named via ``M`` metadata events;
* spans as complete events (``ph: "X"``, microsecond ``ts``/``dur``),
  point events as instants (``ph: "i"``), causal links as flow pairs
  (``ph: "s"`` → ``ph: "f"``) — a re-synced worker's abort shows one
  arrow from the scheduler's decision that triggered it.

The run's metrics snapshot rides along under a top-level ``"metrics"``
key (the trace-event format explicitly allows extra top-level keys);
``repro analyze`` reports it back.

The file is the header object (every top-level key but ``traceEvents``,
on one line, reopened to take ``"traceEvents":[`` as its last member),
then one compact event per line, then ``]}`` — N events, N + 2 lines.

Determinism: event order follows record order, flow ids are assigned
sequentially, and header and events go through one
``JSONEncoder(sort_keys=True, separators=(",", ":"))`` — a seeded DES
run exports byte-identical files, which the golden-file test pins.
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, NamedTuple, Sequence, Tuple

from repro.obs.core import (
    AnyRecord,
    FlowRecord,
    InstantRecord,
    SpanRecord,
    TraceCollector,
)
from repro.obs.tracks import WORKER_TRACK_RE

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceFrame",
    "to_chrome_trace",
    "trace_frame",
    "trace_other_data",
    "write_chrome_trace",
]

#: Bumped whenever the layout of the exported JSON changes shape.
#: v2: top-level "perf" section; histogram snapshots carry exact
#: percentiles and non-empty buckets; metrics gained "gauges".
#: v3: no "perf" section (``repro analyze`` derives phases from spans).
TRACE_FORMAT_VERSION = 3

#: Stable pid per clock domain (virtual first: it is the primary substrate).
_DOMAIN_PIDS = {"virtual": 1, "wall": 2}

_SECONDS_TO_US = 1e6

#: One prebuilt encoder for the header and every event: ``encode`` (unlike
#: ``json.dump``, and unlike anything with ``indent``) runs in the C encoder.
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _track_sort_key(track: str) -> Tuple[int, int, str]:
    """Workers first (numeric order), then named tracks alphabetically."""
    match = WORKER_TRACK_RE.match(track)
    if match:
        return (0, int(match.group(1)), track)
    return (1, 0, track)


class TraceFrame(NamedTuple):
    """Where a record list lands in the exported file.

    One pid per clock domain, one tid per (domain, track), workers
    first; each domain's origin, from which timestamps count in
    microseconds rounded to 1e-3 µs; and the exported event count.
    In-process analysis reads records on this same frame, so it equals
    the analysis of the file.
    """

    pids: Dict[str, int]
    tids: Dict[Tuple[str, str], int]
    origins: Dict[str, float]
    events: int

    def us(self, domain: str, seconds: float) -> float:
        """A timestamp on the frame, in µs."""
        return round((seconds - self.origins.get(domain, 0.0)) * _SECONDS_TO_US, 3)

    @staticmethod
    def dur_us(start: float, end: float) -> float:
        """A span's duration on the frame, in µs."""
        return round(max(end - start, 0.0) * _SECONDS_TO_US, 3)


def trace_frame(records: Sequence[AnyRecord]) -> TraceFrame:
    """The frame the exporter lays ``records`` out on."""
    tracks = {}
    origins: Dict[str, float] = {}
    flows = 0
    for record in records:
        if isinstance(record, FlowRecord):
            flows += 1
            tracks[(record.domain, record.src_track)] = True
            tracks[(record.domain, record.dst_track)] = True
            first = min(record.src_ts, record.dst_ts)
        else:
            tracks[(record.domain, record.track)] = True
            first = record.start if isinstance(record, SpanRecord) else record.ts
        held = origins.get(record.domain)
        if held is None or first < held:
            origins[record.domain] = first
    # The virtual clock starts at 0 by construction; keep its axis
    # absolute so span timestamps equal virtual seconds * 1e6.  Wall
    # clocks have arbitrary epochs.
    if "virtual" in origins:
        origins["virtual"] = min(origins["virtual"], 0.0)
    ordered = sorted(tracks, key=lambda key: (key[0], _track_sort_key(key[1])))
    tids = {key: tid for tid, key in enumerate(ordered, start=1)}
    # Domains beyond virtual/wall (an injected FunctionClock's) each get
    # their own pid, by name from 3 up — a shared pid would merge them.
    named = sorted({domain for domain, _track in tids})
    custom = [domain for domain in named if domain not in _DOMAIN_PIDS]
    pids = {domain: _DOMAIN_PIDS[domain] for domain in named if domain in _DOMAIN_PIDS}
    pids.update((domain, pid) for pid, domain in enumerate(custom, start=3))
    return TraceFrame(
        {domain: pids[domain] for domain in named}, tids, origins,
        len(named) + len(tids) + len(records) + flows,
    )


def trace_other_data(metadata: Dict[object, object]) -> Dict[str, object]:
    """The file's ``otherData``: the format version, then the metadata."""
    other_data: Dict[str, object] = {"format_version": TRACE_FORMAT_VERSION}
    other_data.update({str(k): v for k, v in sorted(metadata.items())})
    return other_data


def to_chrome_trace(collector: TraceCollector) -> dict:
    """Render a collector as a Chrome trace-event JSON object."""
    records = list(collector.records)
    frame = trace_frame(records)
    pids, tids, us = frame.pids, frame.tids, frame.us

    # Metadata: name the processes (clock domains) and threads (tracks).
    events: List[dict] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": f"{domain} time"}}
        for domain, pid in pids.items()
    ]
    events.extend(
        {"ph": "M", "name": "thread_name", "pid": pids[domain], "tid": tid,
         "args": {"name": track}}
        for (domain, track), tid in tids.items()
    )

    flow_id = 0
    for record in records:
        domain = record.domain
        pid = pids[domain]
        if isinstance(record, SpanRecord):
            event = {"ph": "X", "name": record.name, "cat": record.cat, "pid": pid,
                     "tid": tids[(domain, record.track)], "ts": us(domain, record.start),
                     "dur": frame.dur_us(record.start, record.end)}
        elif isinstance(record, InstantRecord):
            # "s": "t" — a thread-scoped instant
            event = {"ph": "i", "s": "t", "name": record.name, "cat": record.cat,
                     "pid": pid, "tid": tids[(domain, record.track)],
                     "ts": us(domain, record.ts)}
        else:
            flow_id += 1
            event = {"ph": "s", "id": flow_id, "name": record.name, "cat": record.cat,
                     "pid": pid, "tid": tids[(domain, record.src_track)],
                     "ts": us(domain, record.src_ts)}
            # "bp": "e" binds the arrow head to the enclosing slice
            finish = {"ph": "f", "bp": "e", "id": flow_id, "name": record.name,
                      "cat": record.cat, "pid": pid,
                      "tid": tids[(domain, record.dst_track)],
                      "ts": us(domain, record.dst_ts)}
            if record.args:
                event["args"] = record.args
            events.append(event)
            events.append(finish)
            continue
        if record.args:
            event["args"] = record.args
        events.append(event)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": trace_other_data(collector.metadata),
        "metrics": collector.metrics.snapshot(),
    }


def write_chrome_trace(collector: TraceCollector, destination: IO[str]) -> int:
    """Serialize the trace to an open text file; returns the event count."""
    trace = to_chrome_trace(collector)
    events = trace.pop("traceEvents")
    # "traceEvents" sorts after every other top-level key, so the header
    # object is reopened and the events appended as its last member.
    destination.write(_ENCODE(trace)[:-1] + ',"traceEvents":[\n')
    destination.write(",\n".join(map(_ENCODE, events)))
    destination.write("\n]}\n" if events else "]}\n")
    return len(events)
