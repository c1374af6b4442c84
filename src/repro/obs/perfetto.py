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
import re
from typing import IO, Dict, List, Tuple, Union

from repro.obs.core import (
    FlowRecord,
    InstantRecord,
    SpanRecord,
    TraceCollector,
)

__all__ = ["to_chrome_trace", "write_chrome_trace", "TRACE_FORMAT_VERSION"]

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

_WORKER_TRACK = re.compile(r"^(?:rt\.)?worker-(\d+)$")


def _track_sort_key(track: str) -> Tuple[int, int, str]:
    """Workers first (numeric order), then named tracks alphabetically."""
    match = _WORKER_TRACK.match(track)
    if match:
        return (0, int(match.group(1)), track)
    return (1, 0, track)


def _assign_tids(
    records: List[Union[SpanRecord, InstantRecord, FlowRecord]],
) -> Dict[Tuple[str, str], int]:
    """Deterministic (domain, track) → tid map, workers laid out first."""
    tracks = {}
    for record in records:
        if isinstance(record, FlowRecord):
            tracks[(record.domain, record.src_track)] = True
            tracks[(record.domain, record.dst_track)] = True
        else:
            tracks[(record.domain, record.track)] = True
    ordered = sorted(tracks, key=lambda key: (key[0], _track_sort_key(key[1])))
    return {key: tid for tid, key in enumerate(ordered, start=1)}


def _domain_origins(
    records: List[Union[SpanRecord, InstantRecord, FlowRecord]],
) -> Dict[str, float]:
    """Earliest timestamp per domain — wall clocks have arbitrary epochs."""
    origins: Dict[str, float] = {}
    for record in records:
        if isinstance(record, SpanRecord):
            first = record.start
        elif isinstance(record, InstantRecord):
            first = record.ts
        else:
            first = min(record.src_ts, record.dst_ts)
        held = origins.get(record.domain)
        if held is None or first < held:
            origins[record.domain] = first
    # The virtual clock starts at 0 by construction; keep its axis
    # absolute so span timestamps equal virtual seconds * 1e6.
    if "virtual" in origins:
        origins["virtual"] = min(origins["virtual"], 0.0)
    return origins


def to_chrome_trace(collector: TraceCollector) -> dict:
    """Render a collector as a Chrome trace-event JSON object."""
    records = list(collector.records)
    tids = _assign_tids(records)
    origins = _domain_origins(records)
    events: List[dict] = []

    # Metadata: name the processes (clock domains) and threads (tracks).
    # Domains beyond virtual/wall (an injected FunctionClock's) each get
    # their own pid, by name from 3 up — a shared pid would merge them.
    named_domains = sorted({domain for domain, _track in tids})
    pids = dict(_DOMAIN_PIDS)
    custom = [domain for domain in named_domains if domain not in pids]
    pids.update((domain, pid) for pid, domain in enumerate(custom, start=3))
    for domain in named_domains:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pids[domain],
                "tid": 0,
                "args": {"name": f"{domain} time"},
            }
        )
    for (domain, track), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pids[domain],
                "tid": tid,
                "args": {"name": track},
            }
        )

    def _us(domain: str, seconds: float) -> float:
        return round((seconds - origins.get(domain, 0.0)) * _SECONDS_TO_US, 3)

    flow_id = 0
    for record in records:
        pid = pids[record.domain]
        if isinstance(record, SpanRecord):
            event = {
                "ph": "X",
                "name": record.name,
                "cat": record.cat,
                "pid": pid,
                "tid": tids[(record.domain, record.track)],
                "ts": _us(record.domain, record.start),
                "dur": round(
                    max(record.end - record.start, 0.0) * _SECONDS_TO_US, 3
                ),
            }
            if record.args:
                event["args"] = record.args
            events.append(event)
        elif isinstance(record, InstantRecord):
            event = {
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "name": record.name,
                "cat": record.cat,
                "pid": pid,
                "tid": tids[(record.domain, record.track)],
                "ts": _us(record.domain, record.ts),
            }
            if record.args:
                event["args"] = record.args
            events.append(event)
        else:
            flow_id += 1
            start = {
                "ph": "s",
                "id": flow_id,
                "name": record.name,
                "cat": record.cat,
                "pid": pid,
                "tid": tids[(record.domain, record.src_track)],
                "ts": _us(record.domain, record.src_ts),
            }
            finish = {
                "ph": "f",
                "bp": "e",  # bind to the enclosing slice at the arrow head
                "id": flow_id,
                "name": record.name,
                "cat": record.cat,
                "pid": pid,
                "tid": tids[(record.domain, record.dst_track)],
                "ts": _us(record.domain, record.dst_ts),
            }
            if record.args:
                start["args"] = record.args
            events.append(start)
            events.append(finish)

    other_data = {"format_version": TRACE_FORMAT_VERSION}
    other_data.update({str(k): v for k, v in sorted(collector.metadata.items())})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other_data,
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
