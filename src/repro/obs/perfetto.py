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

Each record is rendered straight to its line from a per-kind template,
a block of records at a time, each block written as it is done; each
template's keys stand in the order ``JSONEncoder(sort_keys=True)`` emits them
(``X``: args, cat, dur, name, ph, pid, tid, ts; ``i``: args, cat, name,
ph, pid, s, tid, ts; ``s``: args, cat, id, name, ph, pid, tid, ts;
``f``: bp, cat, id, name, ph, pid, tid, ts).  Names and categories are
escaped once per distinct string by ``encode_basestring_ascii``, ints and
finite floats are written by their ``repr``; only ``args``, the header
and a non-finite number go through the C encoder, whose text each
template reproduces byte for byte.

Timestamps count microseconds from each domain's origin, rounded to
1e-3 µs exactly as ``round(x, 3)`` rounds them, but a whole column at a
time (a block's in the writer, the record list's in
:func:`repro.obs.analysis.graph.frame_records`):
:meth:`TraceFrame.round_column` takes NumPy's ``rint(x * 1000) /
1000`` and sends back to ``round`` only the elements whose computed
product lands exactly on a half-integer (the one place the product's own
rounding can tip ``rint``) or past 2**52.

Determinism: event order follows record order and flow ids are
assigned sequentially, so a seeded DES run exports byte-identical
files, which the golden-file test pins.
"""

from __future__ import annotations

import io
import json
from json.encoder import encode_basestring_ascii
from math import isfinite
from typing import IO, Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

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

#: One prebuilt encoder for the header, ``args`` and non-finite numbers:
#: ``encode`` (unlike ``json.dump``, and unlike anything with ``indent``)
#: runs in the C encoder.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_ENCODE = _ENCODER.encode

#: Below 2**52 every half-integer is a double, and a scaled value minus
#: its ``rint`` is exact; from there up ``round`` decides.
_EXACT_BELOW = 2.0 ** 52

#: Records rendered per block: the block's rounding temporaries and lines
#: stay small, and the file is written as the blocks are done.
_BLOCK = 2048

#: Per-kind line bodies, keys in sorted order after a leading ``{`` or
#: ``{"args":…,``; the ``"pid":…,"tid":…`` run is one precomputed place
#: per track (an instant's holds its ``"s":"t"``, the thread scope).  A
#: flow's finish binds to the enclosing slice (``"bp":"e"``) and carries
#: no args, so its template is a whole line.
_SPAN = '"cat":%s,"dur":%s,"name":%s,"ph":"X",%s,"ts":%s}'
_INSTANT = '"cat":%s,"name":%s,"ph":"i",%s,"ts":%s}'
_FLOW_START = '"cat":%s,"id":%d,"name":%s,"ph":"s",%s,"ts":%s}'
_FLOW_FINISH = '{"bp":"e","cat":%s,"id":%d,"name":%s,"ph":"f",%s,"ts":%s}'
_PROCESS = '{"args":%s,"name":"process_name","ph":"M","pid":%d,"tid":0}'
_THREAD = '{"args":%s,"name":"thread_name","ph":"M","pid":%d,"tid":%d}'


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

    @staticmethod
    def round_column(values: np.ndarray) -> List[float]:
        """``round(x, 3)`` of every element, bit for bit, in one pass.

        ``round`` rounds the exact ``x * 1000`` to an integer (ties to
        even) and returns the double nearest that integer / 1000.  The
        product as computed, ``p``, is the double nearest the exact one,
        and below 2**52 every half-integer is a double, so ``p`` lies on
        the same side of each half-integer as the exact product unless it
        lands on one.  Where it does not, ``rint(p) / 1000`` is
        ``round``'s answer; the elements that land on a half-integer (and
        those past 2**52, NaN and the infinities) go to ``round`` itself.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = values * 1000.0
            nearest = np.rint(scaled)
            rounded = (nearest / 1000.0).tolist()
            doubtful = ~(np.abs(scaled) < _EXACT_BELOW) | (np.abs(scaled - nearest) == 0.5)
        for index in np.flatnonzero(doubtful).tolist():
            rounded[index] = round(float(values[index]), 3)
        return rounded

    def times_us(self, records: Sequence[AnyRecord]) -> Tuple[List[float], List[float]]:
        """Every record's times on the frame, in µs, one rounded column.

        The first list holds a span's start, an instant's timestamp and a
        flow's source timestamp, each counted from its domain's origin;
        the second a span's duration (a negative one clamps to 0) and a
        flow's destination timestamp (an instant's entry is its first).
        """
        at: List[float] = []
        until: List[float] = []
        base: List[float] = []
        span: List[bool] = []
        origins = self.origins
        for record in records:
            base.append(origins[record.domain])
            if isinstance(record, SpanRecord):
                at.append(record.start)
                until.append(record.end)
                span.append(True)
            else:
                if isinstance(record, InstantRecord):
                    at.append(record.ts)
                    until.append(record.ts)
                else:
                    at.append(record.src_ts)
                    until.append(record.dst_ts)
                span.append(False)
        first = np.array(at, dtype=float)
        second = np.array(until, dtype=float)
        origin = np.array(base, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            length = second - first
            second = np.where(
                np.array(span, dtype=bool),
                np.where(length < 0.0, 0.0, length) * _SECONDS_TO_US,
                (second - origin) * _SECONDS_TO_US,
            )
            first = (first - origin) * _SECONDS_TO_US
        column = self.round_column(np.concatenate((first, second)))
        return column[: len(records)], column[len(records):]


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


class _Quoted(Dict[str, str]):
    """Each distinct string's JSON text, escaped on first use."""

    def __missing__(self, text: str) -> str:
        quoted = self[text] = encode_basestring_ascii(text)
        return quoted


def _args_encoder() -> Callable[[object], str]:
    """``_ENCODE`` without its per-call set-up: the C encoder it builds
    for each one-shot ``encode``, built once (with fresh circular-reference
    markers) for one file."""
    make_encoder = getattr(json.encoder, "c_make_encoder", None)
    if make_encoder is None:
        return _ENCODE
    iterencode = make_encoder(
        {}, _ENCODER.default, encode_basestring_ascii, None,
        _ENCODER.key_separator, _ENCODER.item_separator, True, False, True,
    )
    return lambda value: "".join(iterencode(value, 0))


def _finite(values: List[float]) -> List[object]:
    """``values``, with the encoder's text in place of each non-finite one
    (a template's ``%s`` writes a finite float as its ``repr``)."""
    if all(map(isfinite, values)):
        return values
    return [value if isfinite(value) else _ENCODE(value) for value in values]


def _event_blocks(records: Sequence[AnyRecord], frame: TraceFrame) -> Iterator[List[str]]:
    """Every event of the file, one compact sorted-key object per line:
    the metadata events, then the records' events a block at a time."""
    pids, tids = frame.pids, frame.tids
    # Metadata: name the processes (clock domains) and threads (tracks).
    lines = [
        _PROCESS % (_ENCODE({"name": f"{domain} time"}), pid)
        for domain, pid in pids.items()
    ]
    lines.extend(
        _THREAD % (_ENCODE({"name": track}), pids[domain], tid)
        for (domain, track), tid in tids.items()
    )
    yield lines
    places = {key: f'"pid":{pids[key[0]]},"tid":{tid}' for key, tid in tids.items()}
    scoped = {key: f'"pid":{pids[key[0]]},"s":"t","tid":{tid}' for key, tid in tids.items()}
    encode_args = _args_encoder()
    quoted = _Quoted()
    flow_id = 0
    for begin in range(0, len(records), _BLOCK):
        block = records[begin:begin + _BLOCK]
        firsts, seconds = frame.times_us(block)
        lines = []
        for record, ts, second in zip(block, _finite(firsts), _finite(seconds)):
            if isinstance(record, SpanRecord):
                body = _SPAN % (quoted[record.cat], second, quoted[record.name],
                                places[(record.domain, record.track)], ts)
            elif isinstance(record, InstantRecord):
                body = _INSTANT % (quoted[record.cat], quoted[record.name],
                                   scoped[(record.domain, record.track)], ts)
            else:
                flow_id += 1
                cat, name = quoted[record.cat], quoted[record.name]
                body = _FLOW_START % (cat, flow_id, name,
                                      places[(record.domain, record.src_track)], ts)
                args = record.args
                lines.append('{"args":' + encode_args(args) + "," + body if args else "{" + body)
                lines.append(_FLOW_FINISH % (
                    cat, flow_id, name, places[(record.domain, record.dst_track)], second,
                ))
                continue
            args = record.args
            lines.append('{"args":' + encode_args(args) + "," + body if args else "{" + body)
        yield lines


def write_chrome_trace(collector: TraceCollector, destination: IO[str]) -> int:
    """Serialize the trace to an open text file; returns the event count."""
    records = list(collector.records)
    header = {
        "displayTimeUnit": "ms",
        "otherData": trace_other_data(collector.metadata),
        "metrics": collector.metrics.snapshot(),
    }
    # "traceEvents" sorts after every other top-level key, so the header
    # object is reopened and the events appended as its last member.
    destination.write(_ENCODE(header)[:-1] + ',"traceEvents":[\n')
    count = 0
    for lines in _event_blocks(records, trace_frame(records)):
        if lines:
            destination.write((",\n" if count else "") + ",\n".join(lines))
            count += len(lines)
    destination.write("\n]}\n" if count else "]}\n")
    return count


def to_chrome_trace(collector: TraceCollector) -> dict:
    """The trace as a Chrome trace-event JSON object: the parse of what
    :func:`write_chrome_trace` writes."""
    buffer = io.StringIO()
    write_chrome_trace(collector, buffer)
    return json.loads(buffer.getvalue())
