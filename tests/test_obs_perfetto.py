"""Tests for the Chrome trace-event (Perfetto) exporter.

Covers the JSON schema (phases, µs timestamps, pid/tid layout, args),
flow-event pairing, a golden-file round trip on a seeded 3-worker run,
and two properties: the template writer's text equals an event-dict
oracle's (one dict per event, each through the sorted-key C encoder,
timestamps through ``round(x, 3)``), and the frame's column rounding
equals ``round(x, 3)`` bit for bit.  Regenerate the golden file after an
intentional format change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_perfetto.py
"""

import io
import json
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import ClusterSpec, Simulator, SpecSyncPolicy
from repro.obs import (
    TRACE_FORMAT_VERSION,
    CausalGraph,
    FlowRecord,
    FunctionClock,
    InstantRecord,
    SpanRecord,
    TraceCollector,
    Tracer,
    VirtualClock,
    analyze_trace,
    collecting,
    render_analysis_text,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs import perfetto
from repro.obs.perfetto import TraceFrame, trace_frame, trace_other_data
from repro.workloads import tiny_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.json"

#: pid per clock domain, mirrored from the exporter's contract.
VIRTUAL_PID, WALL_PID = 1, 2


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def oracle_trace(collector: TraceCollector) -> dict:
    """The trace object as one dict per event: the exporter before it
    rendered lines from templates, kept as the reference its text must
    equal."""
    records = list(collector.records)
    frame = trace_frame(records)
    pids, tids, origins = frame.pids, frame.tids, frame.origins

    def us(domain, seconds):
        return round((seconds - origins.get(domain, 0.0)) * 1e6, 3)

    def dur_us(start, end):
        return round(max(end - start, 0.0) * 1e6, 3)

    events = [
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
                     "dur": dur_us(record.start, record.end)}
        elif isinstance(record, InstantRecord):
            event = {"ph": "i", "s": "t", "name": record.name, "cat": record.cat,
                     "pid": pid, "tid": tids[(domain, record.track)],
                     "ts": us(domain, record.ts)}
        else:
            flow_id += 1
            event = {"ph": "s", "id": flow_id, "name": record.name, "cat": record.cat,
                     "pid": pid, "tid": tids[(domain, record.src_track)],
                     "ts": us(domain, record.src_ts)}
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


def oracle_text(collector: TraceCollector) -> str:
    """:func:`oracle_trace` laid out as the file: header line, one
    ``_ENCODE``d event per line, ``]}``."""
    trace = oracle_trace(collector)
    events = trace.pop("traceEvents")
    return (
        _ENCODE(trace)[:-1] + ',"traceEvents":[\n'
        + ",\n".join(map(_ENCODE, events))
        + ("\n]}\n" if events else "]}\n")
    )


def _seeded_run_collector() -> TraceCollector:
    collector = TraceCollector()
    collector.metadata["workload"] = "tiny"
    collector.metadata["seed"] = 3
    with collecting(collector):
        workload = tiny_workload()
        cluster = ClusterSpec.homogeneous(3)
        workload.run(
            cluster, SpecSyncPolicy.adaptive(), seed=3, horizon_s=30.0
        )
    return collector


@pytest.fixture(scope="module")
def run_trace() -> dict:
    return to_chrome_trace(_seeded_run_collector())


class TestSchema:
    def test_top_level_layout(self, run_trace):
        assert set(run_trace) == {
            "traceEvents", "displayTimeUnit", "otherData", "metrics"
        }
        assert run_trace["displayTimeUnit"] == "ms"
        assert run_trace["otherData"]["format_version"] == TRACE_FORMAT_VERSION
        assert run_trace["otherData"]["workload"] == "tiny"
        assert set(run_trace["metrics"]) == {
            "counters", "gauges", "histograms"
        }

    def test_every_event_is_well_formed(self, run_trace):
        for event in run_trace["traceEvents"]:
            assert event["ph"] in {"X", "i", "s", "f", "M"}
            assert isinstance(event["name"], str)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "M":
                assert event["name"] in {"process_name", "thread_name"}
                assert "name" in event["args"]
            else:
                assert event["ts"] >= 0.0
                assert "cat" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            if event["ph"] == "i":
                assert event["s"] == "t"
            if event["ph"] == "f":
                assert event["bp"] == "e"

    def test_one_track_per_worker_plus_named_tracks(self, run_trace):
        names = {
            event["args"]["name"]: (event["pid"], event["tid"])
            for event in run_trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert {"worker-0", "worker-1", "worker-2", "server",
                "scheduler"} <= set(names)
        # Workers first, in numeric order, all on the virtual-time process.
        assert [names[f"worker-{i}"] for i in range(3)] == [
            (VIRTUAL_PID, 1), (VIRTUAL_PID, 2), (VIRTUAL_PID, 3)
        ]

    def test_span_timestamps_are_virtual_microseconds(self, run_trace):
        spans = [e for e in run_trace["traceEvents"] if e["ph"] == "X"]
        assert spans
        # The tiny run lasts under a virtual minute: 60e6 µs.
        assert all(0.0 <= e["ts"] <= 60e6 for e in spans)

    def test_args_survive_export(self, run_trace):
        decisions = [
            e for e in run_trace["traceEvents"]
            if e["ph"] == "i" and e["name"] == "resync_decision"
        ]
        assert decisions
        for event in decisions:
            assert {"worker", "iteration", "peer_pushes",
                    "threshold"} <= set(event["args"])


class TestFlowPairing:
    def test_every_flow_id_pairs_exactly_once(self, run_trace):
        starts = [e for e in run_trace["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in run_trace["traceEvents"] if e["ph"] == "f"]
        assert starts, "the seeded run must produce abort flow arrows"
        assert sorted(e["id"] for e in starts) == sorted(
            e["id"] for e in finishes
        )
        assert len({e["id"] for e in starts}) == len(starts)

    def test_abort_arrows_point_at_the_aborted_worker(self, run_trace):
        finishes = {
            e["id"]: e for e in run_trace["traceEvents"] if e["ph"] == "f"
        }
        worker_tids = {
            event["tid"]
            for event in run_trace["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
            and event["args"]["name"].startswith("worker-")
        }
        for event in run_trace["traceEvents"]:
            if event["ph"] == "s":
                finish = finishes[event["id"]]
                assert event["cat"] == finish["cat"] == "abort"
                assert finish["tid"] in worker_tids
                assert finish["ts"] >= event["ts"]

    def test_unclosed_origins_are_not_exported(self):
        collector = TraceCollector()
        tracer = Tracer(collector, VirtualClock(Simulator()))
        tracer.flow_begin(("resync", 0, 1), "worker-1", "abort", ts=1.0)
        trace = to_chrome_trace(collector)
        assert all(e["ph"] not in {"s", "f"} for e in trace["traceEvents"])


class TestDomains:
    def test_wall_epoch_is_normalized_virtual_is_absolute(self):
        collector = TraceCollector()
        sim = Simulator()
        virtual = Tracer(collector, VirtualClock(sim))
        ticks = iter([1e9 + 5.0, 1e9 + 6.0])
        wall = Tracer(collector, FunctionClock(lambda: next(ticks)))
        virtual.span("worker-0", "compute", start=2.0, end=3.0)
        with wall.measure("rt.run", "run"):
            pass
        events = {
            (e["pid"], e["name"]): e
            for e in to_chrome_trace(collector)["traceEvents"]
            if e["ph"] == "X"
        }
        # Virtual timestamps stay absolute (2 s -> 2e6 µs); the wall span
        # is rebased to its own earliest record.
        assert events[(VIRTUAL_PID, "compute")]["ts"] == pytest.approx(2e6)
        assert events[(WALL_PID, "run")]["ts"] == pytest.approx(0.0)
        assert events[(WALL_PID, "run")]["dur"] == pytest.approx(1e6)


    def test_custom_domains_get_distinct_pids_and_segments(self):
        # Two non-standard clock domains used to share pid 99, so the
        # analyzer relabelled one as the other and merged their runs.
        collector = TraceCollector()
        gpu = Tracer(collector, FunctionClock(lambda: 0.0, domain="gpu"))
        nic = Tracer(collector, FunctionClock(lambda: 0.0, domain="nic"))
        virtual = Tracer(collector, VirtualClock(Simulator()))
        nic.span("queue-0", "send", start=0.0, end=1.0)
        gpu.span("stream-0", "compute", start=0.0, end=2.0)
        virtual.span("worker-0", "pull", start=0.0, end=1.0)
        trace = to_chrome_trace(collector)
        pids = {
            e["args"]["name"]: e["pid"] for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        # virtual/wall keep 1/2; the rest count up from 3 in name order
        assert pids == {"gpu time": 3, "nic time": 4, "virtual time": VIRTUAL_PID}
        runs = CausalGraph.from_trace(trace).runs
        assert {run.domain: [s.name for s in run.spans] for run in runs} == {
            "gpu": ["compute"], "nic": ["send"], "virtual": ["pull"],
        }


def _mixed_collector() -> TraceCollector:
    """Spans, instants and flows on wall + virtual domains, with and
    without ``args`` (an empty dict is dropped like a missing one)."""
    collector = TraceCollector()
    collector.metadata["seed"] = 11
    virtual = Tracer(collector, VirtualClock(Simulator()))
    ticks = iter([1e9 + 5.0, 1e9 + 6.5])
    wall = Tracer(collector, FunctionClock(lambda: next(ticks)))
    virtual.span("worker-0", "compute", start=0.5, end=1.25, args={})
    virtual.span("worker-1", "pull", start=0.0, end=0.25, args={"version": 3})
    virtual.instant("scheduler", "notify", ts=1.25)
    virtual.instant("server", "eval", ts=2.0, args={"loss": 0.125, "ok": True})
    virtual.flow_begin(("k",), "worker-1", "abort", ts=0.25, cat="abort",
                       args={"pusher": 1})
    virtual.flow_begin(("k",), "scheduler", "abort", ts=1.0, cat="abort")
    virtual.flow_end(("k",), "worker-0", ts=1.25)
    with wall.measure("rt.run", "run"):
        pass
    virtual.count("pushes")
    virtual.observe("staleness", 2.0)
    return collector


class TestWrittenFile:
    """``write_chrome_trace`` lays the object out a line per event; its
    text is exactly the event-dict oracle's."""

    @pytest.mark.parametrize(
        "make_collector", [_seeded_run_collector, _mixed_collector, TraceCollector]
    )
    def test_parses_to_the_one_shot_dump_one_line_per_event(self, make_collector):
        collector = make_collector()
        buffer = io.StringIO()
        count = write_chrome_trace(collector, buffer)
        written = buffer.getvalue()
        assert written == oracle_text(collector)
        reference = json.loads(json.dumps(oracle_trace(collector)))
        assert json.loads(written) == reference == to_chrome_trace(collector)
        assert count == len(reference["traceEvents"])
        lines = written.split("\n")
        assert lines[-1] == "" and len(lines) - 1 == count + 2
        assert lines[0].startswith('{"displayTimeUnit":"ms",')
        assert lines[0].endswith(',"traceEvents":[')
        assert lines[-2] == "]}"
        # each event line stands alone as one compact sorted-key object
        events = [json.loads(line.rstrip(",")) for line in lines[1:-2]]
        assert events == reference["traceEvents"]
        for line, event in zip(lines[1:-2], events):
            assert line.rstrip(",") == json.dumps(
                event, sort_keys=True, separators=(",", ":")
            )

    def test_a_file_of_several_blocks_equals_the_oracle(self):
        # the writer renders and rounds records a block at a time; flow
        # ids and line separators must carry across block boundaries
        rng = random.Random(5)
        collector = TraceCollector()
        count = 2 * perfetto._BLOCK + 77
        for index in range(count):
            domain = rng.choice(["virtual", "wall"])
            track = f"worker-{rng.randrange(12)}"
            start = rng.uniform(0.0, 100.0) + (1e9 if domain == "wall" else 0.0)
            args = rng.choice([None, {}, {"iteration": index, "loss": rng.random()}])
            kind = rng.randrange(3)
            if kind == 0:
                record = SpanRecord(domain, track, "compute", "compute", start,
                                    start + rng.uniform(-0.01, 0.5), args)
            elif kind == 1:
                record = InstantRecord(domain, track, "notify", "sync", start, args)
            else:
                record = FlowRecord(domain, "abort", "abort", "scheduler", start,
                                    track, start + rng.random(), args)
            collector.records.append(record)
        buffer = io.StringIO()
        written = write_chrome_trace(collector, buffer)
        assert buffer.getvalue() == oracle_text(collector)
        assert written == len(oracle_trace(collector)["traceEvents"]) > count

    def test_identical_seeded_runs_export_identical_bytes(self):
        first, second = io.StringIO(), io.StringIO()
        write_chrome_trace(_seeded_run_collector(), first)
        write_chrome_trace(_seeded_run_collector(), second)
        assert first.getvalue() == second.getvalue()


class TestGoldenFile:
    def test_seeded_export_matches_golden(self):
        buffer = io.StringIO()
        write_chrome_trace(_seeded_run_collector(), buffer)
        rendered = buffer.getvalue()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(rendered, encoding="utf-8")
        golden = GOLDEN_PATH.read_text(encoding="utf-8")
        assert rendered == golden, (
            "export drifted from tests/data/golden_trace.json; if the "
            "format change is intentional, regenerate with "
            "REPRO_REGEN_GOLDEN=1"
        )

    def test_golden_round_trips_through_the_analyzer(self):
        with GOLDEN_PATH.open(encoding="utf-8") as handle:
            trace = json.load(handle)
        recording = analyze_trace(trace)["recording"]
        assert recording["events"] == len(trace["traceEvents"])
        assert {"pull", "compute", "push", "iteration"} <= set(recording["spans"])
        assert recording["instants"]["resync_decision"] >= 1
        assert recording["flow_pairs"]["abort"] >= 1
        text = render_analysis_text(analyze_trace(trace))
        assert "flow origins:" in text
        assert "critical-path attribution" in text


#: strings the escaper must get right: non-ASCII, quotes, backslashes and
#: control characters, and the empty string
_TRICKY = st.text(
    alphabet=st.sampled_from('aZ0 -"\\/\b\f\n\r\t\x00\x1f\x7f\xe9€ \U0001f600'),
    max_size=6,
)
_TEXT = _TRICKY | st.text(max_size=6)
_DOMAIN = st.sampled_from(["virtual", "wall", "gpu"]) | _TRICKY
_TRACK = st.sampled_from(["worker-0", "worker-2", "worker-10", "server", "scheduler"]) | _TEXT
#: a small pool makes equal (zero-length) and reversed (negative-length)
#: spans common; the open ranges add wall epochs, NaN and the infinities
_TIME = (
    st.sampled_from([0.0, -0.0, 0.5, 1.25, 2.0, 1e9 + 5.0])
    | st.floats(-1e7, 1e7)
    | st.floats()
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**53, 2**80)
    | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_ARGS = st.none() | st.just({}) | st.dictionaries(_TEXT, _JSON, max_size=4)
_RECORD = st.one_of(
    st.builds(SpanRecord, _DOMAIN, _TRACK, _TEXT, _TEXT, _TIME, _TIME, _ARGS),
    st.builds(InstantRecord, _DOMAIN, _TRACK, _TEXT, _TEXT, _TIME, _ARGS),
    st.builds(FlowRecord, _DOMAIN, _TEXT, _TEXT, _TRACK, _TIME, _TRACK, _TIME, _ARGS),
)


class TestTemplatesMatchTheEncoder:
    @settings(deadline=None, max_examples=200)
    @given(records=st.lists(_RECORD, max_size=12), label=_TEXT)
    def test_written_text_equals_the_event_dict_oracle(self, records, label):
        collector = TraceCollector()
        collector.records.extend(records)
        collector.metadata.update({"seed": 3, "label": label})
        buffer = io.StringIO()
        count = write_chrome_trace(collector, buffer)
        expected = oracle_text(collector)
        assert buffer.getvalue() == expected
        assert count == expected.count("\n") - 2


def _stepped(k: int, ulps: int) -> float:
    """``ulps`` doubles away from (k + 0.5) / 1000: where ``x * 1000``
    itself rounds onto or across a half-integer."""
    value = (k + 0.5) / 1000
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


_ROUNDABLE = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(-1e13, 1e13)
    | st.builds(_stepped, st.integers(-10**16, 10**16), st.integers(-4, 4))
    | st.builds(_stepped, st.integers(-10**6, 10**6), st.integers(-4, 4))
    | st.sampled_from([0.0, -0.0])
)


class TestColumnRounding:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(_ROUNDABLE, max_size=40))
    @example([0.0625, -0.0625, 2.675, 1.0005, -0.0004, -0.0, 4503599627370.4965,
              1e13 + 0.5, 1e13 - 0.0005])
    def test_equals_round_to_three_places_bit_for_bit(self, values):
        rounded = TraceFrame.round_column(np.array(values, dtype=float))
        assert [value.hex() for value in rounded] == [
            round(value, 3).hex() for value in values
        ]
