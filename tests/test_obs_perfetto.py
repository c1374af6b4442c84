"""Tests for the Chrome trace-event (Perfetto) exporter.

Covers the JSON schema (phases, µs timestamps, pid/tid layout, args),
flow-event pairing, and a golden-file round trip on a seeded 3-worker
run.  Regenerate the golden file after an intentional format change
with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_perfetto.py
"""

import io
import json
import os
from pathlib import Path

import pytest

from repro import ClusterSpec, Simulator, SpecSyncPolicy
from repro.obs import (
    TRACE_FORMAT_VERSION,
    CausalGraph,
    FunctionClock,
    TraceCollector,
    Tracer,
    VirtualClock,
    analyze_trace,
    collecting,
    render_analysis_text,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.workloads import tiny_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trace.json"

#: pid per clock domain, mirrored from the exporter's contract.
VIRTUAL_PID, WALL_PID = 1, 2


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
    """``write_chrome_trace`` lays the object out a line per event; what
    it parses to is exactly ``to_chrome_trace``'s object."""

    @pytest.mark.parametrize(
        "make_collector", [_seeded_run_collector, _mixed_collector, TraceCollector]
    )
    def test_parses_to_the_one_shot_dump_one_line_per_event(self, make_collector):
        collector = make_collector()
        buffer = io.StringIO()
        count = write_chrome_trace(collector, buffer)
        written = buffer.getvalue()
        reference = json.loads(json.dumps(to_chrome_trace(collector)))
        assert json.loads(written) == reference
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
