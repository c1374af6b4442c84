"""Performance phases and detector verdicts that ``repro analyze`` derives
from the worker spans of a trace (:mod:`repro.obs.analysis.phases`).

The headline guarantee: two identical seeded DES runs produce
byte-identical ``phases`` and ``detectors``, because every duration is
virtual time and every report renders sorted.
"""

import io
import json

import pytest

from repro.cluster.spec import ClusterSpec
from repro.core.specsync import SpecSyncPolicy
from repro.obs import analyze_trace, collecting, render_analysis_text, write_chrome_trace
from repro.obs.analysis.phases import PHASES
from repro.workloads import tiny_workload

_US = 1_000_000


def _seeded_analysis() -> dict:
    with collecting() as collector:
        tiny_workload().run(
            ClusterSpec.homogeneous(3), SpecSyncPolicy.adaptive(),
            seed=3, horizon_s=30.0,
        )
    handle = io.StringIO()
    write_chrome_trace(collector, handle)
    return analyze_trace(json.loads(handle.getvalue()))


class TestDeterminism:
    def test_identical_runs_have_byte_identical_snapshots(self):
        first, second = (_seeded_analysis()["runs"] for _ in range(2))
        for key in ("phases", "detectors"):
            assert json.dumps([r[key] for r in first], sort_keys=True) == json.dumps(
                [r[key] for r in second], sort_keys=True
            )

    def test_expected_phases_and_reports_are_present(self):
        (run,) = _seeded_analysis()["runs"]
        assert list(run["phases"]) == list(PHASES)
        for name in PHASES:
            stats = run["phases"][name]
            assert stats["count"] > 0, name
            assert stats["p50"] <= stats["p90"] <= stats["p99"] <= stats["max"]
        # Every completed iteration is one push and one iteration span.
        pushes = sum(w["pushes"] for w in run["ledger"]["per_worker"].values())
        assert run["phases"]["iteration"]["count"] == pushes
        assert run["phases"]["compute_aborted"]["count"] == run["ledger"]["total_aborts"]
        straggler, storm = run["detectors"]["straggler"], run["detectors"]["abort_storm"]
        assert straggler["num_workers"] == 3
        assert straggler["total_pushes"] == pushes
        assert storm["total_aborts"] == run["ledger"]["total_aborts"]


# ----------------------------------------------------------------------
# Synthetic traces: which spans count, and the detectors' feed
# ----------------------------------------------------------------------
def _trace(events, workers=2, meta=None):
    layout = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": "virtual time"}}]
    layout += [{"ph": "M", "pid": 1, "tid": w + 1, "name": "thread_name",
                "args": {"name": f"worker-{w}"}} for w in range(workers)]
    layout.append({"ph": "M", "pid": 1, "tid": 99, "name": "thread_name",
                   "args": {"name": "server"}})
    return {"traceEvents": layout + events, "otherData": dict(meta or {})}


def _span(tid, name, start_s, dur_s, args=None):
    return {"ph": "X", "pid": 1, "tid": tid, "name": name, "cat": "span",
            "ts": start_s * _US, "dur": dur_s * _US, "args": args or {}}


def _abort(tid, ts_s):
    return {"ph": "i", "s": "t", "pid": 1, "tid": tid, "name": "abort",
            "cat": "abort", "ts": ts_s * _US}


class TestPhaseStats:
    def test_server_spans_do_not_count_and_aborted_compute_is_split(self):
        (run,) = analyze_trace(_trace([
            _span(1, "pull", 0.0, 1.0),
            _span(99, "pull", 0.0, 5.0),   # the server's side of the pull
            _span(1, "compute", 1.0, 0.5, {"aborted": True}),
            _span(1, "compute", 1.5, 2.0, {"aborted": False}),
            _span(2, "compute", 0.0, 4.0),
            _span(1, "push", 3.5, 0.25),
            _span(99, "push", 3.5, 9.0),
        ]))["runs"]
        phases = run["phases"]
        assert phases["pull"]["count"] == 1 and phases["pull"]["max"] == 1.0
        assert phases["compute_aborted"]["count"] == 1
        assert phases["compute_aborted"]["max"] == 0.5
        assert phases["compute"]["count"] == 2
        assert phases["compute"]["mean"] == 3.0
        assert phases["push"]["max"] == 0.25
        assert phases["iteration"] == {
            "count": 0, "mean": None, "p50": None, "p90": None, "p99": None, "max": None,
        }

    def test_percentiles_are_nearest_rank(self):
        (run,) = analyze_trace(_trace([
            _span(1, "iteration", float(i), float(i)) for i in range(1, 11)
        ]))["runs"]
        stats = run["phases"]["iteration"]
        assert (stats["p50"], stats["p90"], stats["p99"], stats["max"]) == (5.0, 9.0, 10.0, 10.0)


class TestDetectorFeed:
    def test_push_ends_feed_both_detectors_and_aborts_the_storm_detector(self):
        (run,) = analyze_trace(_trace([
            _span(1, "push", 0.0, 1.0),
            _abort(2, 1.5),
            _span(2, "push", 1.0, 2.0),
        ]))["runs"]
        straggler, storm = run["detectors"]["straggler"], run["detectors"]["abort_storm"]
        assert straggler["total_pushes"] == 2
        assert (storm["total_pushes"], storm["total_aborts"]) == (2, 1)
        assert storm["abort_ratio"] == pytest.approx(1 / 3)

    def test_worker_count_prefers_run_metadata(self):
        events = [_span(1, "push", 0.0, 1.0), _span(2, "pull", 0.0, 1.0)]
        (bare,) = analyze_trace(_trace(events))["runs"]
        (declared,) = analyze_trace(_trace(events, meta={"workers": 8}))["runs"]
        assert bare["detectors"]["straggler"]["num_workers"] == 2
        assert declared["detectors"]["straggler"]["num_workers"] == 8

    def test_a_run_without_workers_still_gets_a_report(self):
        (run,) = analyze_trace(_trace([_span(99, "push", 0.0, 1.0)], workers=0))["runs"]
        assert run["detectors"]["straggler"]["stragglers"] == []
        assert run["detectors"]["abort_storm"]["total_pushes"] == 0


class TestTraceExport:
    def test_analysis_text_renders_phases_and_detectors(self):
        text = render_analysis_text(_seeded_analysis())
        assert "worker phase percentiles" in text
        assert "compute_aborted" in text
        assert "detectors: no stragglers; abort storm calm" in text

    def test_analysis_text_without_perf_section(self):
        text = render_analysis_text(analyze_trace({
            "traceEvents": [],
            "metrics": {"counters": {"engine.pushes": 1}},
        }))
        assert "metrics-only capture" in text
        assert "worker phase percentiles" not in text
        assert "detectors:" not in text
