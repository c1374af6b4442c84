"""Tests for the causal trace analytics (`repro.obs.analysis`).

Three layers:

* a synthetic-graph unit suite over hand-built trace dicts (attribution
  tiling, aborted-span splitting, concurrent flows, malformed causality);
* a golden analytics file from a seeded DES run of all four schemes —
  byte-identical JSON, regenerate intentional changes with::

      REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_analysis.py

* a multiprocess-backend round trip (wall-clock trace → causal graph).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import ClusterSpec
from repro.cluster.compute import ComputeTimeModel
from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.tuning import FixedTuner
from repro.experiments.common import scheme_catalog
from repro.ml import SoftmaxRegressionModel, SyntheticImageDataset
from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.obs import TraceCollector, collecting, to_chrome_trace
from repro.obs.analysis import (
    ATTRIBUTION_CATEGORIES,
    AnalysisError,
    CausalGraph,
    analyze_trace,
    render_analysis_comparison,
    render_analysis_text,
)
from repro.workloads import tiny_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_analysis.json"

_US = 1_000_000

#: the four schemes the golden run races (paper's headline comparison set)
GOLDEN_SCHEMES = ("original", "ssp", "cherrypick", "adaptive")


# ----------------------------------------------------------------------
# Synthetic trace construction
# ----------------------------------------------------------------------
def _process(pid, name):
    return {"ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": name}}


def _thread(pid, tid, name):
    return {"ph": "M", "pid": pid, "tid": tid, "ts": 0,
            "name": "thread_name", "args": {"name": name}}


def _span(tid, name, start_s, dur_s, cat="engine", args=None, pid=1):
    return {"ph": "X", "pid": pid, "tid": tid, "ts": start_s * _US,
            "dur": dur_s * _US, "name": name, "cat": cat,
            "args": args or {}}


def _instant(tid, name, ts_s, cat="mark", args=None, pid=1):
    return {"ph": "i", "pid": pid, "tid": tid, "ts": ts_s * _US, "s": "t",
            "name": name, "cat": cat, "args": args or {}}


def _flow_start(tid, flow_id, ts_s, args=None, pid=1):
    return {"ph": "s", "pid": pid, "tid": tid, "ts": ts_s * _US,
            "id": flow_id, "name": "abort", "cat": "abort",
            "args": args or {}}


def _flow_finish(tid, flow_id, ts_s, pid=1):
    return {"ph": "f", "bp": "e", "pid": pid, "tid": tid, "ts": ts_s * _US,
            "id": flow_id, "name": "abort", "cat": "abort", "args": {}}


def _layout():
    """Metadata: virtual-time process with two workers + infrastructure."""
    return [
        _process(1, "virtual time"),
        _thread(1, 1, "worker-0"),
        _thread(1, 2, "worker-1"),
        _thread(1, 10, "server"),
        _thread(1, 11, "scheduler"),
    ]


def _trace(events):
    return {
        "traceEvents": _layout() + events,
        "otherData": {"format_version": 2},
        "displayTimeUnit": "ms",
    }


class TestCausalGraph:
    def test_rejects_non_trace_objects(self):
        with pytest.raises(AnalysisError, match="traceEvents"):
            CausalGraph.from_trace({"foo": 1})

    def test_rejects_events_on_unnamed_threads(self):
        trace = _trace([_span(99, "compute", 0.0, 1.0)])
        with pytest.raises(AnalysisError, match="unnamed thread"):
            CausalGraph.from_trace(trace)

    def test_missing_flow_parent_is_a_hard_error(self):
        trace = _trace([_flow_finish(1, 7, 2.0)])
        with pytest.raises(AnalysisError, match="missing parent"):
            CausalGraph.from_trace(trace)

    def test_dangling_flow_start_is_a_hard_error(self):
        trace = _trace([_flow_start(2, 7, 1.0)])
        with pytest.raises(AnalysisError, match="never finished"):
            CausalGraph.from_trace(trace)

    def test_duplicate_flow_start_is_a_hard_error(self):
        trace = _trace([_flow_start(2, 7, 1.0), _flow_start(2, 7, 1.5)])
        with pytest.raises(AnalysisError, match="duplicate"):
            CausalGraph.from_trace(trace)

    def test_concurrent_flows_resolve_by_id(self):
        # Two arrows in flight at once, closed out of start order.
        trace = _trace([
            _flow_start(2, 1, 1.0),
            _flow_start(11, 2, 1.5),
            _flow_finish(1, 2, 2.0),
            _flow_finish(1, 1, 2.5),
        ])
        graph = CausalGraph.from_trace(trace)
        (run,) = graph.runs
        flows = sorted(run.flows, key=lambda f: f.src_ts)
        assert [(f.src_track, f.dst_ts) for f in flows] == [
            ("worker-1", 2.5), ("scheduler", 2.0),
        ]

    def test_run_segmentation_on_markers(self):
        trace = _trace([
            _instant(10, "run_start", 0.0, cat="run", args={"scheme": "a"}),
            _span(1, "compute", 0.0, 1.0),
            _instant(10, "run_end", 1.0, cat="run", args={"total_aborts": 0}),
            _instant(10, "run_start", 0.0, cat="run", args={"scheme": "b"}),
            _span(1, "compute", 0.0, 2.0),
        ])
        graph = CausalGraph.from_trace(trace)
        assert [run.meta["scheme"] for run in graph.runs] == ["a", "b"]
        assert graph.runs[0].end_meta == {"total_aborts": 0}
        assert graph.runs[0].window() == (0.0, 1.0)
        assert graph.runs[1].window() == (0.0, 2.0)  # run_end cut off

    def test_legacy_trace_gets_one_implicit_segment(self):
        trace = _trace([_span(1, "compute", 1.0, 2.0)])
        graph = CausalGraph.from_trace(trace)
        (run,) = graph.runs
        assert not run.explicit
        assert run.domain == "virtual"
        assert run.window() == (1.0, 3.0)


    def test_track_spans_is_sorted_fresh_and_follows_growth(self):
        trace = _trace([
            _span(2, "pull", 0.0, 1.0),
            _span(1, "push", 3.0, 1.0),
            _span(1, "compute", 1.0, 2.0),
            _span(1, "pull", 0.0, 1.0),
        ])
        (run,) = CausalGraph.from_trace(trace).runs
        first = run.track_spans("worker-0")
        assert [s.name for s in first] == ["pull", "compute", "push"]
        # the per-track index is not handed out: emptying the returned
        # list must not empty the next answer
        first.clear()
        assert [s.name for s in run.track_spans("worker-0")] == [
            "pull", "compute", "push"
        ]
        assert run.track_spans("no-such-track") == []
        # a span appended after the index was built is still found
        run.spans.append(run.spans[0]._replace(track="worker-0", name="late"))
        assert [s.name for s in run.track_spans("worker-0")] == [
            "pull", "late", "compute", "push"
        ]


class TestAttribution:
    def _analyze_one(self, events):
        graph = CausalGraph.from_trace(_trace(events))
        (run,) = graph.runs
        return analyze_trace(_trace(events))["runs"][0], run

    def test_categories_tile_the_window(self):
        run, _ = self._analyze_one([
            _span(1, "pull", 0.0, 1.0),
            _span(1, "compute", 1.0, 3.0),
            # gap [4, 5) — waiting on the barrier
            _span(1, "push", 5.0, 1.0),
        ])
        path = run["critical_path"]
        assert path["track"] == "worker-0"
        assert path["by_category"] == {
            "compute": 3.0, "network": 2.0, "sync_wait": 1.0,
            "scheduler_decision": 0.0, "abort_wasted_work": 0.0,
        }
        assert sum(path["by_category"].values()) == pytest.approx(
            path["total_s"]
        )

    def test_aborted_compute_splits_at_the_decision_arrow(self):
        run, _ = self._analyze_one([
            _span(1, "compute", 1.0, 4.0, args={"aborted": True}),
            _flow_start(11, 1, 3.0, args={"decision": True, "peer_pushes": 2}),
            _flow_finish(1, 1, 5.0),
        ])
        by_cat = run["critical_path"]["by_category"]
        assert by_cat["abort_wasted_work"] == pytest.approx(2.0)
        assert by_cat["scheduler_decision"] == pytest.approx(2.0)
        assert by_cat["compute"] == 0.0

    def test_aborted_compute_without_arrow_is_all_wasted(self):
        run, _ = self._analyze_one([
            _span(1, "compute", 0.0, 4.0, args={"aborted": True}),
        ])
        by_cat = run["critical_path"]["by_category"]
        assert by_cat["abort_wasted_work"] == pytest.approx(4.0)
        assert by_cat["scheduler_decision"] == 0.0

    def test_critical_track_is_the_makespan_worker(self):
        run, _ = self._analyze_one([
            _span(1, "compute", 0.0, 2.0),
            _span(2, "compute", 0.0, 5.0),
        ])
        assert run["critical_path"]["track"] == "worker-1"
        # the shorter worker's tail is sync-wait in the covering view
        w0 = run["per_worker"]["worker-0"]["by_category"]
        assert w0["sync_wait"] == pytest.approx(3.0)

    def test_epoch_boundaries_split_the_attribution(self):
        run, _ = self._analyze_one([
            _span(1, "compute", 0.0, 4.0),
            _instant(11, "epoch_retuned", 1.0, cat="tuning"),
        ])
        epochs = run["critical_path"]["epochs"]
        assert [e["by_category"]["compute"] for e in epochs] == [1.0, 3.0]

    def test_iteration_containers_are_skipped(self):
        run, _ = self._analyze_one([
            _span(1, "iteration", 0.0, 4.0, cat="iteration"),
            _span(1, "compute", 0.0, 4.0),
        ])
        assert run["critical_path"]["by_category"]["compute"] == 4.0


# ----------------------------------------------------------------------
# Golden analytics from a seeded DES run of all four schemes
# ----------------------------------------------------------------------
def _four_scheme_trace() -> dict:
    collector = TraceCollector()
    collector.metadata["workload"] = "tiny"
    collector.metadata["seed"] = 3
    catalog = scheme_catalog("tiny")
    with collecting(collector):
        for name in GOLDEN_SCHEMES:
            tiny_workload().run(
                ClusterSpec.homogeneous(3), catalog[name].make(),
                seed=3, horizon_s=30.0,
            )
    return to_chrome_trace(collector)


@pytest.fixture(scope="module")
def golden_analysis() -> dict:
    return analyze_trace(_four_scheme_trace())


class TestGoldenAnalytics:
    def test_byte_identical_analytics_json(self, golden_analysis):
        rendered = json.dumps(
            golden_analysis, indent=1, sort_keys=True
        ) + "\n"
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(rendered, encoding="utf-8")
        golden = GOLDEN_PATH.read_text(encoding="utf-8")
        assert rendered == golden, (
            "analytics drifted from tests/data/golden_analysis.json; if "
            "the change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
        )

    def test_one_run_per_scheme(self, golden_analysis):
        assert [r["scheme"] for r in golden_analysis["runs"]] == [
            "asp", "ssp(s=3)", "specsync-cherrypick", "specsync-adaptive",
        ]
        assert all(r["explicit"] for r in golden_analysis["runs"])

    def test_attribution_sums_to_run_duration(self, golden_analysis):
        # The acceptance invariant: critical-path categories cover the
        # virtual runtime to within 1%, on every scheme.
        for run in golden_analysis["runs"]:
            path = run["critical_path"]
            total = sum(path["by_category"].values())
            assert total == pytest.approx(path["total_s"], rel=0.01), (
                run["scheme"]
            )
            assert path["total_s"] == pytest.approx(
                run["duration_s"], rel=1e-9
            )
            for worker in run["per_worker"].values():
                assert sum(worker["by_category"].values()) == pytest.approx(
                    worker["total_s"], rel=0.01
                )

    def test_epochs_reaggregate_the_same_seconds(self, golden_analysis):
        for run in golden_analysis["runs"]:
            path = run["critical_path"]
            for category in ATTRIBUTION_CATEGORIES:
                from_epochs = sum(
                    e["by_category"][category] for e in path["epochs"]
                )
                assert from_epochs == pytest.approx(
                    path["by_category"][category], abs=1e-6
                ), (run["scheme"], category)

    def test_ledger_abort_counts_match_engine_totals(self, golden_analysis):
        for run in golden_analysis["runs"]:
            assert run["ledger"]["total_aborts"] == run["total_aborts"]
        by_scheme = {
            r["scheme"]: r["ledger"] for r in golden_analysis["runs"]
        }
        assert by_scheme["asp"]["total_aborts"] == 0
        assert by_scheme["specsync-adaptive"]["total_aborts"] > 0
        assert by_scheme["specsync-adaptive"]["total_aborted_compute_s"] > 0

    def test_abort_instants_carry_peer_push_counts(self, golden_analysis):
        adaptive = golden_analysis["runs"][-1]["ledger"]
        counts = [
            count
            for worker in adaptive["per_worker"].values()
            for count in worker["peer_push_counts"]
        ]
        assert counts, "adaptive run aborted but no peer-push counts"
        # Algorithm 2 fires at >= m * ABORT_RATE peer pushes; with m=3
        # the threshold is at least one peer push.
        assert all(count >= 1 for count in counts)

    def test_empirical_gain_agrees_with_analytic_in_sign_and_ranking(
        self, golden_analysis
    ):
        # The acceptance criterion: the ledger's realized freshness gains
        # and Algorithm 1's analytic ũ_i(Δ) on the reconstructed push
        # trace must agree in sign and in which worker benefits most.
        adaptive = golden_analysis["runs"][-1]["ledger"]
        empirical = adaptive["empirical_gain_by_worker"]
        analytic = adaptive["analytic_gain_by_worker"]
        assert set(empirical) == set(analytic) and empirical
        assert all(value >= 0 for value in empirical.values())
        assert all(value >= 0 for value in analytic.values())
        top_empirical = max(empirical, key=lambda w: empirical[w])
        top_analytic = max(analytic, key=lambda w: analytic[w])
        assert top_empirical == top_analytic

    def test_freshness_curve_present_for_every_run(self, golden_analysis):
        for run in golden_analysis["runs"]:
            curve = run["ledger"]["freshness_curve"]
            assert curve and len(curve) <= 32
            assert all(
                point["window_s"] > 0 for point in curve
            ), run["scheme"]

    def test_staleness_bound_detected_for_ssp(self, golden_analysis):
        by_scheme = {r["scheme"]: r["staleness"] for r in golden_analysis["runs"]}
        assert by_scheme["ssp(s=3)"]["bound"] == 3
        assert by_scheme["asp"]["bound"] is None
        stats = by_scheme["ssp(s=3)"]["per_worker"]
        assert stats and all(s["count"] > 0 for s in stats.values())

    def test_renderers_cover_every_run(self, golden_analysis):
        text = render_analysis_text(golden_analysis)
        for run in golden_analysis["runs"]:
            assert str(run["scheme"]) in text
        assert "speculation ledger" in text
        diff = render_analysis_comparison(golden_analysis, golden_analysis)
        assert "+0" in diff


# ----------------------------------------------------------------------
# Multiprocess backend round trip (wall clock)
# ----------------------------------------------------------------------
class TestMultiprocessRoundTrip:
    def test_wall_clock_trace_reconstructs(self):
        from repro.runtime import MultiprocessRun

        dataset = SyntheticImageDataset(
            num_classes=3, feature_dim=8, num_samples=400,
            class_separation=3.0, warp=False, seed=0,
        )
        partitions = dataset.partition(2, np.random.default_rng(0))
        run = MultiprocessRun(
            model=SoftmaxRegressionModel(input_dim=8, num_classes=3),
            partitions=partitions,
            eval_batch=dataset.eval_batch(),
            update_rule=SgdUpdateRule(ConstantSchedule(0.2)),
            compute_model=ComputeTimeModel(mean_time_s=4.0, jitter_sigma=0.1),
            time_scale=0.004,
            tuner=FixedTuner(
                SpecSyncHyperparams(abort_time_s=0.008, abort_rate=0.3)
            ),
            seed=0,
        )
        collector = TraceCollector()
        with collecting(collector):
            result = run.run(0.5)
        assert result.total_iterations > 0
        trace = to_chrome_trace(collector)
        analysis = analyze_trace(trace)
        domains = {r["domain"] for r in analysis["runs"]}
        assert "wall" in domains
        for entry in analysis["runs"]:
            assert entry["duration_s"] > 0
            path = entry["critical_path"]
            if path["track"] is None:
                continue
            assert sum(path["by_category"].values()) == pytest.approx(
                path["total_s"], rel=0.01
            )
