"""Tests for staleness statistics."""

import pytest

from repro.metrics.staleness import (
    StalenessAnalysis,
    StalenessStats,
    compare_staleness,
)
from repro.metrics.traces import PushEvent, TraceRecorder


def make_traces(staleness_by_worker):
    """staleness_by_worker: {worker_id: [staleness, ...]}"""
    traces = TraceRecorder()
    time = 0.0
    version = 0
    for worker, values in staleness_by_worker.items():
        for value in values:
            time += 1.0
            version += 1
            traces.record_push(
                *PushEvent(
                    time=time, worker_id=worker, version_after=version,
                    snapshot_version=max(version - 1 - value, 0),
                    staleness=value, iteration=0,
                )
            )
    return traces


class TestStalenessStats:
    def test_from_values(self):
        stats = StalenessStats.from_values([0, 1, 2, 3, 4])
        assert stats.count == 5
        assert stats.mean == 2.0
        assert stats.median == 2.0
        assert stats.max_value == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StalenessStats.from_values([])

    def test_quantile_ordering(self):
        stats = StalenessStats.from_values(list(range(100)))
        assert stats.median <= stats.p95 <= stats.p99 <= stats.max_value


class TestStalenessAnalysis:
    def test_overall_and_per_worker(self):
        traces = make_traces({0: [1, 1, 1], 1: [5, 5, 5]})
        analysis = StalenessAnalysis(traces)
        assert analysis.overall.mean == pytest.approx(3.0)
        per_worker = analysis.per_worker()
        assert per_worker[0].mean == 1.0
        assert per_worker[1].mean == 5.0

    def test_tail_mass(self):
        traces = make_traces({0: [0, 0, 0, 10]})
        analysis = StalenessAnalysis(traces)
        assert analysis.tail_mass(5.0) == pytest.approx(0.25)
        assert analysis.tail_mass(100.0) == 0.0

    def test_tail_threshold_validated(self):
        analysis = StalenessAnalysis(make_traces({0: [1]}))
        with pytest.raises(ValueError):
            analysis.tail_mass(-1.0)

    def test_histogram_counts_sum(self):
        traces = make_traces({0: [0, 1, 2, 3, 4, 5]})
        analysis = StalenessAnalysis(traces)
        histogram = analysis.histogram(num_bins=3)
        assert sum(histogram.values()) == 6

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            StalenessAnalysis(TraceRecorder())


class TestCompare:
    def test_comparison_table(self):
        runs = {
            "asp": make_traces({0: [10, 10, 10, 10]}),
            "specsync": make_traces({0: [2, 2, 2, 2]}),
        }
        text = compare_staleness(runs)
        assert "asp" in text and "specsync" in text
        assert "10.0" in text and "2.0" in text

    def test_threshold_defaults_to_cross_run_mean(self):
        runs = {
            "a": make_traces({0: [0, 0]}),
            "b": make_traces({0: [10, 10]}),
        }
        text = compare_staleness(runs)
        assert "tail > 5" in text
