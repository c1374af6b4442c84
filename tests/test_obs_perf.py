"""Profiler correctness: determinism on the DES, trace export, null path.

The headline guarantee (ISSUE acceptance): two identical seeded DES runs
produce **byte-identical** perf snapshots, because every phase duration
comes from the virtual clock and every snapshot renders sorted.
"""

import io
import json

from repro.cluster.spec import ClusterSpec
from repro.core.specsync import SpecSyncPolicy
from repro.obs import (
    NULL_PROFILER,
    PERF_SCHEMA_VERSION,
    PerfProfile,
    Profiler,
    collecting,
    analyze_trace,
    profiler_for,
    render_analysis_text,
    write_chrome_trace,
)
from repro.obs.clock import FunctionClock
from repro.workloads import tiny_workload


def _seeded_perf_snapshot() -> dict:
    workload = tiny_workload()
    with collecting() as collector:
        workload.run(
            ClusterSpec.homogeneous(3),
            SpecSyncPolicy.adaptive(),
            seed=3,
            horizon_s=30.0,
        )
    return collector.perf.snapshot()


class TestDeterminism:
    def test_identical_runs_have_byte_identical_snapshots(self):
        first = json.dumps(_seeded_perf_snapshot(), sort_keys=True)
        second = json.dumps(_seeded_perf_snapshot(), sort_keys=True)
        assert first == second

    def test_expected_phases_and_reports_are_present(self):
        perf = _seeded_perf_snapshot()
        assert perf["schema_version"] == PERF_SCHEMA_VERSION
        for phase in ("engine.pull", "engine.compute", "engine.push",
                      "engine.iteration", "scheduler.check_skew"):
            assert phase in perf["phases"], phase
            assert perf["phases"][phase]["count"] > 0
        assert "engine:tiny:specsync-adaptive:seed3" in perf["reports"]
        assert "scheduler:specsync-adaptive" in perf["reports"]
        assert any(
            name.startswith("engine.push_interval.w") for name in perf["series"]
        )
        assert any(
            name.startswith("sim.dispatch.") for name in perf["counters"]
        )


class TestProfilerUnit:
    def test_phase_measure_hit_sample_report(self):
        ticks = iter(float(i) for i in range(100))
        profiler = Profiler(PerfProfile(), FunctionClock(lambda: next(ticks)))
        profiler.phase("p", start=0.0, end=2.5)
        with profiler.measure("m"):
            pass
        profiler.hit("h", 3.0)
        profiler.sample("s", 42.0, ts=1.0)
        profiler.report("r", {"ok": True})
        snap = profiler.profile.snapshot()
        assert snap["phases"]["p"]["mean"] == 2.5
        assert snap["phases"]["m"]["count"] == 1
        assert snap["counters"]["h"] == 3.0
        assert snap["series"]["s"]["last"] == 42.0
        assert snap["reports"]["r"] == {"ok": True}

    def test_profile_empty_flag(self):
        profile = PerfProfile()
        assert profile.empty
        profile.counter("c").inc()
        assert not profile.empty

    def test_profiler_for_returns_null_when_disabled(self):
        profiler = profiler_for(FunctionClock(lambda: 0.0))
        assert profiler is NULL_PROFILER
        assert not profiler.enabled

    def test_profiler_for_binds_active_collector(self):
        with collecting() as collector:
            profiler = profiler_for(FunctionClock(lambda: 0.0))
            assert profiler.enabled
            profiler.hit("x")
        assert collector.perf.snapshot()["counters"]["x"] == 1.0

    def test_null_profiler_is_inert(self):
        NULL_PROFILER.phase("p", 0.0, 1.0)
        NULL_PROFILER.hit("h")
        NULL_PROFILER.sample("s", 1.0)
        NULL_PROFILER.report("r", {})
        with NULL_PROFILER.measure("m"):
            pass


class TestTraceExport:
    def test_perf_section_lands_in_trace_file(self):
        workload = tiny_workload()
        with collecting() as collector:
            workload.run(
                ClusterSpec.homogeneous(3),
                SpecSyncPolicy.adaptive(),
                seed=3,
                horizon_s=30.0,
            )
        handle = io.StringIO()
        write_chrome_trace(collector, handle)
        trace = json.loads(handle.getvalue())
        assert trace["otherData"]["format_version"] == 2
        assert trace["perf"]["schema_version"] == PERF_SCHEMA_VERSION
        assert trace["perf"]["phases"]

    def test_analysis_text_renders_profiler_sections(self):
        workload = tiny_workload()
        with collecting() as collector:
            workload.run(
                ClusterSpec.homogeneous(3),
                SpecSyncPolicy.adaptive(),
                seed=3,
                horizon_s=30.0,
            )
        handle = io.StringIO()
        write_chrome_trace(collector, handle)
        text = render_analysis_text(analyze_trace(json.loads(handle.getvalue())))
        assert "profiler phase percentiles" in text
        assert "engine.iteration" in text
        assert "anomaly detectors" in text
        assert "scheduler:specsync-adaptive: no stragglers" in text

    def test_analysis_text_without_perf_section(self):
        text = render_analysis_text(analyze_trace({
            "traceEvents": [],
            "metrics": {"counters": {"engine.pushes": 1}},
        }))
        assert "metrics-only capture" in text
        assert "profiler phase percentiles" not in text
        assert "anomaly detectors" not in text
