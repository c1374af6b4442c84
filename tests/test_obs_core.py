"""Tests for the observability core: clocks, metrics, tracer, flows,
process-wide enablement, and coexistence with the replay-determinism
checker on the simulator's multi-tap bus."""

import math
import random

import pytest

from repro import ClusterSpec, Simulator, SpecSyncPolicy
from repro.analysis.replay import record_event_stream
from repro.obs import (
    NULL_TRACER,
    FlowRecord,
    FunctionClock,
    Histogram,
    InstantRecord,
    MetricsRegistry,
    SpanRecord,
    TraceCollector,
    VirtualClock,
    collecting,
    current_collector,
    disable,
    enable,
    tracer_for,
)
from repro.obs.clock import VIRTUAL, WALL
from repro.workloads import tiny_workload


@pytest.fixture(autouse=True)
def _no_leaked_collector():
    yield
    disable()
    assert current_collector() is None


def run_tiny(seed=3, horizon=60.0, workers=3):
    workload = tiny_workload()
    cluster = ClusterSpec.homogeneous(workers)
    return workload.run(
        cluster, SpecSyncPolicy.adaptive(), seed=seed, horizon_s=horizon
    )


class TestClocks:
    def test_virtual_clock_tracks_simulator(self):
        sim = Simulator()
        clock = VirtualClock(sim)
        assert clock.domain == VIRTUAL
        seen = []
        sim.schedule(4.5, lambda: seen.append(clock.now()))
        sim.run()
        assert seen == [4.5]

    def test_function_clock_wraps_injected_source(self):
        ticks = iter([1.0, 2.5])
        clock = FunctionClock(lambda: next(ticks))
        assert clock.domain == WALL
        assert clock.now() == 1.0
        assert clock.now() == 2.5


class _ReferenceHistogram:
    """The pre-bisect ``Histogram``, kept as the reference: a linear
    ``value <= bound`` bucket scan, running count/sum/min/max, and one
    sort per percentile."""

    def __init__(self, buckets=None):
        self.bounds = tuple(buckets) if buckets is not None else Histogram("r").bounds
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.values = []

    def observe(self, value):
        self.count += 1
        self.total += value
        self.values.append(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def percentile(self, q):
        if not self.values:
            return None
        ordered = sorted(self.values)
        return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]

    def snapshot(self):
        buckets = {
            f"{bound:g}": count
            for bound, count in zip(self.bounds, self.bucket_counts) if count
        }
        if self.bucket_counts[-1]:
            buckets["+inf"] = self.bucket_counts[-1]
        return {
            "count": self.count, "sum": self.total,
            "min": self.min, "max": self.max,
            "mean": self.total / self.count if self.count else None,
            "p50": self.percentile(50), "p90": self.percentile(90),
            "p99": self.percentile(99), "buckets": buckets,
        }


def _observed(histogram, values):
    for value in values:
        histogram.observe(value)
    return histogram


class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.counter("x").inc(2.5)
        assert registry.counter("x").value == 3.5
        with pytest.raises(ValueError):
            registry.counter("x").inc(-1)

    def test_histogram_aggregates(self):
        registry = MetricsRegistry()
        for value in (0.1, 0.2, 0.3):
            registry.histogram("h").observe(value)
        snap = registry.histogram("h").snapshot()
        assert snap["count"] == 3
        assert snap["min"] == 0.1
        assert snap["max"] == 0.3
        assert snap["mean"] == pytest.approx(0.2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_histogram_matches_the_linear_scan_reference(self, seed):
        rng = random.Random(seed)
        bounds = Histogram("h").bounds
        values = [rng.choice(bounds) for _ in range(40)]      # exactly on a bound
        values += [rng.lognormvariate(-3.0, 4.0) for _ in range(400)]
        values += [0.0, -0.0, -1.5, -1e-9, bounds[-1] * 3, math.inf]
        values += [0.1] * 7 + [0.7] * 5                       # sum order matters
        rng.shuffle(values)
        for stream in ([], values[:1], values[:10], values):
            assert _observed(Histogram("h"), stream).snapshot() == \
                _observed(_ReferenceHistogram(), stream).snapshot()
        custom = (0.0, 1.0, 1.0, 2.5)                         # a repeated bound
        assert _observed(Histogram("h", custom), values).snapshot() == \
            _observed(_ReferenceHistogram(custom), values).snapshot()

    def test_histogram_sum_is_the_running_left_to_right_total(self):
        # builtin sum() is compensated on Python >= 3.12 and would export
        # 1.0 here; the golden files pin the plain running total.
        snap = _observed(Histogram("h"), [0.1] * 10).snapshot()
        assert snap["sum"] == 0.9999999999999999
        assert snap["mean"] == 0.9999999999999999 / 10

    def test_histogram_nan_lands_in_the_overflow_bucket(self):
        # NaN fails every ``value <= bound``; a bare bisect would file it
        # under the first bound.
        histogram = _observed(Histogram("h"), [0.5, math.nan])
        assert histogram.snapshot()["buckets"] == {"0.5": 1, "+inf": 1}
        assert histogram.snapshot()["buckets"] == _observed(
            _ReferenceHistogram(), [0.5, math.nan]
        ).snapshot()["buckets"]

    def test_snapshot_is_sorted_and_render_text_mentions_all(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc()
        registry.counter("a.first").inc()
        registry.histogram("m.mid").observe(1.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a.first", "z.last"]
        text = registry.render_text()
        assert "a.first" in text and "m.mid" in text


class TestTracer:
    def test_span_instant_and_metrics_land_in_collector(self):
        collector = TraceCollector()
        sim = Simulator()
        from repro.obs import Tracer

        tracer = Tracer(collector, VirtualClock(sim))
        tracer.span("worker-0", "compute", start=1.0, end=2.0)
        tracer.instant("server", "push_applied", ts=2.0)
        tracer.count("pushes")
        tracer.observe("staleness", 3.0)
        kinds = [type(r) for r in collector.records]
        assert kinds == [SpanRecord, InstantRecord]
        assert collector.records[0].domain == VIRTUAL
        assert collector.metrics.counter("pushes").value == 1

    def test_measure_scopes_a_span(self):
        collector = TraceCollector()
        ticks = iter([10.0, 11.5])
        from repro.obs import Tracer

        tracer = Tracer(collector, FunctionClock(lambda: next(ticks)))
        with tracer.measure("rt.run", "run"):
            pass
        (span,) = collector.records
        assert (span.start, span.end) == (10.0, 11.5)
        assert span.domain == WALL

    def test_flow_lifecycle_close_and_discard(self):
        collector = TraceCollector()
        sim = Simulator()
        from repro.obs import Tracer

        tracer = Tracer(collector, VirtualClock(sim))
        key = ("resync", 0, 5)
        tracer.flow_begin(key, "worker-1", "abort", ts=1.0)
        tracer.flow_begin(key, "worker-2", "abort", ts=1.5)
        assert collector.pending_flow_count == 2
        assert tracer.flow_end(key, "worker-0", ts=2.0) == 2
        assert collector.pending_flow_count == 0
        flows = [r for r in collector.records if isinstance(r, FlowRecord)]
        assert {f.src_track for f in flows} == {"worker-1", "worker-2"}
        assert all(f.dst_track == "worker-0" for f in flows)

        # Discarded origins never export.
        tracer.flow_begin(key, "worker-1", "abort", ts=3.0)
        tracer.flow_discard(key)
        assert tracer.flow_end(key, "worker-0", ts=4.0) == 0

    def test_null_tracer_is_inert(self):
        before = current_collector()
        NULL_TRACER.span("t", "n", start=0.0)
        NULL_TRACER.instant("t", "n")
        with NULL_TRACER.measure("t", "n"):
            pass
        NULL_TRACER.flow_begin(("k",), "t", "n")
        assert NULL_TRACER.flow_end(("k",), "t") == 0
        NULL_TRACER.count("c")
        NULL_TRACER.observe("h", 1.0)
        assert not NULL_TRACER.enabled
        assert current_collector() is before


class TestEnablement:
    def test_tracer_for_returns_null_when_disabled(self):
        sim = Simulator()
        assert tracer_for(VirtualClock(sim)) is NULL_TRACER

    def test_collecting_enables_then_disables(self):
        sim = Simulator()
        with collecting() as collector:
            assert current_collector() is collector
            tracer = tracer_for(VirtualClock(sim))
            assert tracer.enabled
            assert tracer.collector is collector
        assert current_collector() is None
        assert tracer_for(VirtualClock(sim)) is NULL_TRACER

    def test_double_enable_raises(self):
        enable(TraceCollector())
        with pytest.raises(RuntimeError):
            enable(TraceCollector())

    def test_disable_is_idempotent(self):
        disable()
        disable()

    def test_collecting_counts_simulator_events(self):
        with collecting() as collector:
            sim = Simulator()
            for delay in (1.0, 2.0, 3.0):
                sim.schedule(delay, lambda: None)
            sim.run()
        assert collector.metrics.counter("sim.events_fired").value == 3


class TestInstrumentedRun:
    def test_seeded_run_produces_spans_decisions_and_flows(self):
        with collecting() as collector:
            result = run_tiny()
        assert result.total_aborts > 0
        assert collector.pending_flow_count == 0

        spans = {r.name for r in collector.records if isinstance(r, SpanRecord)}
        assert {"pull", "compute", "push", "iteration"} <= spans
        instants = {
            r.name for r in collector.records if isinstance(r, InstantRecord)
        }
        assert {"notify", "resync_decision", "push_applied"} <= instants
        flows = [r for r in collector.records if isinstance(r, FlowRecord)]
        assert flows and all(f.cat == "abort" for f in flows)

        counters = collector.metrics.snapshot()["counters"]
        assert counters["engine.aborts"] == result.total_aborts
        assert counters["scheduler.resyncs_sent"] >= result.total_aborts
        assert counters["sim.events_fired"] > 0
        assert any(name.startswith("net.bytes.") for name in counters)

    def test_disabled_run_collects_nothing_and_matches_enabled_run(self):
        baseline = run_tiny()
        with collecting() as collector:
            traced = run_tiny()
        # Observability must not perturb the simulation.
        assert traced.total_iterations == baseline.total_iterations
        assert traced.total_aborts == baseline.total_aborts
        assert traced.final_loss == baseline.final_loss
        assert collector.records

    def test_tracer_coexists_with_replay_sanitizer_tap(self):
        # Both the replay checker and the tracer tap the simulator: the
        # multi-tap bus must feed both without either seeing a partial
        # stream.
        with record_event_stream() as fingerprints:
            with collecting() as collector:
                run_tiny(horizon=20.0)
        assert Simulator._taps == ()
        assert len(fingerprints) > 0
        assert (
            collector.metrics.counter("sim.events_fired").value
            == len(fingerprints)
        )
