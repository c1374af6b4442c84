"""Tests for the live telemetry plane (repro.obs.live).

Covers the binary wire format, the SPSC ring (wraparound, overflow
drop-counting, cross-process visibility under fork), the writer facades,
the aggregator (whose snapshot is the ``repro analyze`` document of the
records applied), the session lifecycle, the ``repro top`` frame, and the
end-to-end multiprocess capture: a live-exported run must drain to a
trace file whose analysis agrees with the conventionally-traced copy of
the same run.
"""

import json
import multiprocessing
import struct

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.cluster.compute import ComputeTimeModel
from repro.core.tuning import AdaptiveTuner
from repro.ml import SoftmaxRegressionModel, SyntheticImageDataset
from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.obs.analysis import analyze_trace, render_analysis_text
from repro.obs.live import (
    LiveAnnounce,
    LiveCount,
    LiveGauge,
    LiveInstant,
    LiveSample,
    LiveSpan,
    LiveTelemetrySession,
    NULL_RING_WRITER,
    RingWriter,
    ShmRing,
    TelemetryAggregator,
    decode_record,
    encode_record,
    render_frame,
    run_dashboard,
)
from repro.runtime import MultiprocessRun

ALL_RECORDS = [
    LiveSpan(track="rt.worker-0", name="compute", cat="compute",
             start=1.25, end=2.5),
    LiveInstant(track="rt.worker-1", name="abort", cat="abort", ts=3.0,
                args_json='{"worker": 1}'),
    LiveCount(name="rt.pushes", amount=2.0, ts=4.0),
    LiveGauge(name="rt.queue.request_depth", value=3.0, ts=5.0),
    LiveSample(name="rt.msg.push.latency_s", value=0.001, ts=6.0),
    LiveAnnounce(source="worker-0", writer_ts=0.5,
                 meta_json='{"backend": "multiprocess"}'),
]


class TestWireFormat:
    @pytest.mark.parametrize("record", ALL_RECORDS, ids=lambda r: type(r).__name__)
    def test_roundtrip(self, record):
        framed = encode_record(record)
        (length,) = struct.unpack_from("<I", framed, 0)
        assert length == len(framed) - 4
        assert decode_record(framed[4:]) == record

    def test_unknown_kind_decodes_to_none(self):
        assert decode_record(b"\xff" + b"\x00" * 16) is None

    def test_oversized_string_is_truncated_not_fatal(self):
        record = LiveCount(name="x" * 100_000, amount=1.0, ts=0.0)
        decoded = decode_record(encode_record(record)[4:])
        assert decoded.name == "x" * 0xFFFF


@pytest.fixture
def ring():
    r = ShmRing.create("test", capacity=256)
    yield r
    r.close()
    r.unlink()


class TestShmRing:
    def test_push_drain_preserves_order(self, ring):
        records = [LiveCount(name=f"c{i}", amount=float(i), ts=float(i))
                   for i in range(5)]
        for record in records:
            assert ring.push(record)
        assert ring.pushed == 5
        assert ring.drain() == records
        assert ring.pending_bytes() == 0

    def test_wraparound_many_times_over(self, ring):
        # 256-byte payload area, ~25-byte records: cursors lap the
        # capacity dozens of times and records straddle the seam.
        for i in range(500):
            assert ring.push(LiveCount(name="wrap", amount=float(i), ts=0.0))
            if i % 7 == 6:
                drained = ring.drain()
                assert [r.amount for r in drained] == [
                    float(j) for j in range(i - 6, i + 1)
                ]
        assert ring.dropped == 0

    def test_overflow_drops_newest_and_counts(self, ring):
        record = LiveCount(name="fill", amount=1.0, ts=0.0)
        pushed = 0
        while ring.push(record):
            pushed += 1
        assert pushed > 0
        assert ring.dropped == 1
        assert not ring.push(record)
        assert ring.dropped == 2
        assert ring.pushed == pushed
        # Draining frees the space; the writer recovers.
        assert len(ring.drain()) == pushed
        assert ring.push(record)
        assert ring.stats()["dropped"] == 2

    def test_drain_max_records_leaves_the_rest(self, ring):
        for i in range(6):
            ring.push(LiveCount(name="c", amount=float(i), ts=0.0))
        first = ring.drain(max_records=4)
        assert [r.amount for r in first] == [0.0, 1.0, 2.0, 3.0]
        assert [r.amount for r in ring.drain()] == [4.0, 5.0]

    def test_attach_sees_published_records(self, ring):
        other = ShmRing.attach(ring.spec())
        try:
            ring.push(LiveGauge(name="g", value=7.0, ts=1.0))
            drained = other.drain()
            assert drained == [LiveGauge(name="g", value=7.0, ts=1.0)]
        finally:
            other.close()

    def test_attached_ring_may_not_unlink(self, ring):
        other = ShmRing.attach(ring.spec())
        try:
            with pytest.raises(RuntimeError, match="own"):
                other.unlink()
        finally:
            other.close()

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ShmRing.create("bad", capacity=8)


class TestWriterFacades:
    def test_writer_announces_then_streams(self, ring):
        clock = iter([0.0, 1.0, 2.0, 3.0])
        writer = RingWriter(ring, "worker-0", lambda: next(clock),
                            meta_json='{"clock": "shared"}')
        assert writer.enabled
        writer.span("rt.worker-0", "compute", start=0.5)
        writer.count("rt.pushes")
        writer.gauge("rt.staleness.w0", 2.0, ts=9.0)
        records = ring.drain()
        assert records[0] == LiveAnnounce(
            source="worker-0", writer_ts=0.0, meta_json='{"clock": "shared"}'
        )
        assert records[1].end == 1.0  # end stamped from the injected clock
        assert records[2] == LiveCount(name="rt.pushes", amount=1.0, ts=2.0)
        assert records[3].ts == 9.0  # explicit ts skips the clock

    def test_null_writer_is_disabled_and_silent(self):
        assert not NULL_RING_WRITER.enabled
        NULL_RING_WRITER.span("t", "n", start=0.0)
        NULL_RING_WRITER.count("c")
        NULL_RING_WRITER.gauge("g", 1.0)
        NULL_RING_WRITER.sample("s", 1.0)
        NULL_RING_WRITER.instant("t", "n")
        assert NULL_RING_WRITER.now() == 0.0


def _fork_producer(spec_dict, total, done):
    from repro.obs.live import LiveCount, RingSpec, ShmRing

    child = ShmRing.attach(RingSpec.from_dict(spec_dict))
    try:
        import time as _time

        for i in range(total):
            record = LiveCount(name="seq", amount=float(i), ts=float(i))
            while not child.push(record):
                _time.sleep(0.0002)  # reader is behind: wait, don't lose i
        done.put("ok")
    finally:
        child.close()


class TestForkConcurrency:
    def test_concurrent_writer_reader_deliver_every_record_in_order(self):
        # A real child process hammers the ring while the parent drains
        # concurrently; the push-retry loop turns overflow into
        # backpressure so delivery (not just non-corruption) is exact.
        total = 4000
        ring = ShmRing.create("fork-test", capacity=2048)
        done = multiprocessing.Queue()
        proc = multiprocessing.Process(
            target=_fork_producer, args=(ring.spec().to_dict(), total, done)
        )
        proc.start()
        try:
            received = []
            while len(received) < total:
                received.extend(ring.drain())
                if not proc.is_alive() and ring.pending_bytes() == 0:
                    break
            assert done.get(timeout=30) == "ok"
            proc.join(timeout=30)
            received.extend(ring.drain())
            assert [r.amount for r in received] == [
                float(i) for i in range(total)
            ]
        finally:
            proc.join(timeout=30)
            ring.close()
            ring.unlink()


def _feed_iterations(aggregator, worker_id, count, interval, start=0.0):
    track = f"rt.worker-{worker_id}"
    for i in range(count):
        end = start + (i + 1) * interval
        aggregator.apply(
            f"worker-{worker_id}",
            LiveSpan(track=track, name="push", cat="span",
                     start=end - 0.01, end=end),
            recv_ts=end,
        )
        aggregator.apply(
            f"worker-{worker_id}",
            LiveSpan(track=track, name="iteration", cat="iteration",
                     start=end - interval, end=end),
            recv_ts=end,
        )


class TestAggregator:
    def test_rates_phases_and_totals_from_synthetic_stream(self):
        aggregator = TelemetryAggregator()
        _feed_iterations(aggregator, 0, count=10, interval=0.5)
        _feed_iterations(aggregator, 1, count=10, interval=1.0)
        aggregator.apply(
            "worker-1",
            LiveInstant(track="rt.worker-1", name="abort", cat="abort", ts=9.5),
            recv_ts=9.5,
        )
        aggregator.apply(
            "server", LiveGauge(name="rt.staleness.w0", value=3.0, ts=5.0),
            recv_ts=5.0,
        )
        aggregator.apply(
            "server", LiveCount(name="rt.pushes", amount=20.0, ts=10.0),
            recv_ts=10.0,
        )
        snapshot = aggregator.snapshot()
        (run,) = snapshot["runs"]
        assert {
            track: worker["pushes"]
            for track, worker in run["ledger"]["per_worker"].items()
        } == {"rt.worker-0": 10, "rt.worker-1": 10}
        assert run["ledger"]["total_aborts"] == 1
        assert run["phases"]["iteration"]["count"] == 20
        straggler = run["detectors"]["straggler"]
        assert straggler["num_workers"] == 2
        assert straggler["mean_intervals"] == {"0": 0.5, "1": 1.0}
        assert snapshot["recording"]["metrics"]["gauges"]["rt.staleness.w0"] == 3.0
        assert snapshot["counters"] == {"rt.pushes": 20.0}
        assert snapshot["totals"] == {"records": 43, "dropped_records": 0}
        json.dumps(snapshot)  # must be JSON-ready

    def test_straggler_detector_sees_the_slow_worker(self):
        aggregator = TelemetryAggregator()
        for worker in range(8):
            interval = 4.0 if worker == 5 else 1.0
            _feed_iterations(aggregator, worker, count=6, interval=interval)
        (run,) = aggregator.snapshot()["runs"]
        assert run["detectors"]["straggler"]["stragglers"] == [5]

    def test_duplicate_ring_source_rejected(self, ring):
        aggregator = TelemetryAggregator()
        aggregator.add_ring(ring)
        with pytest.raises(ValueError, match="duplicate"):
            aggregator.add_ring(ring)

    def test_drained_counts_and_samples_become_metrics(self):
        aggregator = TelemetryAggregator()
        for i in range(4):
            aggregator.apply(
                "server", LiveCount(name="rt.pushes", amount=1.0, ts=float(i)),
                recv_ts=float(i),
            )
            aggregator.apply(
                "server",
                LiveSample(name="rt.msg.push.latency_s", value=0.001 * i,
                           ts=float(i)),
                recv_ts=float(i),
            )
        collector = obs.TraceCollector()
        aggregator.drain_to_collector(collector)
        snapshot = collector.metrics.snapshot()
        assert snapshot["counters"]["rt.pushes"] == 4
        assert snapshot["histograms"]["rt.msg.push.latency_s"]["count"] == 4

    def test_drained_trace_judges_the_events_the_live_detectors_saw(self):
        # Worker 5 pushes at a quarter of its peers' rate; an abort burst.
        records = [
            (end, LiveSpan(f"rt.worker-{worker}", "push", "span", end - 0.5, end))
            for worker in range(8)
            for end in ((4.0 if worker == 5 else 1.0) * i for i in range(1, 7))
        ] + [
            (ts, LiveInstant("rt.worker-0", "abort", "abort", ts))
            for ts in (2.0 + 0.05 * i for i in range(1, 17))
        ]
        aggregator = TelemetryAggregator()
        for ts, record in sorted(records, key=lambda pair: pair[0]):
            aggregator.apply("w", record, recv_ts=ts)
        live = aggregator.snapshot()
        collector = obs.TraceCollector()
        aggregator.drain_to_collector(collector)
        assert live["runs"] == analyze_trace(obs.to_chrome_trace(collector))["runs"]
        detectors = live["runs"][0]["detectors"]
        assert detectors["straggler"]["stragglers"] == [5]
        assert detectors["abort_storm"]["storm_count"] == 1


class TestSession:
    def test_create_spec_attach_roundtrip(self):
        session = LiveTelemetrySession.create(num_workers=2, ring_bytes=4096)
        try:
            assert session.sources() == [
                "parent", "server", "worker-0", "worker-1"
            ]
            attached = LiveTelemetrySession.attach(session.spec())
            try:
                session.worker_ring(1).push(
                    LiveCount(name="c", amount=1.0, ts=0.0)
                )
                assert len(attached.worker_ring(1).drain()) == 1
                with pytest.raises(RuntimeError, match="creating session"):
                    attached.unlink()
            finally:
                attached.close()
        finally:
            session.close()
            session.unlink()

    def test_attach_rejects_unknown_schema_version(self):
        with pytest.raises(ValueError, match="schema_version"):
            LiveTelemetrySession.attach({"schema_version": 999, "rings": []})

    @pytest.mark.parametrize("spec, message", [
        ([], "live spec must be a JSON object, not list"),
        ({"schema_version": 1, "rings": [5]}, "live spec lacks 'num_workers'"),
        ({"schema_version": 1, "num_workers": 1, "rings": [5]},
         "ring entry must be a JSON object, not 5"),
        ({"schema_version": 1, "num_workers": 1, "rings": [{"source": "w"}]},
         "ring entry lacks 'shm_name', 'capacity'"),
    ], ids=["list", "no-num-workers", "int-ring", "ring-without-keys"])
    def test_malformed_spec_file_exits_2(self, tmp_path, capsys, spec, message):
        path = tmp_path / "live.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["top", "--attach", str(path), "--once"]) == 2
        assert capsys.readouterr().err == f"repro top: error: {message}\n"

    def test_spec_file_roundtrip(self, tmp_path):
        session = LiveTelemetrySession.create(num_workers=1, ring_bytes=4096)
        try:
            path = tmp_path / "live.json"
            session.write_spec(str(path))
            attached = LiveTelemetrySession.load_spec(str(path))
            try:
                assert attached.num_workers == 1
                assert attached.sources() == session.sources()
            finally:
                attached.close()
        finally:
            session.close()
            session.unlink()

    def test_aggregator_polls_every_ring(self):
        session = LiveTelemetrySession.create(num_workers=1, ring_bytes=4096)
        try:
            session.parent_ring.push(LiveCount(name="p", amount=1.0, ts=0.0))
            session.server_ring.push(LiveCount(name="s", amount=1.0, ts=0.0))
            session.worker_ring(0).push(LiveCount(name="w", amount=1.0, ts=0.0))
            aggregator = session.aggregator()
            assert aggregator.poll() == 3
            assert aggregator.snapshot()["counters"] == {
                "p": 1.0, "s": 1.0, "w": 1.0
            }
        finally:
            session.close()
            session.unlink()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            LiveTelemetrySession.create(num_workers=0)


class TestDashboard:
    def _snapshot(self):
        aggregator = TelemetryAggregator()
        _feed_iterations(aggregator, 0, count=5, interval=0.5)
        return aggregator.snapshot()

    def test_render_contains_workers_and_detectors(self):
        snapshot = self._snapshot()
        header, report = render_frame(snapshot).split("\n", 1)
        assert header.endswith("(10 records, 0 dropped)")
        assert report == render_analysis_text(snapshot)
        assert "rt.worker-0" in report
        assert "detectors:" in report
        assert "iteration" in report  # phase table

    def test_run_dashboard_once_returns_final_snapshot(self):
        aggregator = TelemetryAggregator()
        frames = []
        snapshot = run_dashboard(
            aggregator,
            now_fn=lambda: 1.0,
            sleep_fn=lambda _s: None,
            write=frames.append,
            once=True,
        )
        assert snapshot["schema_version"] == obs.ANALYSIS_SCHEMA_VERSION
        assert len(frames) == 1

    def test_run_dashboard_json_writes_json_only_at_end(self):
        aggregator = TelemetryAggregator()
        clock = iter([0.0, 0.0, 0.4, 0.8, 1.2])
        frames = []
        run_dashboard(
            aggregator,
            now_fn=lambda: next(clock),
            sleep_fn=lambda _s: None,
            write=frames.append,
            interval_s=0.4,
            duration_s=1.0,
            as_json=True,
        )
        assert len(frames) == 1
        json.loads(frames[0])


def _build_live_run(session, num_workers=4, seed=0):
    dataset = SyntheticImageDataset(
        num_classes=3, feature_dim=8, num_samples=800,
        class_separation=3.0, warp=False, seed=0,
    )
    partitions = dataset.partition(num_workers, np.random.default_rng(0))
    return MultiprocessRun(
        model=SoftmaxRegressionModel(input_dim=8, num_classes=3),
        partitions=partitions,
        eval_batch=dataset.eval_batch(),
        update_rule=SgdUpdateRule(ConstantSchedule(0.2)),
        compute_model=ComputeTimeModel(mean_time_s=4.0, jitter_sigma=0.1),
        batch_size=32,
        time_scale=0.004,
        tuner=AdaptiveTuner(),
        seed=seed,
        live_session=session,
    )


class TestLiveCaptureEndToEnd:
    def test_live_run_drains_to_analyzable_trace_matching_conventional(self):
        session = LiveTelemetrySession.create(num_workers=4)
        try:
            with obs.collecting() as collector:
                result = _build_live_run(session).run(0.6)
            assert result.total_iterations > 0

            aggregator = session.aggregator()
            aggregator.poll()
            snapshot = aggregator.snapshot()

            # Nothing was lost and every worker reported in.
            assert snapshot["totals"]["dropped_records"] == 0
            (run,) = snapshot["runs"]
            per_worker = run["ledger"]["per_worker"]
            assert sorted(per_worker) == [f"rt.worker-{w}" for w in range(4)]
            assert all(entry["pushes"] > 0 for entry in per_worker.values())
            gauges = snapshot["recording"]["metrics"]["gauges"]
            assert gauges["rt.queue.request_depth"] >= 0
            assert run["phases"]["pull"]["count"] > 0
            assert run["phases"]["push"]["count"] > 0

            # The drained capture is a first-class trace file.
            live_collector = obs.TraceCollector()
            drained = aggregator.drain_to_collector(live_collector)
            assert drained == snapshot["totals"]["records"]
            live_trace = obs.to_chrome_trace(live_collector)
            live_analysis = analyze_trace(live_trace)
            assert live_analysis["runs"] == snapshot["runs"]

            # Same-seed parity: the live capture's critical-path total
            # must bracket the same wall window the conventional parent
            # trace recorded, within 1%.  (The parent trace has no
            # worker spans — children can't reach its collector — so
            # its run duration is the comparable total.)
            conventional = analyze_trace(obs.to_chrome_trace(collector))
            live_path = live_analysis["runs"][0]["critical_path"]
            conv_total = conventional["runs"][0]["duration_s"]
            assert live_path["total_s"] == pytest.approx(conv_total, rel=0.01)
            assert live_path["by_category"]["compute"] > 0
        finally:
            session.close()
            session.unlink()

    def test_run_rejects_undersized_session(self):
        session = LiveTelemetrySession.create(num_workers=1, ring_bytes=4096)
        try:
            with pytest.raises(ValueError, match="live session"):
                _build_live_run(session, num_workers=2)
        finally:
            session.close()
            session.unlink()
