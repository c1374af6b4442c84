"""Tests for traces, PAP analysis, curves, and convergence detection."""

import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.metrics import (
    BoxStats,
    ConvergenceCriterion,
    EvalPoint,
    LossCurve,
    PapAnalysis,
    PullEvent,
    PushEvent,
    AbortEvent,
    TraceRecorder,
    detect_convergence,
    pap_box_stats,
    pap_interval_counts,
)
from repro.metrics.traces import PushHistory
from repro.netsim import Message, MessageKind, TransferLedger


def pull(time, worker, version=0, iteration=0, restart=False):
    return PullEvent(time=time, worker_id=worker, version=version,
                     iteration=iteration, is_restart=restart)


def push(time, worker, version=1, snap=0, iteration=0):
    return PushEvent(time=time, worker_id=worker, version_after=version,
                     snapshot_version=snap, staleness=version - 1 - snap,
                     iteration=iteration)


class TestTraceRecorder:
    def test_pushes_in_window(self):
        traces = TraceRecorder()
        for i, t in enumerate([1.0, 2.0, 3.0, 4.0]):
            traces.record_push(*push(t, worker=i, version=i + 1))
        assert traces.pushes_in_window(1.0, 3.0) == 2  # (1, 3] -> 2.0, 3.0
        assert traces.pushes_in_window(0.0, 10.0) == 4

    def test_pushes_in_window_excludes_worker(self):
        traces = TraceRecorder()
        traces.record_push(*push(1.0, worker=0))
        traces.record_push(*push(2.0, worker=1, version=2))
        assert traces.pushes_in_window(0.0, 3.0, exclude_worker=0) == 1

    def test_window_counts_follow_pushes_recorded_after_a_query(self):
        # the bisect index is caught up lazily, on query
        traces = TraceRecorder()
        traces.record_push(*push(1.0, worker=0))
        assert traces.pushes_in_window(0.0, 5.0, exclude_worker=1) == 1
        traces.record_push(*push(2.0, worker=1, version=2))
        traces.record_push(*push(2.0, worker=0, version=3))
        assert traces.pushes_in_window(0.0, 5.0) == 3
        assert traces.pushes_in_window(1.0, 2.0, exclude_worker=1) == 1
        assert traces.push_times() == [1.0, 2.0, 2.0]

    def test_window_counts_match_a_linear_scan(self):
        # The bisect form (all pushes − own pushes) against the scan it
        # replaced, kept here as the reference.
        def scan(times, workers, start, end, exclude):
            return sum(
                1 for t, w in zip(times, workers)
                if start < t <= end and w != exclude
            )

        for seed in range(40):
            rng = random.Random(seed)
            num_workers = rng.choice([1, 2, 5, 16])
            # a coarse grid, so timestamps repeat (the threaded clock does)
            times = sorted(rng.randrange(60) / 4 for _ in range(rng.randrange(1, 200)))
            workers = [rng.randrange(num_workers) for _ in times]
            history, traces = PushHistory(), TraceRecorder()
            for i, (t, w) in enumerate(zip(times, workers)):
                history.append(t, w)
                traces.record_push(*push(t, w, version=i + 1))
            pushless = num_workers  # an id that never pushed
            edges = times + [-1.0, 0.1, 7.3, 99.0]
            for _ in range(150):
                start, end = sorted((rng.choice(edges), rng.choice(edges)))
                if rng.random() < 0.1:
                    end = start
                for exclude in (None, rng.randrange(num_workers), pushless):
                    expected = scan(times, workers, start, end, exclude)
                    assert history.count_between(start, end, exclude) == expected
                    assert traces.pushes_in_window(start, end, exclude) == expected

    def test_out_of_order_push_rejected(self):
        traces = TraceRecorder()
        traces.record_push(*push(2.0, 0))
        with pytest.raises(ValueError):
            traces.record_push(*push(1.0, 1))

    def test_grouping_by_worker(self):
        traces = TraceRecorder()
        traces.record_pull(*pull(1.0, 0))
        traces.record_pull(*pull(2.0, 1))
        traces.record_pull(*pull(3.0, 0))
        grouped = traces.pulls_by_worker()
        assert [e.time for e in grouped[0]] == [1.0, 3.0]
        assert [e.time for e in grouped[1]] == [2.0]

    def test_mean_staleness(self):
        traces = TraceRecorder()
        assert traces.mean_staleness() == 0.0
        traces.record_push(*push(1.0, 0, version=1, snap=0))  # staleness 0
        traces.record_push(*push(2.0, 1, version=2, snap=0))  # staleness 1
        assert traces.mean_staleness() == pytest.approx(0.5)

    def test_wasted_compute(self):
        traces = TraceRecorder()
        traces.record_abort(*AbortEvent(1.0, 0, 0, wasted_compute_s=2.5))
        traces.record_abort(*AbortEvent(2.0, 1, 0, wasted_compute_s=1.5))
        assert traces.total_wasted_compute() == pytest.approx(4.0)


class TestPushHistory:
    def test_backwards_time_rejected_and_log_untouched(self):
        history = PushHistory()
        history.append(1.0, 0)
        history.append(1.0, 1)  # equal times are legal: the threaded clock repeats
        with pytest.raises(ValueError):
            history.append(0.5, 2)
        assert history.times == [1.0, 1.0]
        assert history.count_between(0.0, 1.0) == 2
        assert history.count_between(0.0, 1.0, exclude_worker=2) == 2


EVENT_STREAMS = st.lists(
    st.tuples(
        st.sampled_from(["pull", "push", "abort", "query", "pop"]),
        st.sampled_from([0.0, 0.0, 0.25, 0.1, 1.5]),  # time steps: times repeat
        st.integers(0, 4),  # worker
        st.integers(0, 3),  # staleness / iteration
        st.floats(0.0, 10.0, allow_nan=False),  # wasted compute
        st.booleans(),  # restart
    ),
    max_size=120,
)


class TestTraceRecorderColumns:
    """The columnar recorder against a list of NamedTuples written here."""

    @given(EVENT_STREAMS, st.lists(st.tuples(st.floats(-1, 40), st.floats(-1, 40)),
                                   max_size=12))
    def test_matches_a_list_of_rows_reference(self, stream, windows):
        traces = TraceRecorder()
        pulls, pushes, aborts = [], [], []
        now, version = 0.0, 0
        for kind, step, worker, small, wasted, restart in stream:
            now += step
            if kind == "query":
                # Queries interleave with pops and records: each must see
                # exactly the pushes recorded and not popped so far.
                for start, end in windows + [(now - step - 0.2, now)]:
                    for exclude in (None, worker):
                        expected = sum(
                            1 for p in pushes
                            if start < p.time <= end and p.worker_id != exclude
                        )
                        assert traces.pushes_in_window(start, end, exclude) == expected
            elif kind == "pop":
                if pushes:
                    assert traces.pushes.pop() == pushes.pop()
                # The next push may land before the popped one's time.
                now = pushes[-1].time if pushes else 0.0
            elif kind == "pull":
                event = PullEvent(now, worker, version, small, restart)
                traces.record_pull(*event)
                pulls.append(event)
            elif kind == "push":
                version += 1
                event = PushEvent(now, worker, version, max(version - 1 - small, 0),
                                  small, small)
                traces.record_push(*event)
                pushes.append(event)
            else:
                event = AbortEvent(now, worker, small, wasted)
                traces.record_abort(*event)
                aborts.append(event)

        assert (list(traces.pulls), list(traces.pushes), list(traces.aborts)) == (
            pulls, pushes, aborts
        )
        assert all(type(event.is_restart) is bool for event in traces.pulls)
        assert (len(traces.pulls), len(traces.pushes), len(traces.aborts)) == (
            len(pulls), len(pushes), len(aborts)
        )
        for rows, reference in [(traces.pulls, pulls), (traces.pushes, pushes),
                                (traces.aborts, aborts)]:
            if reference:
                assert rows[0] == reference[0] and rows[-1] == reference[-1]
            assert rows[1:3] == reference[1:3]
        assert traces.push_times() == [p.time for p in pushes]

        grouped = {}
        for event in pulls:
            grouped.setdefault(event.worker_id, []).append(event)
        assert traces.pulls_by_worker() == grouped
        grouped = {}
        for event in pushes:
            grouped.setdefault(event.worker_id, []).append(event)
        assert traces.pushes_by_worker() == grouped

        # exact float equality: the same values summed in the same order
        assert traces.mean_staleness() == (
            sum(p.staleness for p in pushes) / len(pushes) if pushes else 0.0
        )
        assert traces.total_wasted_compute() == sum(a.wasted_compute_s for a in aborts)

        edges = [p.time for p in pushes[:8]]
        for start, end in windows + [(e, e) for e in edges] + [(-1.0, now)]:
            for exclude in (None, 0, 3, 9):
                expected = sum(
                    1 for p in pushes
                    if start < p.time <= end and p.worker_id != exclude
                )
                assert traces.pushes_in_window(start, end, exclude) == expected

    def test_query_after_pop_and_record_counts_the_live_pushes(self):
        traces = TraceRecorder()
        traces.record_push(*push(1.0, worker=0, version=1))
        traces.record_push(*push(2.0, worker=1, version=2))
        assert traces.pushes_in_window(1.8, 10.0) == 1
        traces.pushes.pop()
        traces.record_push(*push(1.5, worker=2, version=2))
        assert traces.pushes_in_window(1.8, 10.0) == 0
        assert traces.pushes_in_window(1.0, 1.5) == 1
        assert traces.pushes_in_window(0.0, 10.0, exclude_worker=2) == 1

    def test_column_is_a_copy_and_pop_drops_the_newest_row(self):
        traces = TraceRecorder()
        traces.record_push(*push(1.0, worker=0, version=1))
        traces.record_push(*push(2.0, worker=1, version=2))
        column = traces.pushes.column("worker_id")
        assert list(column) == [0, 1]
        column.append(7)
        assert len(traces.pushes) == 2
        assert traces.pushes.pop() == push(2.0, worker=1, version=2)
        assert list(traces.pushes) == [push(1.0, worker=0, version=1)]
        traces.record_push(*push(1.5, worker=2, version=2))  # after the popped 2.0
        assert traces.push_times() == [1.0, 1.5]


def retained_bytes(fill):
    """Bytes still allocated after ``fill()`` returns (its result kept)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = fill()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return after - before


class TestRecordFootprint:
    """Run records are typed columns: a few machine words per record, where
    one Python object per record (and its boxed floats) costs ~100 B."""

    N = 20_000

    def test_ledger_bytes_per_transfer(self):
        kinds = [MessageKind.PULL_RESPONSE, MessageKind.PUSH, MessageKind.NOTIFY]
        nodes = [f"worker-{w}" for w in range(16)]

        def fill():
            ledger = TransferLedger()
            for i in range(self.N):
                message = Message(kinds[i % 3], nodes[i % 16], "servers",
                                  size_bytes=1000.0 + i)
                ledger.record(i * 0.001, message)
            return ledger

        assert retained_bytes(fill) / self.N < 32

    def test_recorder_bytes_per_event(self):
        def fill():
            traces = TraceRecorder()
            for i in range(self.N // 2):
                traces.record_pull(i * 0.001, i % 16, i, i // 16, i % 5 == 0)
                traces.record_push(i * 0.001 + 0.0005, i % 16, i + 1, i - 3, 3, i // 16)
            for i in range(self.N // 10):
                traces.record_abort(i * 0.01, i % 16, i, i * 1e-4)
            return traces

        events = self.N + self.N // 10
        assert retained_bytes(fill) / events < 40


class TestPapAnalysis:
    def build_traces(self):
        """Worker 0 pulls at t=0 and t=10; peers push at 0.5, 1.5, 2.5, ..."""
        traces = TraceRecorder()
        traces.record_pull(*pull(0.0, worker=0))
        for i, t in enumerate([0.5, 1.5, 2.5, 3.5]):
            traces.record_push(*push(t, worker=1 + (i % 3), version=i + 1))
        traces.record_pull(*pull(10.0, worker=0))
        return traces

    def test_interval_counts_basic(self):
        counts = pap_interval_counts(self.build_traces(), interval_s=1.0,
                                     num_intervals=4)
        # worker 0's first pull: one peer push in each of intervals 0..3
        assert counts[0] == [1]
        assert counts[1] == [1]
        assert counts[3] == [1]

    def test_own_pushes_excluded(self):
        traces = TraceRecorder()
        traces.record_pull(*pull(0.0, worker=0))
        traces.record_push(*push(0.5, worker=0))  # own push — not PAP
        traces.record_push(*push(0.7, worker=1, version=2))
        traces.record_pull(*pull(5.0, worker=0))
        counts = pap_interval_counts(traces, 1.0, 1)
        assert counts[0] == [1]

    def test_windows_past_next_pull_dropped(self):
        traces = TraceRecorder()
        traces.record_pull(*pull(0.0, worker=0))
        traces.record_pull(*pull(1.5, worker=0))  # next pull at 1.5
        counts = pap_interval_counts(traces, 1.0, 3)
        # interval 0 ([0,1)) fits; interval 1 ([1,2)) crosses 1.5 — dropped.
        assert len(counts[0]) >= 1
        assert counts[1] == []

    def test_box_stats(self):
        stats = BoxStats.from_samples([1.0, 2.0, 3.0, 4.0, 5.0])
        assert stats.median == 3.0
        assert stats.p5 <= stats.p25 <= stats.median <= stats.p75 <= stats.p95

    def test_box_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats.from_samples([])

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            pap_interval_counts(TraceRecorder(), interval_s=0.0)

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=5, max_size=40))
    def test_box_stats_ordering_property(self, samples):
        stats = BoxStats.from_samples(samples)
        assert stats.p5 <= stats.p25 <= stats.median <= stats.p75 <= stats.p95


class TestLossCurve:
    def build(self, losses, dt=1.0):
        curve = LossCurve()
        for i, loss in enumerate(losses):
            curve.add(EvalPoint(time=i * dt, total_iterations=i * 10, loss=loss))
        return curve

    def test_time_to_loss(self):
        curve = self.build([3.0, 2.0, 1.0, 0.5])
        assert curve.time_to_loss(1.0) == 2.0
        assert curve.time_to_loss(0.1) is None

    def test_iterations_to_loss(self):
        curve = self.build([3.0, 1.0])
        assert curve.iterations_to_loss(1.5) == 10

    def test_loss_at_time_steps(self):
        curve = self.build([3.0, 2.0, 1.0])
        assert curve.loss_at_time(0.5) == 3.0
        assert curve.loss_at_time(1.0) == 2.0
        assert curve.loss_at_time(99.0) == 1.0

    def test_out_of_order_rejected(self):
        curve = LossCurve()
        curve.add(EvalPoint(2.0, 0, 1.0))
        with pytest.raises(ValueError):
            curve.add(EvalPoint(1.0, 0, 1.0))

    def test_best_and_final(self):
        curve = self.build([3.0, 0.5, 1.0])
        assert curve.best_loss() == 0.5
        assert curve.final_loss == 1.0

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError):
            LossCurve().final_loss


class TestConvergence:
    def build(self, losses):
        curve = LossCurve()
        for i, loss in enumerate(losses):
            curve.add(EvalPoint(time=float(i), total_iterations=i, loss=loss))
        return curve

    def test_requires_consecutive(self):
        curve = self.build([1.0, 0.4, 0.6, 0.4, 0.4, 0.4])
        # one dip at idx 1 does not count with consecutive=3
        result = detect_convergence(curve, ConvergenceCriterion(0.5, consecutive=3))
        assert result.converged
        assert result.time == 3.0  # first of the qualifying run

    def test_never_converges(self):
        curve = self.build([1.0, 0.9, 0.8])
        result = detect_convergence(curve, ConvergenceCriterion(0.5, consecutive=2))
        assert not result.converged
        assert result.time is None

    def test_exactly_at_target_counts(self):
        curve = self.build([0.5, 0.5])
        result = detect_convergence(curve, ConvergenceCriterion(0.5, consecutive=2))
        assert result.converged and result.time == 0.0

    def test_paper_default_five_consecutive(self):
        losses = [1.0] + [0.4] * 4 + [0.6] + [0.4] * 5
        curve = self.build(losses)
        result = detect_convergence(curve, ConvergenceCriterion(0.5, consecutive=5))
        assert result.converged
        assert result.time == 6.0  # the run of 5 starts after the blip

    def test_require_time(self):
        curve = self.build([1.0])
        result = detect_convergence(curve, ConvergenceCriterion(0.5, consecutive=1))
        with pytest.raises(ValueError):
            result.require_time()

    def test_invalid_consecutive(self):
        with pytest.raises(ValueError):
            ConvergenceCriterion(0.5, consecutive=0)


class TestPapWindowCounts:
    def test_window_counts_per_pull(self):
        traces = TraceRecorder()
        traces.record_pull(*pull(0.0, worker=0))
        traces.record_push(*push(0.4, worker=1, version=1))
        traces.record_push(*push(0.9, worker=2, version=2))
        traces.record_pull(*pull(2.0, worker=0))
        analysis = PapAnalysis(traces, interval_s=1.0, num_intervals=2)
        assert analysis.window_counts(1.0) == [2]

    def test_windows_crossing_next_pull_skipped(self):
        traces = TraceRecorder()
        traces.record_pull(*pull(0.0, worker=0))
        traces.record_pull(*pull(0.5, worker=0))
        traces.record_pull(*pull(5.0, worker=0))
        analysis = PapAnalysis(traces, interval_s=1.0, num_intervals=2)
        # first pull's 1s window crosses the next pull at 0.5 -> skipped;
        # second pull's window [0.5, 1.5) fits.
        assert len(analysis.window_counts(1.0)) == 1

    def test_median_pap_within(self):
        traces = TraceRecorder()
        for k in range(4):
            traces.record_pull(*pull(float(10 * k), worker=0))
            # two peer pushes shortly after each pull
            traces.record_push(*push(10 * k + 0.2, worker=1, version=2 * k + 1))
            traces.record_push(*push(10 * k + 0.7, worker=2, version=2 * k + 2))
        analysis = PapAnalysis(traces, interval_s=1.0, num_intervals=2)
        assert analysis.median_pap_within(1.0) == 2.0

    def test_empty_traces_zero(self):
        analysis = PapAnalysis(TraceRecorder(), 1.0, 2)
        assert analysis.median_pap_within(1.0) == 0.0

    def test_uniformity_ratio_single_interval(self):
        traces = TraceRecorder()
        traces.record_pull(*pull(0.0, worker=0))
        traces.record_push(*push(0.5, worker=1))
        traces.record_pull(*pull(1.0, worker=0))
        analysis = PapAnalysis(traces, interval_s=1.0, num_intervals=1)
        assert analysis.uniformity_ratio() == 1.0
