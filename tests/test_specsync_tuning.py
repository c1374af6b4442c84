"""Tests for Algorithm 1: freshness estimation and hyperparameter tuning."""

import bisect
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.tuning import (
    AdaptiveTuner,
    EpochTrace,
    FixedTuner,
    candidate_windows,
    estimate_freshness_gain,
    estimate_freshness_loss,
    freshness_curve,
    freshness_gains,
    freshness_improvement,
    tune_hyperparams,
)


def make_trace(pushes, num_workers=4, spans=None):
    """Build an EpochTrace from (time, worker) pairs."""
    pushes = sorted(pushes)
    last = {}
    for t, w in pushes:
        last[w] = max(last.get(w, t), t)
    return EpochTrace(
        num_workers=num_workers,
        pushes=pushes,
        last_push_by_worker=last,
        iteration_spans=spans or {w: 10.0 for w in range(num_workers)},
    )


class TestHyperparams:
    def test_threshold_count(self):
        hp = SpecSyncHyperparams(abort_time_s=1.0, abort_rate=0.25)
        assert hp.threshold_count(40) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpecSyncHyperparams(abort_time_s=0.0, abort_rate=0.1)
        with pytest.raises(ValueError):
            SpecSyncHyperparams(abort_time_s=1.0, abort_rate=-0.1)
        with pytest.raises(ValueError):
            SpecSyncHyperparams(abort_time_s=1.0, abort_rate=0.1).threshold_count(0)


class TestFreshnessGain:
    def test_counts_peer_pushes_after_own_last_push(self):
        trace = make_trace(
            [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 1)], num_workers=3
        )
        # worker 0's reference is t=0; peers push at 1, 2, 3.
        assert estimate_freshness_gain(trace, 0, 1.0) == 1
        assert estimate_freshness_gain(trace, 0, 2.0) == 2
        assert estimate_freshness_gain(trace, 0, 3.0) == 3

    def test_excludes_own_pushes(self):
        trace = make_trace([(0.0, 0), (1.0, 0), (2.0, 1)], num_workers=2)
        # worker 0's reference is its LAST push (t=1); only the peer at 2.
        assert estimate_freshness_gain(trace, 0, 5.0) == 1

    def test_window_boundary_inclusive(self):
        trace = make_trace([(0.0, 0), (2.0, 1)], num_workers=2)
        assert estimate_freshness_gain(trace, 0, 2.0) == 1
        assert estimate_freshness_gain(trace, 0, 1.999) == 0

    def test_worker_without_pushes_has_zero_gain(self):
        trace = make_trace([(0.0, 0)], num_workers=3)
        assert estimate_freshness_gain(trace, 2, 10.0) == 0

    def test_gain_is_monotone_step_function(self):
        trace = make_trace(
            [(0.0, 0), (1.0, 1), (2.5, 2), (7.0, 1)], num_workers=3
        )
        gains = [estimate_freshness_gain(trace, 0, w) for w in
                 (0.5, 1.0, 2.0, 2.5, 6.0, 7.0)]
        assert gains == sorted(gains)
        assert gains == [0, 1, 1, 2, 2, 3]

    def test_negative_window_rejected(self):
        trace = make_trace([(0.0, 0)], num_workers=1)
        with pytest.raises(ValueError):
            estimate_freshness_gain(trace, 0, -1.0)


class TestFreshnessLoss:
    def test_formula(self):
        # l = Δ(m−1)/T
        assert estimate_freshness_loss(41, 10.0, 2.0) == pytest.approx(8.0)

    def test_linear_in_window(self):
        one = estimate_freshness_loss(10, 5.0, 1.0)
        three = estimate_freshness_loss(10, 5.0, 3.0)
        assert three == pytest.approx(3 * one)

    def test_zero_window_zero_loss(self):
        assert estimate_freshness_loss(10, 5.0, 0.0) == 0.0

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            estimate_freshness_loss(10, 0.0, 1.0)


class TestCandidateWindows:
    def test_pairwise_differences(self):
        windows = candidate_windows([0.0, 1.0, 3.0])
        assert windows == [1.0, 2.0, 3.0]

    def test_deduplication(self):
        windows = candidate_windows([0.0, 1.0, 2.0])  # diffs 1,1,2
        assert windows == [1.0, 2.0]

    def test_subsampling_cap(self):
        times = [float(i) ** 1.3 for i in range(100)]
        windows = candidate_windows(times, max_candidates=50)
        assert len(windows) == 50
        assert windows == sorted(windows)

    def test_empty_and_single(self):
        assert candidate_windows([]) == []
        assert candidate_windows([5.0]) == []

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=2, max_size=25))
    def test_all_windows_positive_and_sorted(self, times):
        windows = candidate_windows(times)
        assert all(w > 0 for w in windows)
        assert windows == sorted(windows)


class TestTuneHyperparams:
    def test_thin_trace_returns_none(self):
        assert tune_hyperparams(make_trace([], num_workers=2)) is None
        assert tune_hyperparams(
            EpochTrace(num_workers=2, pushes=[(0.0, 0)],
                       last_push_by_worker={0: 0.0}, iteration_spans={})
        ) is None

    def test_picks_window_covering_burst(self):
        """A burst of peer pushes shortly after most workers' last pushes
        should pull the tuned window out to cover the burst."""
        pushes = [(float(w) * 0.01, w) for w in range(3)]  # 0,1,2 at ~t=0
        # worker 3 then pushes in a burst around t ≈ 1
        pushes += [(1.0 + k * 0.1, 3) for k in range(4)]
        trace = make_trace(pushes, num_workers=4,
                           spans={w: 10.0 for w in range(4)})
        hp = tune_hyperparams(trace)
        assert hp is not None
        # Windows shorter than ~1s uncover nothing for workers 0-2, so the
        # maximizer must reach into the burst.
        assert hp.abort_time_s >= 0.9

    def test_window_below_mean_span(self):
        pushes = [(float(i), i % 3) for i in range(9)]
        trace = make_trace(pushes, num_workers=3,
                           spans={w: 3.0 for w in range(3)})
        hp = tune_hyperparams(trace)
        assert hp is not None
        assert hp.abort_time_s < 3.0

    def test_abort_rate_follows_algorithm1_line7(self):
        pushes = [(float(i) * 0.5, i % 4) for i in range(12)]
        spans = {w: 2.0 for w in range(4)}
        trace = make_trace(pushes, num_workers=4, spans=spans)
        hp = tune_hyperparams(trace)
        assert hp is not None
        m = 4
        mean_span = 2.0
        expected_rate = hp.abort_time_s * (m - 1) / (mean_span * m)
        assert hp.abort_rate == pytest.approx(expected_rate)

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_tuned_window_is_a_candidate_or_none(self, pushes):
        trace = make_trace(pushes, num_workers=5)
        hp = tune_hyperparams(trace)
        if hp is not None:
            candidates = candidate_windows([t for t, _ in trace.pushes])
            assert any(abs(hp.abort_time_s - c) < 1e-9 for c in candidates)

    def test_tuned_window_maximizes_improvement(self):
        pushes = [(float(i) * 0.7, i % 4) for i in range(10)]
        trace = make_trace(pushes, num_workers=4,
                           spans={w: 5.0 for w in range(4)})
        hp = tune_hyperparams(trace)
        assert hp is not None
        best = freshness_improvement(trace, hp.abort_time_s)
        for candidate in candidate_windows([t for t, _ in trace.pushes]):
            if 0 < candidate < 5.0:
                assert freshness_improvement(trace, candidate) <= best + 1e-9


# ----------------------------------------------------------------------
# The batched kernel against a brute-force scalar scan
# ----------------------------------------------------------------------
def reference_gain(trace, worker_id, window_s):
    """ũ_i(Δ) by bisect + a filtered count — one (worker, window) pair."""
    reference = trace.last_push_by_worker.get(worker_id)
    if reference is None:
        return 0
    times = [t for t, _ in trace.pushes]
    lo = bisect.bisect_right(times, reference)
    hi = bisect.bisect_right(times, reference + window_s)
    return sum(1 for i in range(lo, hi) if trace.pushes[i][1] != worker_id)


def reference_improvement(trace, window_s):
    """F̃(Δ) as a scalar sum over workers, in worker-id order."""
    fallback_span = trace.mean_span()
    total = 0.0
    for worker_id in range(trace.num_workers):
        gain = reference_gain(trace, worker_id, window_s)
        span = trace.iteration_spans.get(worker_id, fallback_span)
        if span is None or span <= 0:
            continue
        total += gain - window_s * (trace.num_workers - 1) / span
    return total


def reference_candidates(push_times, max_candidates):
    times = sorted(push_times)
    raw = {round(times[j] - times[i], 9)
           for i in range(len(times)) for j in range(i + 1, len(times))}
    diffs = sorted(d for d in raw if d > 0)
    if len(diffs) > max_candidates:
        idx = np.linspace(0, len(diffs) - 1, max_candidates).astype(int)
        diffs = [diffs[i] for i in idx]
    return diffs


def reference_tune(trace, max_candidates=512):
    """Algorithm 1 as a per-candidate scan; first strict maximum wins."""
    mean_span = trace.mean_span()
    if mean_span is None or mean_span <= 0:
        return None
    candidates = [c for c in reference_candidates(trace.push_times(), max_candidates)
                  if 0 < c < mean_span]
    best_window, best_improvement = None, -float("inf")
    for window in candidates:
        improvement = reference_improvement(trace, window)
        if improvement > best_improvement:
            best_window, best_improvement = window, improvement
    if best_window is None:
        return None
    m = trace.num_workers
    return SpecSyncHyperparams(best_window, best_window * (m - 1) / (mean_span * m))


def random_trace(seed):
    """A seeded trace covering the kernel's corner cases: timestamps on a
    coarse grid (duplicates), workers that never push, workers without a
    span sample, and — for one seed in three, as the analysis ledger's
    whole-run traces have — reference points with own pushes after them."""
    rng = random.Random(seed)
    num_workers = rng.randint(2, 12)
    pushers = rng.sample(range(num_workers), rng.randint(1, num_workers))
    grid = rng.choice([0.0, 0.0, 0.01, 0.1])
    pushes = []
    for _ in range(rng.randint(2, 70)):
        t = rng.uniform(0.0, 6.0)
        pushes.append((round(t / grid) * grid if grid else t, rng.choice(pushers)))
    pushes.sort()
    last = {}
    for t, w in pushes:
        if seed % 3 or w not in last or rng.random() < 0.5:
            last[w] = t
    spans = {w: rng.uniform(0.5, 8.0)
             for w in range(num_workers) if rng.random() < 0.8}
    return EpochTrace(num_workers, pushes, last, spans)


class TestBatchedKernelMatchesScalarScan:
    """Equality, not closeness: the chosen hyperparameters feed the
    simulation, so one differing bit changes every downstream digest."""

    SEEDS = range(240)

    def test_tuned_hyperparams_equal(self):
        tuned = 0
        for seed in self.SEEDS:
            trace = random_trace(seed)
            max_candidates = 512 if seed % 2 else 24  # 24: forces subsampling
            expected = reference_tune(trace, max_candidates)
            assert tune_hyperparams(trace, max_candidates) == expected, seed
            tuned += expected is not None
        assert tuned > len(self.SEEDS) // 2

    def test_curve_and_gains_equal(self):
        for seed in self.SEEDS:
            trace = random_trace(seed)
            windows = [0.0] + candidate_windows(trace.push_times(), 64)
            curve = freshness_curve(trace, windows)
            assert curve.tolist() == [
                reference_improvement(trace, w) for w in windows
            ], seed
            gains = freshness_gains(trace, windows)
            for worker_id in range(trace.num_workers):
                assert gains[worker_id].tolist() == [
                    reference_gain(trace, worker_id, w) for w in windows
                ], (seed, worker_id)
            assert freshness_improvement(trace, windows[-1]) == curve[-1]
            assert estimate_freshness_gain(trace, 0, windows[-1]) == gains[0][-1]

    def test_candidate_windows_element_for_element(self):
        """``np.round`` is not ``round``: the candidates stay Python floats
        rounded by the correctly-rounding builtin."""
        for seed in self.SEEDS:
            times = random_trace(seed).push_times()
            for cap in (16, 512):
                windows = candidate_windows(times, cap)
                assert windows == reference_candidates(times, cap), seed
                assert all(type(w) is float for w in windows)

    # Push-time lists for the exactness property: uniform, rounded to a
    # few decimals, on a 5e-10 grid (differences sit on a half after ×1e9,
    # where ``fl(d·1e9)`` may cross it) and drawn from a few values.
    TIMES = st.one_of(
        st.lists(st.floats(0.0, 1e4), max_size=400),
        st.tuples(st.integers(1, 10), st.lists(st.floats(0.0, 1e3), max_size=400))
        .map(lambda p: [round(t, p[0]) for t in p[1]]),
        st.tuples(st.floats(0.0, 1e3), st.lists(st.integers(0, 10**7), max_size=400))
        .map(lambda p: [k * 5e-10 + p[0] for k in p[1]]),
        st.lists(st.floats(0.0, 1e3), min_size=1, max_size=20)
        .flatmap(lambda base: st.lists(st.sampled_from(base), max_size=400)),
    )

    @settings(deadline=None, max_examples=60)
    @given(TIMES)
    @example([k * 5e-10 + 475.5 for k in range(0, 4 * 10**6, 10**4)])
    @example([(k * 7919 % 400) * 0.0125 for k in range(400)])
    def test_candidate_windows_bit_equal_to_round_reference(self, times):
        for cap in (16, 512, 10**9):
            assert [w.hex() for w in candidate_windows(times, cap)] == [
                w.hex() for w in reference_candidates(times, cap)
            ], cap

    @pytest.mark.parametrize("times, expected", [
        ([1.441170526901181, 1.789790659401181], 0.348620133),
        ([475.5214810637931, 475.9672372212931], 0.445756157),
    ])
    def test_round_fallback_where_scaled_rint_diverges(self, times, expected):
        diff = times[1] - times[0]
        assert np.rint(diff * 1e9) / 1e9 != round(diff, 9) == expected
        assert candidate_windows(times) == [expected]

    def test_corner_cases_are_exercised(self):
        traces = [random_trace(seed) for seed in self.SEEDS]
        assert any(len(set(t.push_times())) < len(t.pushes) for t in traces)
        assert any(len(t.last_push_by_worker) < t.num_workers for t in traces)
        assert any(len(t.iteration_spans) < t.num_workers for t in traces)
        assert any(
            any(t.last_push_by_worker[w] < time_ for time_, w in t.pushes)
            for t in traces
        )
        assert any(
            len(reference_candidates(t.push_times(), 10**9)) > 24 for t in traces
        )

    def test_negative_window_rejected_by_kernel(self):
        with pytest.raises(ValueError):
            freshness_curve(random_trace(1), [0.5, -0.1])

    def test_every_retune_of_a_des_run_matches_reference(self):
        """In-run: the traces the scheduler really builds at m = 16."""
        from repro import ClusterSpec, SpecSyncPolicy
        from repro.workloads import tiny_workload

        class CheckedTuner(AdaptiveTuner):
            checked = 0

            def retune(self, trace):
                tuned = super().retune(trace)
                assert tuned == reference_tune(trace, self.max_candidates)
                self.checked += 1
                return tuned

        tuner = CheckedTuner()
        result = tiny_workload().run(
            ClusterSpec.homogeneous(16), SpecSyncPolicy(tuner), seed=5,
            horizon_s=40.0,
        )
        assert tuner.checked == result.policy_summary["epochs_completed"] >= 5
        assert any(hp is not None for hp in tuner.history)

    def test_kernel_is_faster_than_scalar_scan_at_paper_scale(self):
        """Relative guard (sandbox timing is bursty, so no absolute bound):
        m = 40 workers, n = 90 pushes, min-of-5 in this process."""
        rng = random.Random(0)
        pushes = sorted((rng.uniform(0.0, 7.0), rng.randrange(40)) for _ in range(90))
        last = {}
        for t, w in pushes:
            last[w] = t
        trace = EpochTrace(40, pushes, last,
                           {w: rng.uniform(5.0, 7.0) for w in range(40)})
        windows = [c for c in candidate_windows(trace.push_times())
                   if c < trace.mean_span()]
        assert len(windows) > 400

        def best_of_5(fn):
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                fn()
                best = min(best, time.perf_counter() - started)
            return best

        kernel_s = best_of_5(lambda: freshness_curve(trace, windows))
        scalar_s = best_of_5(
            lambda: [reference_improvement(trace, w) for w in windows]
        )
        assert scalar_s >= 5 * kernel_s, (scalar_s, kernel_s)


class TestTuners:
    def test_fixed_tuner_is_constant(self):
        hp = SpecSyncHyperparams(1.0, 0.2)
        tuner = FixedTuner(hp)
        assert tuner.initial() is hp
        assert tuner.retune(make_trace([(0.0, 0), (1.0, 1)])) is hp
        assert tuner.label == "cherrypick"

    def test_adaptive_tuner_starts_disabled(self):
        tuner = AdaptiveTuner()
        assert tuner.initial() is None
        assert tuner.label == "adaptive"

    def test_adaptive_tuner_records_history_and_cost(self):
        tuner = AdaptiveTuner()
        trace = make_trace([(float(i) * 0.5, i % 3) for i in range(9)],
                           num_workers=3)
        result = tuner.retune(trace)
        assert result is not None
        assert tuner.history == [result]
        assert tuner.total_tuning_wall_s > 0

    def test_adaptive_tuner_validates_candidates(self):
        with pytest.raises(ValueError):
            AdaptiveTuner(max_candidates=0)
