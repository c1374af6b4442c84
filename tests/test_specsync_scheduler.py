"""Unit tests for the SpecSync central scheduler (Algorithm 2) with a fake
clock — no simulation, just the callback surface."""

import random

import pytest

from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.scheduler import SpecSyncScheduler
from repro.core.tuning import AdaptiveTuner, FixedTuner


class FakeClock:
    """Manual clock + timer list standing in for the simulator."""

    def __init__(self):
        self.now = 0.0
        self.timers = []  # (fire_time, fn)

    def schedule(self, delay, fn):
        self.timers.append((self.now + delay, fn))

    def advance(self, to_time):
        self.now = to_time
        due = [(t, fn) for t, fn in self.timers if t <= to_time]
        self.timers = [(t, fn) for t, fn in self.timers if t > to_time]
        for _, fn in sorted(due, key=lambda x: x[0]):
            fn()


def make_scheduler(num_workers=4, abort_time=1.0, abort_rate=0.5, tuner=None):
    clock = FakeClock()
    resyncs = []
    scheduler = SpecSyncScheduler(
        num_workers=num_workers,
        tuner=tuner or FixedTuner(SpecSyncHyperparams(abort_time, abort_rate)),
        schedule_fn=clock.schedule,
        now_fn=lambda: clock.now,
        send_resync_fn=lambda w, i, n: resyncs.append((w, i, clock.now)),
    )
    return scheduler, clock, resyncs


class TestResyncDecision:
    def test_resync_when_threshold_met(self):
        # m=4, rate=0.5 -> threshold 2 peer pushes in the window.
        scheduler, clock, resyncs = make_scheduler()
        scheduler.handle_notify(0, iteration=1)
        clock.advance(0.2)
        scheduler.handle_notify(1, iteration=1)
        clock.advance(0.4)
        scheduler.handle_notify(2, iteration=1)
        clock.advance(1.0)  # worker 0's check fires now
        assert (0, 1, 1.0) in resyncs

    def test_no_resync_below_threshold(self):
        scheduler, clock, resyncs = make_scheduler()
        scheduler.handle_notify(0, iteration=1)
        clock.advance(0.5)
        scheduler.handle_notify(1, iteration=1)
        clock.advance(1.0)
        assert all(w != 0 for w, _, _ in resyncs)

    def test_own_pushes_not_counted(self):
        scheduler, clock, resyncs = make_scheduler(abort_rate=0.25)  # threshold 1
        scheduler.handle_notify(0, iteration=1)
        clock.advance(2.0)
        # no peers pushed inside worker 0's window
        assert resyncs == []

    def test_pushes_outside_window_not_counted(self):
        scheduler, clock, resyncs = make_scheduler(abort_time=1.0, abort_rate=0.5)
        scheduler.handle_notify(0, iteration=1)
        clock.advance(1.0)  # check for worker 0 fires with zero peer pushes
        scheduler.handle_notify(1, iteration=1)
        scheduler.handle_notify(2, iteration=1)
        assert all(w != 0 for w, _, _ in resyncs)

    def test_resync_carries_iteration_tag(self):
        scheduler, clock, resyncs = make_scheduler(abort_rate=0.25)
        scheduler.handle_notify(0, iteration=7)
        clock.advance(0.5)
        scheduler.handle_notify(1, iteration=3)
        clock.advance(1.0)
        assert (0, 7, 1.0) in resyncs

    def test_every_notify_schedules_exactly_one_check(self):
        scheduler, clock, _ = make_scheduler()
        for i in range(5):
            scheduler.handle_notify(i % 4, iteration=1)
        assert len(clock.timers) == 5

    def test_no_checks_when_speculation_disabled(self):
        scheduler, clock, _ = make_scheduler(tuner=AdaptiveTuner())
        # AdaptiveTuner.initial() is None -> no speculation in epoch 0
        scheduler.handle_notify(0, iteration=1)
        assert clock.timers == []


class TestPeerCountAgainstScan:
    """The check's peer count (two bisections on all pushes minus two on
    the worker's own) against the linear scan it replaced."""

    @pytest.mark.parametrize("seed", range(10))
    def test_every_check_counts_what_a_scan_counts(self, seed):
        rng = random.Random(seed)
        num_workers = rng.choice([2, 3, 8])
        window = 1.0
        clock = FakeClock()
        decided = []  # (iteration tag, check time, peer count)
        scheduler = SpecSyncScheduler(
            num_workers=num_workers + 1,  # the last worker never pushes
            # rate 0: every check re-syncs, so every count is reported
            tuner=FixedTuner(SpecSyncHyperparams(window, 0.0)),
            schedule_fn=clock.schedule,
            now_fn=lambda: clock.now,
            send_resync_fn=lambda w, i, n: decided.append((i, clock.now, n)),
        )
        notified = []  # (time, worker), index = iteration tag
        # Quarter-second ticks, several notifies per tick, checks fired
        # after the tick's notifies: timestamps repeat, and every window
        # (t, t + 1.0] starts and ends exactly on other pushes.
        for tick in range(125):
            clock.now = tick / 4
            for _ in range(rng.choice([0, 0, 1, 1, 2, 4]) if tick < 120 else 0):
                worker = rng.randrange(num_workers)
                scheduler.handle_notify(worker, iteration=len(notified))
                notified.append((clock.now, worker))
            clock.advance(clock.now)

        assert len(decided) == scheduler.checks_run == len(notified) > 100
        for tag, end, count in decided:
            start, worker = notified[tag]
            assert end == start + window
            assert count == sum(
                1 for t, w in notified if start < t <= end and w != worker
            )
        assert any(count == 0 for _, _, count in decided)
        assert any(count > 3 for _, _, count in decided)


class TestEpochs:
    def test_epoch_completes_when_all_workers_pushed(self):
        scheduler, clock, _ = make_scheduler(num_workers=3)
        scheduler.handle_notify(0, 1)
        clock.advance(0.1)
        scheduler.handle_notify(1, 1)
        assert scheduler.epochs_completed == 0
        clock.advance(0.2)
        scheduler.handle_notify(2, 1)
        assert scheduler.epochs_completed == 1

    def test_repeat_pushes_do_not_complete_epoch(self):
        scheduler, clock, _ = make_scheduler(num_workers=3)
        for _ in range(5):
            clock.advance(clock.now + 0.1)
            scheduler.handle_notify(0, 1)
        assert scheduler.epochs_completed == 0

    def test_adaptive_tuner_enabled_after_first_epoch(self):
        scheduler, clock, _ = make_scheduler(num_workers=2, tuner=AdaptiveTuner())
        assert scheduler.hyperparams is None
        scheduler.handle_notify(0, 1)
        clock.advance(1.0)
        scheduler.handle_notify(1, 1)
        clock.advance(2.0)
        scheduler.handle_notify(0, 2)
        clock.advance(3.0)
        scheduler.handle_notify(1, 2)
        # At least one epoch boundary passed; hyperparams may now exist
        # (requires >= 2 pushes and span estimates in the epoch).
        assert scheduler.epochs_completed >= 1

    def test_span_estimation_from_notify_gaps(self):
        scheduler, clock, _ = make_scheduler(num_workers=2)
        for t in (0.0, 10.0, 20.0, 30.0):
            clock.advance(t)
            scheduler.handle_notify(0, 1)
        assert scheduler.estimated_span(0) == pytest.approx(10.0)
        assert scheduler.estimated_span(1) is None

    def test_epoch_trace_handed_to_tuner(self):
        """The hand-off keeps each worker's *latest* push of the epoch as
        its reference point, repeated timestamps included, and starts the
        next epoch's trace empty."""
        class RecordingTuner(FixedTuner):
            def __init__(self):
                super().__init__(SpecSyncHyperparams(1.0, 0.5))
                self.traces = []

            def retune(self, trace):
                self.traces.append(trace)
                return self.hyperparams

        tuner = RecordingTuner()
        scheduler, clock, _ = make_scheduler(num_workers=3, tuner=tuner)
        for now, worker in ((0.0, 0), (0.5, 1), (0.5, 0), (0.5, 1), (2.0, 2)):
            clock.advance(now)
            scheduler.handle_notify(worker, 1)
        for now, worker in ((3.0, 2), (4.0, 1), (5.0, 0)):
            clock.advance(now)
            scheduler.handle_notify(worker, 2)
        first, second = tuner.traces
        assert first.num_workers == 3
        assert first.pushes == [(0.0, 0), (0.5, 1), (0.5, 0), (0.5, 1), (2.0, 2)]
        assert first.last_push_by_worker == {0: 0.5, 1: 0.5, 2: 2.0}
        assert first.iteration_spans == {0: 0.5}
        assert second.pushes == [(3.0, 2), (4.0, 1), (5.0, 0)]
        assert second.last_push_by_worker == {2: 3.0, 1: 4.0, 0: 5.0}

    def test_hyperparam_log_records_boundaries(self):
        scheduler, clock, _ = make_scheduler(num_workers=2)
        scheduler.handle_notify(0, 1)
        clock.advance(1.0)
        scheduler.handle_notify(1, 1)
        assert len(scheduler.hyperparam_log) == 1


class TestValidation:
    def test_unknown_worker_rejected(self):
        scheduler, _, _ = make_scheduler(num_workers=2)
        with pytest.raises(ValueError):
            scheduler.handle_notify(5, 1)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SpecSyncScheduler(
                num_workers=0,
                tuner=FixedTuner(SpecSyncHyperparams(1.0, 0.1)),
                schedule_fn=lambda d, f: None,
                now_fn=lambda: 0.0,
                send_resync_fn=lambda w, i, n: None,
            )

    def test_summary_counts(self):
        scheduler, clock, resyncs = make_scheduler(abort_rate=0.25)
        scheduler.handle_notify(0, 1)
        clock.advance(0.5)
        scheduler.handle_notify(1, 1)
        clock.advance(1.5)
        summary = scheduler.summary()
        assert summary["checks_run"] == 2
        assert summary["resyncs_sent"] == len(resyncs)


def test_observing_a_run_leaves_its_summary_unchanged():
    """An enabled collector records the run; it must not add summary keys."""
    from repro.cluster.spec import ClusterSpec
    from repro.core.specsync import SpecSyncPolicy
    from repro.obs import collecting
    from repro.workloads import tiny_workload

    def summary():
        result = tiny_workload().run(
            ClusterSpec.homogeneous(3), SpecSyncPolicy.adaptive(), seed=3, horizon_s=30.0,
        )
        return result.summary()

    plain = summary()
    with collecting():
        observed = summary()
    assert sorted(observed) == sorted(plain)
    # Tuning time is host wall time; every simulated figure is equal.
    plain.pop("tuning_wall_s")
    observed.pop("tuning_wall_s")
    assert observed == plain
