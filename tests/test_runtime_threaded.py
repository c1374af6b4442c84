"""Tests for the threaded real-time backend."""

import numpy as np
import pytest

from repro.cluster.compute import ComputeTimeModel
from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.tuning import AdaptiveTuner, FixedTuner
from repro.ml import SoftmaxRegressionModel, SyntheticImageDataset
from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.ml.params import ParamSet
from repro.runtime import ThreadedParameterServer, ThreadedRun


def build_run(num_workers=4, tuner=None, time_scale=0.002, seed=0,
              mean_time_s=3.0, update_rule=None, **kwargs):
    dataset = SyntheticImageDataset(
        num_classes=3, feature_dim=8, num_samples=800,
        class_separation=3.0, warp=False, seed=0,
    )
    partitions = dataset.partition(num_workers, np.random.default_rng(0))
    model = SoftmaxRegressionModel(input_dim=8, num_classes=3)
    return ThreadedRun(
        model=model,
        partitions=partitions,
        eval_batch=dataset.eval_batch(),
        update_rule=update_rule or SgdUpdateRule(ConstantSchedule(0.2)),
        compute_model=ComputeTimeModel(mean_time_s=mean_time_s, jitter_sigma=0.1),
        batch_size=32,
        time_scale=time_scale,
        tuner=tuner,
        seed=seed,
        **kwargs,
    )


class TestThreadedParameterServer:
    def test_pull_is_snapshot(self):
        server = ThreadedParameterServer(
            ParamSet({"w": np.array([1.0])}),
            SgdUpdateRule(ConstantSchedule(0.5)),
        )
        snapshot, version = server.pull()
        server.push(ParamSet({"w": np.array([1.0])}), version)
        np.testing.assert_allclose(snapshot["w"], [1.0])
        assert server.version == 1

    def test_staleness_from_version_gap(self):
        server = ThreadedParameterServer(
            ParamSet({"w": np.array([0.0])}),
            SgdUpdateRule(ConstantSchedule(0.1)),
        )
        _, version = server.pull()
        server.push(ParamSet({"w": np.array([1.0])}), version)
        staleness = server.push(ParamSet({"w": np.array([1.0])}), version)
        assert staleness == 1
        assert server.mean_staleness() == pytest.approx(0.5)

    def test_concurrent_pushes_all_applied(self):
        import threading

        server = ThreadedParameterServer(
            ParamSet({"w": np.zeros(1)}),
            SgdUpdateRule(ConstantSchedule(1.0)),
        )
        gradient = ParamSet({"w": np.array([-1.0])})

        def push_many():
            for _ in range(50):
                _, version = server.pull()
                server.push(gradient, version)

        threads = [threading.Thread(target=push_many) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert server.version == 200
        np.testing.assert_allclose(server.pull()[0]["w"], [200.0])


class TestThreadedRunAsp:
    def test_workers_make_progress(self):
        result = build_run(tuner=None).run(0.3)
        assert result.total_iterations > 0
        assert result.total_aborts == 0
        assert result.resyncs_sent == 0

    def test_loss_improves(self):
        run = build_run(tuner=None, time_scale=0.0005)
        initial_params, _ = run.server.pull()
        initial_loss = run.model.loss(initial_params, run.eval_batch)
        result = run.run(0.5)
        assert result.final_loss < initial_loss

    def test_staleness_positive_with_concurrency(self):
        result = build_run(num_workers=6, tuner=None).run(0.4)
        assert result.mean_staleness > 0


class TestThreadedRunSpecSync:
    def test_fixed_tuner_aborts(self):
        # Window ≈ half the (scaled) iteration time, low threshold.
        tuner = FixedTuner(SpecSyncHyperparams(abort_time_s=0.003, abort_rate=0.3))
        result = build_run(num_workers=6, tuner=tuner).run(0.4)
        assert result.resyncs_sent > 0
        assert result.total_aborts > 0

    def test_adaptive_tuner_completes_epochs(self):
        result = build_run(num_workers=4, tuner=AdaptiveTuner()).run(0.5)
        assert result.epochs_tuned > 0

    def test_aborts_bounded_by_resyncs(self):
        tuner = FixedTuner(SpecSyncHyperparams(abort_time_s=0.003, abort_rate=0.3))
        result = build_run(num_workers=6, tuner=tuner).run(0.4)
        assert result.total_aborts <= result.resyncs_sent

    def test_unreachable_threshold_never_aborts(self):
        tuner = FixedTuner(SpecSyncHyperparams(abort_time_s=0.001, abort_rate=10.0))
        result = build_run(num_workers=4, tuner=tuner).run(0.3)
        assert result.total_aborts == 0


class TestNoThreadBeforeRun:
    def test_built_and_dropped_run_starts_no_thread(self):
        # The benchmark harness discards four set-ups per rep and counts
        # threads afterwards: the scheduler thread must start lazily.
        import threading

        before = threading.active_count()
        run = build_run(tuner=AdaptiveTuner())
        assert run.scheduler is not None
        assert threading.active_count() == before
        del run
        assert threading.active_count() == before


class TestExhaustedAbortBudget:
    def test_resync_without_budget_does_not_cut_the_compute_short(self):
        # 12 ms emulated compute, 4 workers, 1 s: at most 333 iterations
        # can physically fit.  A re-sync the budget cannot honour must be
        # ignored (as TrainingEngine.request_resync does), not end the wait.
        tuner = FixedTuner(SpecSyncHyperparams(abort_time_s=0.003, abort_rate=0.2))
        run = build_run(
            num_workers=4, tuner=tuner, time_scale=0.004,
            max_aborts_per_iteration=0,
        )
        result = run.run(1.0)
        ceiling = 4 * result.wall_time_s / (3.0 * 0.004)
        assert result.resyncs_sent > 50
        assert result.total_aborts == 0
        assert 0 < result.total_iterations <= 1.05 * ceiling


class TestSchedulerCallbackRaises:
    def test_run_fails_loudly_and_leaves_no_thread(self):
        import threading

        before = threading.active_count()
        tuner = FixedTuner(SpecSyncHyperparams(abort_time_s=0.003, abort_rate=0.2))
        run = build_run(num_workers=4, tuner=tuner)
        send_resync, raised = run.scheduler.inner._send_resync, []

        def raise_once(worker_id, iteration, peer_pushes):
            if not raised:
                raised.append(iteration)
                raise RuntimeError("resync wire down")
            send_resync(worker_id, iteration, peer_pushes)

        run.scheduler.inner._send_resync = raise_once
        with pytest.raises(RuntimeError, match="resync wire down"):
            run.run(0.3)
        # Speculation went on after the failed check ...
        assert run.scheduler.inner.resyncs_sent > 1
        assert sum(worker.aborts for worker in run.workers) > 0
        # ... and the failure surfaced only after everything was joined.
        assert threading.active_count() == before


class TestWorkerLoopRaises:
    def test_run_reraises_after_joining_every_thread(self):
        import threading

        before = threading.active_count()
        run = build_run(num_workers=4, tuner=AdaptiveTuner())
        real, calls = run.model.gradient, []

        def third_call_raises(params, batch):
            calls.append(None)
            if len(calls) == 3:
                raise ArithmeticError("gradient blew up")
            return real(params, batch)

        run.model.gradient = third_call_raises
        with pytest.raises(ArithmeticError, match="gradient blew up"):
            run.run(0.3)
        # One worker stopped at its failure; the others ran on to the end.
        assert sorted(w.error is None for w in run.workers) == [False, True, True, True]
        assert sum(w.iterations for w in run.workers) > 3
        assert threading.active_count() == before


class TestValidation:
    def test_negative_abort_budget_rejected(self):
        with pytest.raises(ValueError, match="max_aborts_per_iteration"):
            build_run(max_aborts_per_iteration=-1)

    def test_empty_partitions_rejected(self):
        with pytest.raises(ValueError):
            ThreadedRun(
                model=SoftmaxRegressionModel(4, 2),
                partitions=[],
                eval_batch=None,
                update_rule=SgdUpdateRule(ConstantSchedule(0.1)),
                compute_model=ComputeTimeModel(mean_time_s=1.0),
            )

    def test_bad_time_scale_rejected(self):
        dataset = SyntheticImageDataset(
            num_classes=2, feature_dim=4, num_samples=100, seed=0
        )
        with pytest.raises(ValueError):
            ThreadedRun(
                model=SoftmaxRegressionModel(4, 2),
                partitions=dataset.partition(1, np.random.default_rng(0)),
                eval_batch=dataset.eval_batch(),
                update_rule=SgdUpdateRule(ConstantSchedule(0.1)),
                compute_model=ComputeTimeModel(mean_time_s=1.0),
                time_scale=0.0,
            )

    def test_bad_duration_rejected(self):
        run = build_run()
        with pytest.raises(ValueError):
            run.run(0.0)
