"""Tests for the multi-process backend (real OS processes + queues)."""

import numpy as np
import pytest

from repro.cluster.compute import ComputeTimeModel
from repro.core.hyperparams import SpecSyncHyperparams
from repro.core.tuning import AdaptiveTuner, FixedTuner
from repro.ml import SoftmaxRegressionModel, SyntheticImageDataset
from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.runtime import MultiprocessRun


def build_run(num_workers=4, tuner=None, time_scale=0.004, seed=0,
              update_rule=None, **kwargs):
    dataset = SyntheticImageDataset(
        num_classes=3, feature_dim=8, num_samples=800,
        class_separation=3.0, warp=False, seed=0,
    )
    partitions = dataset.partition(num_workers, np.random.default_rng(0))
    return MultiprocessRun(
        model=SoftmaxRegressionModel(input_dim=8, num_classes=3),
        partitions=partitions,
        eval_batch=dataset.eval_batch(),
        update_rule=update_rule or SgdUpdateRule(ConstantSchedule(0.2)),
        compute_model=ComputeTimeModel(mean_time_s=4.0, jitter_sigma=0.1),
        batch_size=32,
        time_scale=time_scale,
        tuner=tuner,
        seed=seed,
        **kwargs,
    )


class TestAspMode:
    def test_processes_make_progress(self):
        result = build_run(tuner=None).run(0.7)
        assert result.total_iterations > 0
        assert result.total_aborts == 0
        assert all(v > 0 for v in result.per_worker_iterations.values())

    def test_staleness_positive_with_real_concurrency(self):
        result = build_run(num_workers=4, tuner=None).run(0.7)
        assert result.mean_staleness > 0

    def test_loss_improves(self):
        run = build_run(tuner=None, time_scale=0.002)
        ds_loss_initial = None  # model init is inside the run; compare to chance
        result = run.run(0.8)
        # 3-class problem: training must beat the ln(3)≈1.1 chance level.
        assert result.final_loss < 0.8


class TestSpecSyncMode:
    def test_fixed_tuner_aborts_across_processes(self):
        tuner = FixedTuner(SpecSyncHyperparams(abort_time_s=0.008, abort_rate=0.3))
        result = build_run(num_workers=4, tuner=tuner).run(0.7)
        assert result.resyncs_sent > 0
        assert result.total_aborts > 0

    def test_adaptive_tuner_tunes(self):
        result = build_run(num_workers=4, tuner=AdaptiveTuner()).run(1.0)
        assert result.epochs_tuned > 0

    def test_unreachable_threshold_never_aborts(self):
        tuner = FixedTuner(SpecSyncHyperparams(abort_time_s=0.001, abort_rate=10.0))
        result = build_run(num_workers=3, tuner=tuner).run(0.5)
        assert result.total_aborts == 0


class TestExhaustedAbortBudget:
    def test_resync_without_budget_does_not_cut_the_compute_short(self):
        # 16 ms emulated compute, 4 workers: a re-sync the budget cannot
        # honour must be ignored, not end the wait (see the threaded twin).
        tuner = FixedTuner(SpecSyncHyperparams(abort_time_s=0.003, abort_rate=0.2))
        result = build_run(
            num_workers=4, tuner=tuner, max_aborts_per_iteration=0
        ).run(1.0)
        ceiling = 4 * result.wall_time_s / (4.0 * 0.004)
        assert result.resyncs_sent > 30
        assert result.total_aborts == 0
        assert 0 < result.total_iterations <= 1.05 * ceiling


class TestSchedulerCallbackRaises:
    def test_run_fails_loudly_after_unlinking_every_segment(self, monkeypatch):
        import multiprocessing
        import os
        import threading

        from repro.runtime import threaded

        raised = []

        class RaisingOnce(threaded._ThreadSafeScheduler):
            def __init__(self, send_resync, **kwargs):
                def raise_once(worker_id, iteration, peer_pushes):
                    if not raised:
                        raised.append(iteration)
                        raise RuntimeError("resync wire down")
                    send_resync(worker_id, iteration, peer_pushes)

                super().__init__(send_resync=raise_once, **kwargs)

        monkeypatch.setattr(threaded, "_ThreadSafeScheduler", RaisingOnce)
        shm_before = set(os.listdir("/dev/shm"))
        tuner = FixedTuner(SpecSyncHyperparams(abort_time_s=0.008, abort_rate=0.3))
        with pytest.raises(RuntimeError, match="resync wire down"):
            build_run(num_workers=4, tuner=tuner).run(0.7)
        assert raised
        assert not multiprocessing.active_children()
        assert set(os.listdir("/dev/shm")) - shm_before == set()
        # (The raised traceback keeps run()'s queues — and the feeder thread
        # of the one the parent wrote to — alive until it is dropped.)
        assert "specsync-scheduler" not in [t.name for t in threading.enumerate()]


class TestWorkerLoopRaises:
    def test_run_names_the_worker_and_leaves_nothing_behind(self):
        import multiprocessing
        import os
        import time

        class RaisesOnThirdCall(SoftmaxRegressionModel):
            calls = 0  # per process: every forked worker reaches its third

            def gradient(self, params, batch):
                self.calls += 1
                if self.calls == 3:
                    raise ArithmeticError("gradient blew up")
                return super().gradient(params, batch)

        run = build_run(num_workers=2, tuner=AdaptiveTuner())
        run.model = RaisesOnThirdCall(input_dim=8, num_classes=3)
        shm_before = set(os.listdir("/dev/shm"))
        started = time.monotonic()
        with pytest.raises(
            RuntimeError,
            match=r"worker [01] raised ArithmeticError\('gradient blew up'\); worker [01]",
        ):
            run.run(0.5)
        # The dead workers still reported: no 10 s stats timeout was waited out.
        assert time.monotonic() - started < 5.0
        assert not multiprocessing.active_children()
        assert set(os.listdir("/dev/shm")) - shm_before == set()


class TestValidation:
    def test_negative_abort_budget_rejected(self):
        with pytest.raises(ValueError, match="max_aborts_per_iteration"):
            build_run(max_aborts_per_iteration=-1)

    def test_empty_partitions_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessRun(
                model=SoftmaxRegressionModel(4, 2),
                partitions=[],
                eval_batch=None,
                update_rule=SgdUpdateRule(ConstantSchedule(0.1)),
                compute_model=ComputeTimeModel(mean_time_s=1.0),
            )

    def test_bad_duration_rejected(self):
        with pytest.raises(ValueError):
            build_run().run(0.0)

    def test_bad_time_scale_rejected(self):
        dataset = SyntheticImageDataset(
            num_classes=2, feature_dim=4, num_samples=100, seed=0
        )
        with pytest.raises(ValueError):
            MultiprocessRun(
                model=SoftmaxRegressionModel(4, 2),
                partitions=dataset.partition(1, np.random.default_rng(0)),
                eval_batch=dataset.eval_batch(),
                update_rule=SgdUpdateRule(ConstantSchedule(0.1)),
                compute_model=ComputeTimeModel(mean_time_s=1.0),
                time_scale=-1.0,
            )
