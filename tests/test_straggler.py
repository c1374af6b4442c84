"""Straggler and abort-storm detectors on synthetic and DES push traces.

Note on sizing: the z-score uses the population sigma *including* the
outlier, so a single extreme straggler among ``n`` workers tops out at
z = sqrt(n - 1).  Tests therefore use 8 workers (max z ≈ 2.65 > the 2.0
default threshold); tiny 3–4 worker clusters mathematically cannot flag
a lone straggler, which is the intended conservatism.
"""

import io
import json
import math
import random

import numpy as np
import pytest

from repro.cluster.scenarios import SlowdownWindow, build_scenario_models
from repro.cluster.spec import ClusterSpec
from repro.obs import (
    AbortStormDetector,
    StragglerDetector,
    analyze_trace,
    collecting,
    write_chrome_trace,
)
from repro.ps.engine import EngineConfig, TrainingEngine
from repro.sync import AspPolicy
from repro.workloads import tiny_workload


def _feed_uniform(detector, worker_ids, interval, pushes=6, skew=None):
    """Feed a synthetic push trace: worker -> pushes at its own cadence."""
    skew = skew or {}
    for worker in worker_ids:
        step = interval * skew.get(worker, 1.0)
        for i in range(pushes):
            detector.record_push(worker, i * step)


class TestStragglerDetector:
    def test_uniform_cadence_flags_nothing(self):
        detector = StragglerDetector(num_workers=8)
        _feed_uniform(detector, range(8), interval=1.0)
        assert detector.stragglers() == []
        assert all(z == 0.0 for z in detector.z_scores().values())

    def test_slow_worker_is_flagged(self):
        detector = StragglerDetector(num_workers=8)
        _feed_uniform(detector, range(8), interval=1.0, skew={5: 4.0})
        assert detector.stragglers() == [5]
        z = detector.z_scores()
        assert z[5] > detector.z_threshold
        assert all(value < 0 for worker, value in z.items() if worker != 5)

    def test_fast_worker_is_not_a_straggler(self):
        # Outliers on the fast side are fine — only slowness is flagged.
        detector = StragglerDetector(num_workers=8)
        _feed_uniform(detector, range(8), interval=1.0, skew={2: 0.1})
        assert 2 not in detector.stragglers()

    def test_needs_min_samples_from_two_workers(self):
        detector = StragglerDetector(num_workers=4, min_samples=3)
        # 3 intervals need 4 pushes; give worker 0 enough, worker 1 not.
        for i in range(4):
            detector.record_push(0, float(i))
        for i in range(3):
            detector.record_push(1, float(i))
        assert detector.z_scores() == {}
        detector.record_push(1, 3.0)
        assert set(detector.z_scores()) == {0, 1}

    def test_first_push_has_no_interval(self):
        detector = StragglerDetector(num_workers=2)
        assert detector.record_push(0, 5.0) is None
        assert detector.record_push(0, 7.5) == pytest.approx(2.5)

    def test_window_forgets_old_intervals(self):
        detector = StragglerDetector(num_workers=8, window=4)
        # Worker 3 was slow long ago, then recovered to the common cadence:
        # once the window rolls over, it must no longer be flagged.
        _feed_uniform(detector, range(8), interval=1.0, skew={3: 4.0})
        last = 5 * 4.0  # worker 3's last push timestamp from the feed
        for i in range(1, 6):
            detector.record_push(3, last + i * 1.0)
        assert detector.stragglers() == []

    def test_report_is_json_ready_and_sorted(self):
        import json

        detector = StragglerDetector(num_workers=8)
        _feed_uniform(detector, range(8), interval=1.0, skew={5: 4.0})
        report = detector.report()
        assert report["stragglers"] == [5]
        assert list(report["z_scores"]) == sorted(report["z_scores"])
        json.dumps(report)  # must not raise

    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerDetector(num_workers=0)
        with pytest.raises(ValueError):
            StragglerDetector(num_workers=2, min_samples=1)


class TestAbortStormDetector:
    def test_healthy_mix_is_calm(self):
        detector = AbortStormDetector()
        for i in range(20):
            detector.record_push(float(i))
            if i % 5 == 0:
                detector.record_abort(i + 0.5)
        assert not detector.storming()
        assert detector.storm_count == 0

    def test_abort_burst_raises_the_flag_once(self):
        detector = AbortStormDetector(window=8, min_aborts=4)
        for i in range(8):
            detector.record_push(float(i))
        for i in range(6):
            detector.record_abort(8.0 + i)
        assert detector.storming()
        assert detector.storm_count == 1
        # Recovery: pushes wash the aborts out of the window...
        for i in range(8):
            detector.record_push(20.0 + i)
        assert not detector.storming()
        # ...and a second burst counts as a second storm.
        for i in range(6):
            detector.record_abort(40.0 + i)
        assert detector.storm_count == 2

    def test_few_aborts_never_storm_regardless_of_ratio(self):
        detector = AbortStormDetector(window=8, min_aborts=4)
        detector.record_abort(0.0)
        detector.record_abort(1.0)
        assert detector.abort_ratio() == 1.0
        assert not detector.storming()

    def test_running_abort_count_matches_a_window_rescan(self):
        # Reference kept here: recount the aborts among the last `window`
        # events after every event, as the detector itself used to.
        rng = random.Random(5)
        for window, min_aborts in ((2, 1), (8, 4), (32, 4)):
            detector = AbortStormDetector(window=window, min_aborts=min_aborts)
            history, storms, in_storm = [], 0, False
            for step in range(400):
                # abort-heavy and push-heavy stretches, so storms come and go
                is_abort = rng.random() < (0.8 if (step // 50) % 2 else 0.2)
                history.append(is_abort)
                if is_abort:
                    detector.record_abort(float(step))
                else:
                    detector.record_push(float(step))
                recent = history[-window:]
                aborts = sum(recent)
                storming = (
                    aborts >= min_aborts
                    and aborts / len(recent) >= detector.ratio_threshold
                )
                storms += storming and not in_storm
                in_storm = storming
                assert detector.abort_ratio() == aborts / len(recent)
                assert detector.storming() == storming
                assert detector.storm_count == storms
            assert storms > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AbortStormDetector(window=1)
        with pytest.raises(ValueError):
            AbortStormDetector(ratio_threshold=0.0)


class TestEngineIntegration:
    def _run_scenario_engine(self, events):
        """Seeded tiny-workload DES run with scripted slowdowns: the
        verdicts ``repro analyze`` derives from its trace."""
        workload = tiny_workload()
        cluster = ClusterSpec.homogeneous(8)
        dataset = workload.dataset_factory(0)
        partitions = dataset.partition(8, np.random.default_rng(0))
        models = build_scenario_models(cluster, workload.base_compute, events)
        with collecting() as collector:
            engine = TrainingEngine(
                model=workload.model_factory(),
                partitions=partitions,
                eval_batch=dataset.eval_batch(),
                update_rule=workload.update_rule_factory(),
                policy=AspPolicy(),
                cluster=cluster,
                base_compute_model=workload.base_compute,
                config=EngineConfig(
                    batch_size=16, horizon_s=60.0, eval_interval_s=5.0,
                    param_wire_bytes=1e5,
                ),
                seed=0,
                compute_models=models,
                workload_name="tiny",
            )
            engine.run()
        handle = io.StringIO()
        write_chrome_trace(collector, handle)
        (run,) = analyze_trace(json.loads(handle.getvalue()))["runs"]
        return run["detectors"]

    def test_scenario_slowdown_is_flagged_in_engine_report(self):
        report = self._run_scenario_engine(
            {2: [SlowdownWindow(0.0, 60.0, factor=6.0)]}
        )
        assert report["straggler"]["num_workers"] == 8
        assert report["straggler"]["stragglers"] == [2]
        assert not report["abort_storm"]["storming"]

    def test_homogeneous_run_flags_nothing(self):
        report = self._run_scenario_engine({})
        assert report["straggler"]["stragglers"] == []


class TestZeroVarianceGuard:
    """The z-score guard on (near-)zero population spread.

    Dividing by a denormal sigma would manufacture huge z-scores (or
    NaN at exactly zero) from noise far below timer resolution; the
    guard is *relative* (``sigma <= |mu| * 1e-9``) so genuine spread at
    any time scale still scores.
    """

    def test_true_negative_exactly_constant_intervals(self):
        detector = StragglerDetector(num_workers=8)
        _feed_uniform(detector, range(8), interval=1.0)
        z = detector.z_scores()
        assert z, "population must be scored, not empty"
        assert all(value == 0.0 for value in z.values())
        assert not any(math.isnan(value) for value in z.values())
        assert detector.stragglers() == []

    def test_true_negative_float_rounding_jitter(self):
        # Per-worker cadences differing by 1 ulp: sigma is denormal but
        # nonzero, the case a plain ``sigma == 0`` check misses.
        detector = StragglerDetector(num_workers=8)
        for worker in range(8):
            step = 1.0 + worker * 1e-16
            ts = 0.0
            for _ in range(6):
                ts += step
                detector.record_push(worker, ts)
        z = detector.z_scores()
        assert z and all(value == 0.0 for value in z.values())
        assert detector.stragglers() == []

    def test_true_positive_survives_at_microsecond_scale(self):
        # Real spread far above the relative guard must still flag, even
        # when the absolute sigma is tiny because intervals are tiny.
        detector = StragglerDetector(num_workers=8)
        _feed_uniform(detector, range(8), interval=1e-6, skew={5: 4.0})
        assert detector.stragglers() == [5]
        assert detector.z_scores()[5] > detector.z_threshold
