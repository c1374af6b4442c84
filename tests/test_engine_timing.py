"""Timing-level tests of the engine: transfer delays, sharding, pull delays."""

import numpy as np
import pytest

from repro import AspPolicy, ClusterSpec, NaiveWaitingPolicy
from repro.cluster.compute import ComputeTimeModel
from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.netsim.network import LinkModel
from repro.ps.engine import EngineConfig, TrainingEngine
from repro.workloads import tiny_workload


def build_engine(num_workers=2, policy=None, num_shards=None,
                 param_bytes=1e6, link=None, horizon=30.0, seed=0,
                 compute_mean=1.0):
    workload = tiny_workload()
    cluster = ClusterSpec.homogeneous(num_workers)
    dataset = workload.dataset_factory(0)
    partitions = dataset.partition(num_workers, np.random.default_rng(0))
    return TrainingEngine(
        model=workload.model_factory(),
        partitions=partitions,
        eval_batch=dataset.eval_batch(),
        update_rule=SgdUpdateRule(ConstantSchedule(0.2)),
        policy=policy or AspPolicy(),
        cluster=cluster,
        base_compute_model=ComputeTimeModel(
            mean_time_s=compute_mean, jitter_sigma=0.0
        ),
        config=EngineConfig(
            batch_size=8,
            horizon_s=horizon,
            eval_interval_s=5.0,
            param_wire_bytes=param_bytes,
            link=link or LinkModel(bandwidth_bytes_per_s=1e6,
                                   base_latency_s=0.001),
            num_shards=num_shards,
        ),
        seed=seed,
    )


class TestTransferTiming:
    def test_more_shards_faster_pulls_more_iterations(self):
        """A pull of B bytes over k shards serializes B/k per stream, so a
        bandwidth-bound workload completes more iterations with more shards."""
        slow = build_engine(num_shards=1).run()
        fast = build_engine(num_shards=8).run()
        assert fast.total_iterations > slow.total_iterations

    def test_param_size_slows_iterations(self):
        small = build_engine(param_bytes=1e4).run()
        large = build_engine(param_bytes=2e6).run()
        assert small.total_iterations > large.total_iterations

    def test_first_pull_happens_after_link_delay(self):
        engine = build_engine(param_bytes=1e6, num_shards=1)
        result = engine.run()
        first_pull = result.traces.pulls[0]
        # request latency + response serialization (1e6B @ 1e6B/s = 1s)
        assert first_pull.time >= 1.0

    def test_iteration_span_includes_compute_and_transfers(self):
        engine = build_engine(param_bytes=1e6, num_shards=1, compute_mean=2.0,
                              horizon=60.0)
        result = engine.run()
        spans = [w.mean_iteration_time for w in result.worker_stats]
        # span >= compute (2s) + pull response (1s) + push (1s)
        assert all(s >= 3.9 for s in spans)


class TestPullDelayTiming:
    def test_naive_wait_shifts_pull_times(self):
        baseline = build_engine(policy=AspPolicy(), horizon=20.0).run()
        delayed = build_engine(policy=NaiveWaitingPolicy(0.7), horizon=20.0).run()
        assert delayed.traces.pulls[0].time == pytest.approx(
            baseline.traces.pulls[0].time + 0.7, abs=1e-6
        )

    def test_negative_delay_policy_rejected(self):
        class BadPolicy(NaiveWaitingPolicy):
            def __init__(self):
                super().__init__(0.0)

            def pull_delay(self, worker_id):
                return -1.0

        engine = build_engine(policy=BadPolicy(), horizon=5.0)
        with pytest.raises(ValueError):
            engine.run()


class TestDefaultSharding:
    def test_default_shards_equal_workers(self):
        engine = build_engine(num_workers=5)
        assert engine.num_shards == 5

    def test_explicit_shards_respected(self):
        engine = build_engine(num_workers=5, num_shards=2)
        assert engine.num_shards == 2


class TestCongestionOption:
    def test_serialized_nics_slow_push_heavy_runs(self):
        from repro.workloads import tiny_workload
        from repro.netsim.network import LinkModel
        from repro import ClusterSpec, AspPolicy

        # Big transfers relative to compute so NIC serialization bites.
        workload = tiny_workload().with_overrides(param_wire_bytes=3e5)
        link = LinkModel(bandwidth_bytes_per_s=1e6, base_latency_s=0.001)

        def run(serialize):
            from repro.ps.engine import EngineConfig, TrainingEngine
            import numpy as np

            dataset = workload.dataset_factory(0)
            partitions = dataset.partition(4, np.random.default_rng(0))
            engine = TrainingEngine(
                model=workload.model_factory(),
                partitions=partitions,
                eval_batch=dataset.eval_batch(),
                update_rule=workload.update_rule_factory(),
                policy=AspPolicy(),
                cluster=ClusterSpec.homogeneous(4),
                base_compute_model=workload.base_compute,
                config=EngineConfig(
                    batch_size=16, horizon_s=30.0, eval_interval_s=5.0,
                    param_wire_bytes=3e5, link=link, num_shards=1,
                    serialize_node_transfers=serialize,
                ),
                seed=0,
            )
            return engine.run()

        free = run(False)
        congested = run(True)
        assert congested.total_iterations <= free.total_iterations
