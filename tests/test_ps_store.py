"""Tests for the versioned parameter store."""

import numpy as np
import pytest

from repro.ml import ParamSet
from repro.ml.optim import ConstantSchedule, SgdUpdateRule
from repro.ps import EngineConfig, ParameterStore


def make_store(rate=0.1):
    params = ParamSet({"w": np.array([1.0, 2.0])})
    return ParameterStore(params, SgdUpdateRule(ConstantSchedule(rate)))


def grad(value):
    return ParamSet({"w": np.array([value, value])})


class TestSnapshots:
    def test_snapshot_is_deep_copy(self):
        store = make_store()
        snap = store.snapshot()
        store.apply_push(0, grad(1.0), snap.version)
        # Snapshot unaffected by later pushes.
        np.testing.assert_allclose(snap.params["w"], [1.0, 2.0])

    def test_snapshot_version_tracks_pushes(self):
        store = make_store()
        assert store.snapshot().version == 0
        store.apply_push(0, grad(1.0), 0)
        assert store.snapshot().version == 1

    def test_initial_params_adopted(self):
        # The store applies pushes to the arrays it was handed, in place:
        # the server process relies on it to update its shared backing.
        initial = ParamSet({"w": np.array([1.0, 2.0])})
        backing = initial["w"]
        store = ParameterStore(initial, SgdUpdateRule(ConstantSchedule(0.5)))
        store.apply_push(0, grad(1.0), 0)
        assert store.params["w"] is backing
        np.testing.assert_allclose(backing, [0.5, 1.5])


class TestPushes:
    def test_push_applies_sgd(self):
        store = make_store(rate=0.5)
        store.apply_push(0, grad(1.0), 0)
        np.testing.assert_allclose(store.params["w"], [0.5, 1.5])

    def test_staleness_computed_from_snapshot_version(self):
        store = make_store()
        snap = store.snapshot()  # version 0
        # Two other pushes land first.
        store.apply_push(1, grad(0.1), 0)
        store.apply_push(2, grad(0.1), 1)
        record = store.apply_push(0, grad(0.1), snap.version)
        assert record.staleness == 2
        assert record.version_after == 3

    def test_fresh_push_has_zero_staleness(self):
        store = make_store()
        snap = store.snapshot()
        record = store.apply_push(0, grad(0.1), snap.version)
        assert record.staleness == 0

    def test_future_version_rejected(self):
        store = make_store()
        with pytest.raises(ValueError):
            store.apply_push(0, grad(0.1), snapshot_version=5)

    def test_running_mean_staleness_matches_per_push_mean(self):
        # 200 pushes whose snapshots lag the store by 0..7 versions.
        store = make_store(rate=1e-3)
        rng = np.random.default_rng(11)
        stalenesses = []
        for push in range(200):
            lag = int(rng.integers(0, min(store.version, 7) + 1))
            record = store.apply_push(push % 4, grad(0.1), store.version - lag)
            stalenesses.append(record.staleness)
            assert store.mean_staleness() == pytest.approx(np.mean(stalenesses))
        assert len(set(stalenesses)) == 8
        assert store.version == 200

    def test_mean_staleness(self):
        store = make_store()
        assert store.mean_staleness() == 0.0
        store.apply_push(0, grad(0.1), 0)  # staleness 0
        store.apply_push(1, grad(0.1), 0)  # staleness 1
        assert store.mean_staleness() == pytest.approx(0.5)

    def test_learning_rate_recorded(self):
        store = make_store(rate=0.25)
        record = store.apply_push(0, grad(1.0), 0)
        assert record.learning_rate == 0.25


class TestSharding:
    def test_num_shards_validated(self):
        # Sharding is the engine's transfer timing; its config refuses 0.
        for bad in (0, -2):
            with pytest.raises(ValueError, match="num_shards"):
                EngineConfig(batch_size=1, horizon_s=1.0, eval_interval_s=1.0,
                             param_wire_bytes=0.0, num_shards=bad)

    def test_shards_share_state(self):
        # Sharding is a transfer-timing concept: the store knows no shards.
        store = make_store(rate=0.5)
        assert not hasattr(store, "num_shards")
        store.apply_push(0, grad(1.0), 0)
        np.testing.assert_allclose(store.snapshot().params["w"], [0.5, 1.5])

    def test_sequential_consistency(self):
        # Applying pushes in order must equal sequential SGD.
        store = make_store(rate=0.1)
        expected = np.array([1.0, 2.0])
        rng = np.random.default_rng(0)
        for i in range(20):
            g = rng.normal(size=2)
            store.apply_push(i % 3, ParamSet({"w": g}), 0)
            expected -= 0.1 * g
        np.testing.assert_allclose(store.params["w"], expected)
