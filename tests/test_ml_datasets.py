"""Tests for synthetic dataset generators and partitioning."""

import numpy as np
import pytest

from repro.ml import SyntheticImageDataset, SyntheticRatingsDataset
from repro.ml.datasets.base import Partition


class TestSyntheticRatings:
    def make(self, **kwargs):
        defaults = dict(num_users=50, num_items=30, num_ratings=2000, seed=0)
        defaults.update(kwargs)
        return SyntheticRatingsDataset(**defaults)

    def test_ratings_in_star_range(self):
        ds = self.make()
        _, _, ratings = ds.gather(np.arange(ds.num_samples))
        assert np.all(ratings >= 1.0) and np.all(ratings <= 5.0)

    def test_indices_within_bounds(self):
        ds = self.make()
        users, items, _ = ds.gather(np.arange(ds.num_samples))
        assert users.max() < 50 and users.min() >= 0
        assert items.max() < 30 and items.min() >= 0

    def test_eval_batch_held_out(self):
        ds = self.make(eval_fraction=0.2)
        eval_users, _, _ = ds.eval_batch()
        assert len(eval_users) == 400
        assert ds.num_samples == 1600

    def test_reproducible(self):
        a = self.make(seed=7)
        b = self.make(seed=7)
        ua, _, ra = a.gather(np.arange(10))
        ub, _, rb = b.gather(np.arange(10))
        np.testing.assert_array_equal(ua, ub)
        np.testing.assert_array_equal(ra, rb)

    def test_different_seeds_differ(self):
        a = self.make(seed=1)
        b = self.make(seed=2)
        _, _, ra = a.gather(np.arange(50))
        _, _, rb = b.gather(np.arange(50))
        assert not np.allclose(ra, rb)

    def test_popularity_skew(self):
        ds = self.make(num_ratings=20_000)
        _, items, _ = ds.gather(np.arange(ds.num_samples))
        counts = np.bincount(items, minlength=30)
        # Zipf-ish: most popular item much more frequent than least popular.
        assert counts.max() > 3 * max(counts.min(), 1)

    def test_low_rank_structure_learnable(self):
        # Residual after subtracting global mean should be predictable:
        # correlation between two disjoint halves of a user's ratings exists.
        ds = self.make(num_ratings=20_000, noise_std=0.1)
        users, items, ratings = ds.gather(np.arange(ds.num_samples))
        assert ratings.std() > 0.3  # structure + noise, not constant

    @pytest.mark.parametrize("num_ratings,seed", [(60_000, 0), (9_001, 3)])
    def test_ratings_bit_identical_to_unblocked_reference(self, num_ratings, seed):
        rng = np.random.default_rng(seed)
        true_u = rng.normal(0.0, 0.5, size=(600, 8))
        true_v = rng.normal(0.0, 0.5, size=(400, 8))
        user_bias = rng.normal(0.0, 0.3, size=600)
        item_bias = rng.normal(0.0, 0.3, size=400)
        weights = 1.0 / np.arange(1, 401) ** 0.8
        weights /= weights.sum()
        users = rng.integers(0, 600, size=num_ratings)
        items = rng.choice(400, size=num_ratings, p=weights)
        ratings = np.clip(
            3.0 + np.sum(true_u[users] * true_v[items], axis=1)
            + user_bias[users] + item_bias[items]
            + rng.normal(0.0, 0.25, size=num_ratings),
            1.0, 5.0,
        )
        ds = SyntheticRatingsDataset(
            num_users=600, num_items=400, num_ratings=num_ratings, seed=seed,
        )
        columns = zip(
            (users, items, ratings), ds.eval_batch(), ds.gather(np.arange(ds.num_samples))
        )
        for expected, held_out, trained in columns:
            assert expected.tobytes() == np.concatenate([held_out, trained]).tobytes()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            self.make(num_ratings=5)
        with pytest.raises(ValueError):
            self.make(eval_fraction=1.5)


class TestSyntheticImages:
    def make(self, **kwargs):
        defaults = dict(
            num_classes=4, feature_dim=8, num_samples=1000, seed=0
        )
        defaults.update(kwargs)
        return SyntheticImageDataset(**defaults)

    def test_shapes(self):
        ds = self.make()
        X, y = ds.gather(np.arange(10))
        assert X.shape == (10, 8)
        assert y.shape == (10,)

    def test_labels_in_range(self):
        ds = self.make()
        _, y = ds.gather(np.arange(ds.num_samples))
        assert y.min() >= 0 and y.max() < 4

    def test_features_standardized(self):
        ds = self.make(num_samples=5000)
        X, _ = ds.gather(np.arange(ds.num_samples))
        assert abs(X.mean()) < 0.1
        assert abs(X.std() - 1.0) < 0.15

    def test_classes_separable_by_separation(self):
        # Higher separation -> class means further apart in feature space.
        def spread(sep):
            ds = self.make(num_samples=4000, class_separation=sep, warp=False)
            X, y = ds.gather(np.arange(ds.num_samples))
            means = np.stack([X[y == c].mean(axis=0) for c in range(4)])
            return np.linalg.norm(means[0] - means[1])

        assert spread(5.0) > spread(0.5)

    def test_eval_batch_held_out(self):
        ds = self.make(eval_fraction=0.25)
        X_eval, _ = ds.eval_batch()
        assert len(X_eval) == 250
        assert ds.num_samples == 750

    def test_reproducible(self):
        a = self.make(seed=9)
        b = self.make(seed=9)
        Xa, _ = a.gather(np.arange(5))
        Xb, _ = b.gather(np.arange(5))
        np.testing.assert_allclose(Xa, Xb)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            self.make(num_classes=1)
        with pytest.raises(ValueError):
            self.make(num_samples=3)


class TestPartitioning:
    def test_partitions_cover_all_samples_disjointly(self):
        ds = SyntheticImageDataset(num_classes=3, feature_dim=4, num_samples=500, seed=0)
        rng = np.random.default_rng(0)
        parts = ds.partition(7, rng)
        all_indices = np.concatenate([p.indices for p in parts])
        assert len(all_indices) == ds.num_samples
        assert len(np.unique(all_indices)) == ds.num_samples

    def test_partitions_roughly_equal(self):
        ds = SyntheticImageDataset(num_classes=3, feature_dim=4, num_samples=500, seed=0)
        parts = ds.partition(7, np.random.default_rng(0))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_partition_reproducible_with_seeded_rng(self):
        ds = SyntheticImageDataset(num_classes=3, feature_dim=4, num_samples=500, seed=0)
        a = ds.partition(4, np.random.default_rng(5))
        b = ds.partition(4, np.random.default_rng(5))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.indices, pb.indices)

    def test_sample_batch_draws_from_own_shard(self):
        ds = SyntheticImageDataset(num_classes=3, feature_dim=4, num_samples=200, seed=0)
        parts = ds.partition(4, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        own = set(parts[0].indices.tolist())
        for _ in range(20):
            chosen = rng.choice(parts[0].indices, size=10, replace=True)
            assert set(chosen.tolist()) <= own

    @pytest.mark.parametrize("shard_size", [1, 7, 1500])
    def test_sample_batch_is_the_stream_choice_would_draw(self, shard_size):
        # sample_batch indexes with rng.integers instead of calling
        # rng.choice(indices, replace=True).  Every run digest in the
        # repo rests on the two consuming the bit stream identically, so
        # a NumPy whose choice() diverges must fail here, not silently
        # change every simulated result.
        ds = SyntheticImageDataset(num_classes=3, feature_dim=4, num_samples=4000, seed=0)
        shard = np.random.default_rng(2).permutation(ds.num_samples)[:shard_size]
        part = Partition(ds, shard)
        ours, reference = np.random.default_rng(9), np.random.default_rng(9)
        for draw in range(200):
            batch_size = 1 + draw % 33
            batch = part.sample_batch(ours, batch_size)
            expected = ds.gather(
                reference.choice(part.indices, size=batch_size, replace=True)
            )
            assert len(batch) == len(expected)
            for got, want in zip(batch, expected):
                np.testing.assert_array_equal(got, want)
        assert ours.integers(1 << 62) == reference.integers(1 << 62)

    def test_partition_owns_its_shard(self):
        # The caller's index array is its own to reuse: overwriting it
        # after partitioning must not reshuffle the worker's shard.
        ds = SyntheticImageDataset(num_classes=3, feature_dim=4, num_samples=200, seed=0)
        shard = np.arange(0, ds.num_samples, 5, dtype=np.int64)
        part = Partition(ds, shard)
        before = part.sample_batch(np.random.default_rng(4), 16)
        shard[:] = 0
        np.testing.assert_array_equal(part.indices, np.arange(0, ds.num_samples, 5))
        after = part.sample_batch(np.random.default_rng(4), 16)
        for got, want in zip(after, before):
            np.testing.assert_array_equal(got, want)

    def test_too_many_workers_rejected(self):
        ds = SyntheticImageDataset(num_classes=3, feature_dim=4, num_samples=100, seed=0)
        with pytest.raises(ValueError):
            ds.partition(200, np.random.default_rng(0))

    def test_batch_size_validated(self):
        ds = SyntheticImageDataset(num_classes=3, feature_dim=4, num_samples=100, seed=0)
        part = ds.partition(2, np.random.default_rng(0))[0]
        with pytest.raises(ValueError):
            part.sample_batch(np.random.default_rng(0), 0)

    def test_empty_partition_rejected(self):
        ds = SyntheticImageDataset(num_classes=3, feature_dim=4, num_samples=100, seed=0)
        with pytest.raises(ValueError):
            Partition(ds, np.array([], dtype=np.int64))
