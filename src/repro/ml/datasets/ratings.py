"""Synthetic MovieLens-like ratings (substitute for the paper's MF dataset).

We plant a low-rank structure: ground-truth user/item factors generate
ratings ``r = U*[u] · V*[i] + bias terms + noise``, clipped to the 1–5 star
range, with a long-tailed item popularity so the sampling pattern resembles
real MovieLens.  Matrix factorization on this data has the same optimization
landscape class (non-convex bilinear with a known good optimum) as the real
dataset, which is what the staleness experiments exercise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.ml.datasets.base import Dataset
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["SyntheticRatingsDataset"]


class SyntheticRatingsDataset(Dataset):
    """Planted low-rank ratings with Zipf-like item popularity."""

    def __init__(
        self,
        num_users: int = 600,
        num_items: int = 400,
        num_ratings: int = 60_000,
        true_rank: int = 8,
        noise_std: float = 0.25,
        eval_fraction: float = 0.1,
        seed: int = 0,
    ):
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        if num_ratings <= 10:
            raise ValueError(f"num_ratings must exceed 10, got {num_ratings}")
        check_positive("true_rank", true_rank)
        check_non_negative("noise_std", noise_std)
        if not 0.0 < eval_fraction < 1.0:
            raise ValueError(f"eval_fraction must be in (0,1), got {eval_fraction}")

        self.num_users = int(num_users)
        self.num_items = int(num_items)
        rng = np.random.default_rng(seed)

        true_u = rng.normal(0.0, 0.5, size=(num_users, true_rank))
        true_v = rng.normal(0.0, 0.5, size=(num_items, true_rank))
        user_bias = rng.normal(0.0, 0.3, size=num_users)
        item_bias = rng.normal(0.0, 0.3, size=num_items)

        # Zipf-like popularity over items, uniform over users.
        item_weights = 1.0 / np.arange(1, num_items + 1) ** 0.8
        item_weights /= item_weights.sum()
        users = rng.integers(0, num_users, size=num_ratings)
        items = rng.choice(num_items, size=num_ratings, p=item_weights)
        # Scored in blocks (each row's sum is the same either way): gathering
        # every rating's factors at once more than tripled the set-up's peak memory.
        dots = np.concatenate([
            np.sum(true_u[users[lo:lo + 4096]] * true_v[items[lo:lo + 4096]], axis=1)
            for lo in range(0, num_ratings, 4096)
        ])
        scores = (
            3.0
            + dots
            + user_bias[users]
            + item_bias[items]
            + rng.normal(0.0, noise_std, size=num_ratings)
        )
        ratings = np.clip(scores, 1.0, 5.0)

        num_eval = max(1, int(num_ratings * eval_fraction))
        self._eval = (users[:num_eval], items[:num_eval], ratings[:num_eval])
        self._users = users[num_eval:]
        self._items = items[num_eval:]
        self._ratings = ratings[num_eval:]
        self.global_mean = float(np.mean(self._ratings))

    @property
    def num_samples(self) -> int:
        return len(self._ratings)

    def gather(self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self._users[indices], self._items[indices], self._ratings[indices])

    def eval_batch(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._eval
