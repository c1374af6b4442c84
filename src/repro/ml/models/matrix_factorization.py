"""Matrix factorization for recommendation (the paper's MF workload).

The model learns user and item embeddings ``U`` (num_users × rank) and
``V`` (num_items × rank) so that ``U[u] · V[i]`` predicts rating ``r`` —
trained by SGD on a regularized squared error, exactly the formulation the
MovieLens workload in the paper uses.  Gradients are sparse (only rows of
users/items in the batch are touched) but returned as dense ParamSets to
match the parameter-server push interface.

The model interface is ``loss`` + ``gradient``, sharing one forward pass
(``_errors``) and nothing else.  The training loops call ``gradient``
alone, so a training step never pays for the loss or its regularization
term, which the gradient does not need.

The scatter of per-sample terms into those dense arrays is one
``np.bincount`` per array over flattened ``row * rank + column`` indices.
``bincount`` walks its input once, front to back, adding each weight to
its bin — so every gradient cell receives its contributions in sample
order starting from 0.0, the same float additions in the same order as the
unbuffered ``ufunc.at`` scatter-add it replaced (or a Python loop over the
batch), and the gradient is bit-for-bit the same at a third of the cost.
"""

from __future__ import annotations

import numpy as np

from repro.ml.models.base import Model
from repro.ml.params import ParamSet
from repro.utils.validation import check_non_negative, check_positive

__all__ = ["MatrixFactorizationModel"]


class MatrixFactorizationModel(Model):
    """Biased matrix factorization: r̂ = U[u]·V[i] + bu[u] + bi[i] + mu.

    A batch is a tuple ``(users, items, ratings)`` of equal-length arrays.
    """

    def __init__(
        self,
        num_users: int,
        num_items: int,
        rank: int = 16,
        reg: float = 0.02,
        init_scale: float = 0.1,
        global_mean: float = 0.0,
    ):
        if num_users <= 0 or num_items <= 0:
            raise ValueError("num_users and num_items must be positive")
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.rank = int(rank)
        self.reg = check_non_negative("reg", reg)
        self.init_scale = check_positive("init_scale", init_scale)
        self.global_mean = float(global_mean)

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        return ParamSet(
            {
                "user_factors": rng.normal(
                    0.0, self.init_scale, size=(self.num_users, self.rank)
                ),
                "item_factors": rng.normal(
                    0.0, self.init_scale, size=(self.num_items, self.rank)
                ),
                "user_bias": np.zeros(self.num_users),
                "item_bias": np.zeros(self.num_items),
            }
        )

    def _errors(self, params: ParamSet, batch):
        """The batch's ids, its gathered embedding rows and the prediction
        errors ``r̂ - r`` — the forward pass ``loss`` and ``gradient`` share."""
        users, items, ratings = self._unpack(batch)
        u_vecs = params["user_factors"][users]
        i_vecs = params["item_factors"][items]
        errors = (
            np.sum(u_vecs * i_vecs, axis=1)
            + params["user_bias"][users]
            + params["item_bias"][items]
            + self.global_mean
            - ratings
        )
        return users, items, u_vecs, i_vecs, errors

    def loss(self, params: ParamSet, batch) -> float:
        _, _, u_vecs, i_vecs, errors = self._errors(params, batch)
        data_loss = float(np.mean(errors**2))
        reg_loss = self.reg * float(np.mean(np.sum(u_vecs**2 + i_vecs**2, axis=1)))
        return data_loss + reg_loss

    def gradient(self, params: ParamSet, batch) -> ParamSet:
        users, items, u_vecs, i_vecs, errors = self._errors(params, batch)
        # d/dU[u] mean(err^2 + reg*(|U[u]|^2+|V[i]|^2))
        #   = (2/n) * (err * V[i] + reg * U[u]) summed over batch occurrences.
        coeff = 2.0 / len(errors)
        per_sample_u = coeff * (errors[:, None] * i_vecs + self.reg * u_vecs)
        per_sample_i = coeff * (errors[:, None] * u_vecs + self.reg * i_vecs)
        per_sample_bias = coeff * errors
        grad_u = self._scatter_rows(users, per_sample_u, self.num_users)
        grad_i = self._scatter_rows(items, per_sample_i, self.num_items)
        grad_bu = np.bincount(
            users, weights=per_sample_bias, minlength=self.num_users
        )
        grad_bi = np.bincount(
            items, weights=per_sample_bias, minlength=self.num_items
        )

        return ParamSet(
            {
                "user_factors": grad_u,
                "item_factors": grad_i,
                "user_bias": grad_bu,
                "item_bias": grad_bi,
            }
        )

    @staticmethod
    def _scatter_rows(
        rows: np.ndarray, per_sample: np.ndarray, num_rows: int
    ) -> np.ndarray:
        """Sum ``per_sample[s]`` into row ``rows[s]`` of a zero
        ``(num_rows, rank)`` array, in sample order (module docstring)."""
        rank = per_sample.shape[1]
        flat = (rows[:, None] * rank + np.arange(rank)).ravel()
        return np.bincount(
            flat, weights=per_sample.ravel(), minlength=num_rows * rank
        ).reshape(num_rows, rank)

    @staticmethod
    def _unpack(batch):
        users, items, ratings = batch
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        ratings = np.asarray(ratings, dtype=np.float64)
        if not (len(users) == len(items) == len(ratings)):
            raise ValueError("batch arrays must have equal length")
        if len(ratings) == 0:
            raise ValueError("batch must be non-empty")
        return users, items, ratings
