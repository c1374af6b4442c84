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

The forward pass gathers the batch's rows with ``take`` and accumulates
the errors in place in the formula's order (``+ bu``, ``+ bi``, ``+ mu``,
``− r``); the gradient builds its per-sample terms with the same float
operations as the written formula, in place over the gathered rows and
two new buffers.  The row dot product stays ``np.sum(u * i, axis=1)``:
its pairwise summation order is part of every pinned digest, and
``einsum`` adds in another order.

The scatter of per-sample terms into those dense arrays is one
``np.bincount`` per array over flattened ``row * rank + column`` indices,
gathered with ``take`` from a per-model table of every cell's flat index.
``bincount`` walks its input once, front to back, adding each weight to
its bin — so every gradient cell receives its contributions in sample
order starting from 0.0, the same float additions in the same order as a
Python loop over the batch (or the unbuffered ``ufunc.at`` scatter-add it
replaced), and the gradient is bit-for-bit the same at a fraction of the
cost.
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
        # Flat bincount index of every (row, column) cell of U and V.
        self._user_cells = np.arange(self.num_users * self.rank).reshape(
            self.num_users, self.rank
        )
        self._item_cells = np.arange(self.num_items * self.rank).reshape(
            self.num_items, self.rank
        )

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
        errors ``r̂ - r`` — the forward pass ``loss`` and ``gradient`` share.
        The gathered rows and the errors are fresh arrays the caller owns."""
        users, items, ratings = self._unpack(batch)
        u_vecs = params["user_factors"].take(users, axis=0)
        i_vecs = params["item_factors"].take(items, axis=0)
        errors = np.sum(u_vecs * i_vecs, axis=1)
        errors += params["user_bias"].take(users)
        errors += params["item_bias"].take(items)
        errors += self.global_mean
        errors -= ratings
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
        # The terms are coeff * (err * V[i] + reg * U[u]) and
        # coeff * (err * U[u] + reg * V[i]), op for op, built in place
        # over two new buffers and the gathered rows.
        coeff = 2.0 / len(errors)
        column = errors[:, None]
        per_sample_u = column * i_vecs
        per_sample_u += self.reg * u_vecs
        per_sample_u *= coeff
        per_sample_i = np.multiply(column, u_vecs, out=u_vecs)
        per_sample_i += np.multiply(self.reg, i_vecs, out=i_vecs)
        per_sample_i *= coeff
        per_sample_bias = np.multiply(coeff, errors, out=errors)
        num_u, num_i, rank = self.num_users, self.num_items, self.rank
        grad_u = np.bincount(
            self._user_cells.take(users, axis=0).ravel(),
            weights=per_sample_u.ravel(), minlength=num_u * rank,
        ).reshape(num_u, rank)
        grad_i = np.bincount(
            self._item_cells.take(items, axis=0).ravel(),
            weights=per_sample_i.ravel(), minlength=num_i * rank,
        ).reshape(num_i, rank)
        grad_bu = np.bincount(users, weights=per_sample_bias, minlength=num_u)
        grad_bi = np.bincount(items, weights=per_sample_bias, minlength=num_i)

        return ParamSet(
            {
                "user_factors": grad_u,
                "item_factors": grad_i,
                "user_bias": grad_bu,
                "item_bias": grad_bi,
            }
        )

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
