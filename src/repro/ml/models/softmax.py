"""Multinomial logistic (softmax) regression.

The simplest convex classification model; used as a fast stand-in workload
and as the reference model in correctness tests (convexity means every sync
scheme must converge to the same optimum, which several integration tests
assert).
"""

from __future__ import annotations

import numpy as np

from repro.ml.models.base import Model
from repro.ml.params import ParamSet
from repro.utils.validation import check_non_negative

__all__ = ["SoftmaxRegressionModel", "softmax", "cross_entropy"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the max-subtraction trick for stability."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer ``labels`` under ``probs``."""
    n = len(labels)
    picked = probs[np.arange(n), labels]
    return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))


class SoftmaxRegressionModel(Model):
    """Linear classifier with softmax cross-entropy loss.

    A batch is ``(X, y)`` with ``X`` of shape (n, input_dim) and integer
    labels ``y`` in [0, num_classes).
    """

    def __init__(self, input_dim: int, num_classes: int, reg: float = 1e-4):
        if input_dim <= 0 or num_classes <= 1:
            raise ValueError("need input_dim >= 1 and num_classes >= 2")
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)
        self.reg = check_non_negative("reg", reg)

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        scale = 1.0 / np.sqrt(self.input_dim)
        return ParamSet(
            {
                "weights": rng.normal(0.0, scale, size=(self.input_dim, self.num_classes)),
                "bias": np.zeros(self.num_classes),
            }
        )

    def _forward(self, params: ParamSet, batch):
        X, y = self._unpack(batch)
        return X, y, softmax(X @ params["weights"] + params["bias"])

    def loss(self, params: ParamSet, batch) -> float:
        _, y, probs = self._forward(params, batch)
        reg_loss = 0.5 * self.reg * float(np.sum(params["weights"] ** 2))
        return cross_entropy(probs, y) + reg_loss

    def gradient(self, params: ParamSet, batch) -> ParamSet:
        X, y, probs = self._forward(params, batch)
        n = len(y)
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n
        return ParamSet(
            {
                "weights": X.T @ delta + self.reg * params["weights"],
                "bias": delta.sum(axis=0),
            }
        )

    def accuracy(self, params: ParamSet, batch) -> float:
        """Fraction of correct argmax predictions on ``batch``."""
        X, y = self._unpack(batch)
        preds = np.argmax(X @ params["weights"] + params["bias"], axis=1)
        return float(np.mean(preds == y))

    def _unpack(self, batch):
        X, y = batch
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"X must be (n, {self.input_dim}), got {X.shape}")
        if len(X) != len(y) or len(y) == 0:
            raise ValueError("X and y must be non-empty and equal length")
        return X, y
