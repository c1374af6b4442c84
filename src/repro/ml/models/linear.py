"""Linear regression — the minimal model, used mainly by tests.

Its closed-form optimum makes convergence assertions exact: the test suite
trains it through every synchronization scheme and checks the learned
weights approach the least-squares solution.
"""

from __future__ import annotations

import numpy as np

from repro.ml.models.base import Model
from repro.ml.params import ParamSet
from repro.utils.validation import check_non_negative

__all__ = ["LinearRegressionModel"]


class LinearRegressionModel(Model):
    """Ridge-regularized linear regression with squared-error loss.

    A batch is ``(X, y)`` with real-valued targets ``y``.
    """

    def __init__(self, input_dim: int, reg: float = 0.0):
        if input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {input_dim}")
        self.input_dim = int(input_dim)
        self.reg = check_non_negative("reg", reg)

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        return ParamSet(
            {
                "weights": rng.normal(0.0, 0.01, size=self.input_dim),
                "bias": np.zeros(1),
            }
        )

    def _errors(self, params: ParamSet, batch):
        X, y = self._unpack(batch)
        return X, X @ params["weights"] + params["bias"][0] - y

    def loss(self, params: ParamSet, batch) -> float:
        _, errors = self._errors(params, batch)
        return float(np.mean(errors**2)) + 0.5 * self.reg * float(
            np.sum(params["weights"] ** 2)
        )

    def gradient(self, params: ParamSet, batch) -> ParamSet:
        X, errors = self._errors(params, batch)
        n = len(errors)
        return ParamSet(
            {
                "weights": (2.0 / n) * (X.T @ errors) + self.reg * params["weights"],
                "bias": np.array([(2.0 / n) * float(errors.sum())]),
            }
        )

    def solve_exact(self, X: np.ndarray, y: np.ndarray) -> ParamSet:
        """Closed-form ridge solution (with intercept), for test oracles."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        ones = np.ones((len(X), 1))
        design = np.hstack([X, ones])
        penalty = self.reg * len(X) / 2.0 * np.eye(self.input_dim + 1)
        penalty[-1, -1] = 0.0  # do not regularize the intercept
        solution = np.linalg.solve(design.T @ design + penalty, design.T @ y)
        return ParamSet({"weights": solution[:-1], "bias": solution[-1:]})

    def _unpack(self, batch):
        X, y = batch
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"X must be (n, {self.input_dim}), got {X.shape}")
        if len(X) != len(y) or len(y) == 0:
            raise ValueError("X and y must be non-empty and equal length")
        return X, y
