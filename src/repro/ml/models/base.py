"""The model interface every workload implements."""

from __future__ import annotations

import abc
from typing import Any, Optional, Tuple

import numpy as np

from repro.ml.params import ParamSet

__all__ = ["Model", "Batch"]

#: A training batch is model-specific opaque data (e.g. (X, y) arrays for
#: classification, (users, items, ratings) triples for MF).
Batch = Any


class Model(abc.ABC):
    """A differentiable model: parameters, loss, and gradient.

    The interface is two pure functions of ``(params, batch)``: ``loss``,
    read at evaluation points, and ``gradient``, the one call a training
    iteration makes (every training loop — the simulator, threads and
    processes — calls ``gradient`` and nothing else).  Neither computes
    the other, so each formula is written once.

    Implementations must keep no hidden state, so the same gradient call
    can be replayed on any parameter snapshot.  That purity is what lets
    the simulator evaluate a worker's gradient on exactly the (possibly
    stale) snapshot it pulled.
    """

    @abc.abstractmethod
    def init_params(self, rng: np.random.Generator) -> ParamSet:
        """Fresh model parameters."""

    @abc.abstractmethod
    def loss(self, params: ParamSet, batch: Batch) -> float:
        """Mean loss of ``params`` on ``batch``."""

    @abc.abstractmethod
    def gradient(self, params: ParamSet, batch: Batch) -> ParamSet:
        """Gradient of the mean loss with respect to every parameter."""

    def loss_and_grad(self, params: ParamSet, batch: Batch) -> Tuple[float, ParamSet]:
        """Mean loss and its gradient, for tests and gradient checks."""
        return self.loss(params, batch), self.gradient(params, batch)

    def check_gradient(
        self,
        params: ParamSet,
        batch: Batch,
        epsilon: float = 1e-6,
        sample_size: int = 24,
        rng: Optional[np.random.Generator] = None,
        rtol: float = 1e-4,
    ) -> float:
        """Finite-difference check; returns the max relative error over a
        random sample of coordinates.  Test helper — not used in training.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        grad = self.gradient(params, batch)
        vector = params.to_vector()
        # Align the gradient to the *parameter* key order — implementations
        # may build their gradient dict in backward (reverse-layer) order.
        grad_vector = np.concatenate([grad[key].ravel() for key in params.keys()])
        indices = rng.choice(vector.size, size=min(sample_size, vector.size), replace=False)
        worst = 0.0
        for idx in indices:
            bumped = vector.copy()
            bumped[idx] += epsilon
            loss_plus = self.loss(params.from_vector(bumped), batch)
            bumped[idx] -= 2 * epsilon
            loss_minus = self.loss(params.from_vector(bumped), batch)
            numeric = (loss_plus - loss_minus) / (2 * epsilon)
            denom = max(abs(numeric), abs(grad_vector[idx]), 1e-8)
            worst = max(worst, abs(numeric - grad_vector[idx]) / denom)
        return worst
