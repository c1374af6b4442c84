"""A multi-layer perceptron with tanh activations.

The non-convex stand-in for the paper's deep residual networks (CIFAR-10
ResNet-110, ImageNet ResNet-18).  What the synchronization experiments need
from the model is (a) SGD-trainable non-convex dynamics where stale
gradients measurably slow convergence, and (b) a configurable size so the
CIFAR-class and ImageNet-class workloads differ the way Table I says they
do; an MLP provides both at simulation-friendly cost.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.ml.models.base import Model
from repro.ml.models.softmax import cross_entropy, softmax
from repro.ml.params import ParamSet
from repro.utils.validation import check_non_negative

__all__ = ["MLPModel"]


class MLPModel(Model):
    """Fully-connected net: input → tanh hidden layers → softmax output.

    A batch is ``(X, y)`` like :class:`SoftmaxRegressionModel`.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dims: Sequence[int],
        num_classes: int,
        reg: float = 1e-4,
    ):
        if input_dim <= 0 or num_classes <= 1:
            raise ValueError("need input_dim >= 1 and num_classes >= 2")
        hidden_dims = [int(h) for h in hidden_dims]
        if not hidden_dims or any(h <= 0 for h in hidden_dims):
            raise ValueError(f"hidden_dims must be non-empty positive ints, got {hidden_dims}")
        self.input_dim = int(input_dim)
        self.hidden_dims = hidden_dims
        self.num_classes = int(num_classes)
        self.reg = check_non_negative("reg", reg)
        self._layer_dims = [self.input_dim] + hidden_dims + [self.num_classes]

    @property
    def num_layers(self) -> int:
        """Number of weight matrices (hidden layers + output layer)."""
        return len(self._layer_dims) - 1

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        arrays = {}
        for layer in range(self.num_layers):
            fan_in = self._layer_dims[layer]
            fan_out = self._layer_dims[layer + 1]
            # Xavier/Glorot initialization, standard for tanh nets.
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            arrays[f"w{layer}"] = rng.normal(0.0, scale, size=(fan_in, fan_out))
            arrays[f"b{layer}"] = np.zeros(fan_out)
        return ParamSet(arrays)

    def _forward(self, params: ParamSet, X: np.ndarray):
        """Forward pass; returns (softmax probs, list of layer activations)."""
        activations: List[np.ndarray] = [X]
        h = X
        for layer in range(self.num_layers - 1):
            h = np.tanh(h @ params[f"w{layer}"] + params[f"b{layer}"])
            activations.append(h)
        logits = h @ params[f"w{self.num_layers - 1}"] + params[f"b{self.num_layers - 1}"]
        return softmax(logits), activations

    def loss(self, params: ParamSet, batch) -> float:
        X, y = self._unpack(batch)
        probs, _ = self._forward(params, X)
        return cross_entropy(probs, y) + self._reg_loss(params)

    def gradient(self, params: ParamSet, batch) -> ParamSet:
        X, y = self._unpack(batch)
        n = len(y)
        probs, activations = self._forward(params, X)

        # Built last layer first: ParamSet.norm() sums in key order, so the
        # clip scale depends on it.
        grads = {}
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n
        for layer in range(self.num_layers - 1, -1, -1):
            a_prev = activations[layer]
            grads[f"w{layer}"] = a_prev.T @ delta + self.reg * params[f"w{layer}"]
            grads[f"b{layer}"] = delta.sum(axis=0)
            if layer > 0:
                # Backprop through tanh: d tanh(z) = 1 - tanh(z)^2, and
                # activations[layer] already holds tanh(z).
                delta = (delta @ params[f"w{layer}"].T) * (1.0 - a_prev**2)
        return ParamSet(grads)

    def accuracy(self, params: ParamSet, batch) -> float:
        """Fraction of correct argmax predictions on ``batch``."""
        X, y = self._unpack(batch)
        probs, _ = self._forward(params, X)
        return float(np.mean(np.argmax(probs, axis=1) == y))

    def _reg_loss(self, params: ParamSet) -> float:
        total = 0.0
        for layer in range(self.num_layers):
            total += float(np.sum(params[f"w{layer}"] ** 2))
        return 0.5 * self.reg * total

    def _unpack(self, batch):
        X, y = batch
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"X must be (n, {self.input_dim}), got {X.shape}")
        if len(X) != len(y) or len(y) == 0:
            raise ValueError("X and y must be non-empty and equal length")
        return X, y
