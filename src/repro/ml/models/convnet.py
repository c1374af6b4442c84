"""A small convolutional network, implemented from scratch on numpy.

The paper's CIFAR-10/ImageNet workloads train deep CNNs; the calibrated
presets use MLPs for speed (see DESIGN.md), but this model closes the kind
gap for users who want convolutional dynamics: conv → ReLU → global average
pooling → linear softmax, with im2col-based forward/backward passes that
pass finite-difference gradient checks.

A batch is ``(X, y)`` where ``X`` is ``(n, C*H*W)`` flat features (as the
synthetic image datasets produce) reshaped internally to ``(n, C, H, W)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.ml.models.base import Model
from repro.ml.models.softmax import cross_entropy, softmax
from repro.ml.params import ParamSet
from repro.utils.validation import check_non_negative

__all__ = ["ConvNetModel"]


def _im2col(images: np.ndarray, kernel: int) -> np.ndarray:
    """(n, C, H, W) → (n, out_h, out_w, C*kernel*kernel) patch matrix."""
    n, channels, height, width = images.shape
    out_h = height - kernel + 1
    out_w = width - kernel + 1
    # Gather patches with stride tricks-free indexing (clear over clever).
    cols = np.empty((n, out_h, out_w, channels, kernel, kernel),
                    dtype=images.dtype)
    for dy in range(kernel):
        for dx in range(kernel):
            cols[:, :, :, :, dy, dx] = images[
                :, :, dy:dy + out_h, dx:dx + out_w
            ].transpose(0, 2, 3, 1)
    return cols.reshape(n, out_h, out_w, channels * kernel * kernel)


def _col2im(grad_cols: np.ndarray, image_shape: Tuple[int, int, int, int],
            kernel: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter patch gradients back to images."""
    n, channels, height, width = image_shape
    out_h = height - kernel + 1
    out_w = width - kernel + 1
    grads = np.zeros(image_shape, dtype=grad_cols.dtype)
    cols = grad_cols.reshape(n, out_h, out_w, channels, kernel, kernel)
    for dy in range(kernel):
        for dx in range(kernel):
            grads[:, :, dy:dy + out_h, dx:dx + out_w] += cols[
                :, :, :, :, dy, dx
            ].transpose(0, 3, 1, 2)
    return grads


class ConvNetModel(Model):
    """conv(k filters, kxk) → ReLU → global average pool → softmax."""

    def __init__(
        self,
        image_shape: Tuple[int, int, int],
        num_classes: int,
        num_filters: int = 8,
        kernel: int = 3,
        reg: float = 1e-4,
    ):
        channels, height, width = image_shape
        if min(channels, height, width) <= 0:
            raise ValueError(f"invalid image shape {image_shape}")
        if kernel < 1 or kernel > min(height, width):
            raise ValueError(
                f"kernel {kernel} does not fit image {height}x{width}"
            )
        if num_classes <= 1 or num_filters <= 0:
            raise ValueError("need num_classes >= 2 and num_filters >= 1")
        self.image_shape = (int(channels), int(height), int(width))
        self.num_classes = int(num_classes)
        self.num_filters = int(num_filters)
        self.kernel = int(kernel)
        self.reg = check_non_negative("reg", reg)
        self.input_dim = channels * height * width

    def init_params(self, rng: np.random.Generator) -> ParamSet:
        channels = self.image_shape[0]
        fan_in = channels * self.kernel * self.kernel
        return ParamSet(
            {
                "conv_w": rng.normal(
                    0.0, np.sqrt(2.0 / fan_in),
                    size=(fan_in, self.num_filters),
                ),
                "conv_b": np.zeros(self.num_filters),
                "fc_w": rng.normal(
                    0.0, np.sqrt(1.0 / self.num_filters),
                    size=(self.num_filters, self.num_classes),
                ),
                "fc_b": np.zeros(self.num_classes),
            }
        )

    def _forward(self, params: ParamSet, X: np.ndarray):
        n = len(X)
        images = X.reshape((n,) + self.image_shape)
        cols = _im2col(images, self.kernel)          # (n, oh, ow, fan_in)
        pre = cols @ params["conv_w"] + params["conv_b"]  # (n, oh, ow, F)
        act = np.maximum(pre, 0.0)                   # ReLU
        pooled = act.mean(axis=(1, 2))               # global average pool
        logits = pooled @ params["fc_w"] + params["fc_b"]
        return softmax(logits), (images, cols, pre, act, pooled)

    def loss(self, params: ParamSet, batch) -> float:
        X, y = self._unpack(batch)
        probs, _ = self._forward(params, X)
        return cross_entropy(probs, y) + self._reg_loss(params)

    def gradient(self, params: ParamSet, batch) -> ParamSet:
        X, y = self._unpack(batch)
        n = len(y)
        probs, (images, cols, pre, act, pooled) = self._forward(params, X)

        delta_logits = probs.copy()
        delta_logits[np.arange(n), y] -= 1.0
        delta_logits /= n                               # (n, classes)

        grad_fc_w = pooled.T @ delta_logits + self.reg * params["fc_w"]
        grad_fc_b = delta_logits.sum(axis=0)

        delta_pooled = delta_logits @ params["fc_w"].T  # (n, F)
        out_h, out_w = act.shape[1], act.shape[2]
        # Mean-pool adjoint: each spatial position gets 1/(oh*ow) share.
        delta_act = (
            delta_pooled[:, None, None, :]
            * np.ones((1, out_h, out_w, 1))
            / (out_h * out_w)
        )
        delta_pre = delta_act * (pre > 0.0)             # ReLU adjoint
        flat_cols = cols.reshape(-1, cols.shape[-1])
        flat_delta = delta_pre.reshape(-1, self.num_filters)
        grad_conv_w = flat_cols.T @ flat_delta + self.reg * params["conv_w"]
        grad_conv_b = flat_delta.sum(axis=0)

        return ParamSet(
            {
                "conv_w": grad_conv_w,
                "conv_b": grad_conv_b,
                "fc_w": grad_fc_w,
                "fc_b": grad_fc_b,
            }
        )

    def accuracy(self, params: ParamSet, batch) -> float:
        """Fraction of correct argmax predictions on ``batch``."""
        X, y = self._unpack(batch)
        probs, _ = self._forward(params, X)
        return float(np.mean(np.argmax(probs, axis=1) == y))

    def _reg_loss(self, params: ParamSet) -> float:
        return 0.5 * self.reg * (
            float(np.sum(params["conv_w"] ** 2))
            + float(np.sum(params["fc_w"] ** 2))
        )

    def _unpack(self, batch):
        X, y = batch
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(
                f"X must be (n, {self.input_dim}) flat images, got {X.shape}"
            )
        if len(X) != len(y) or len(y) == 0:
            raise ValueError("X and y must be non-empty and equal length")
        return X, y
