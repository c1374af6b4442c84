"""Tests for the from-scratch convolutional network."""

import numpy as np
import pytest

from repro.ml.models.convnet import ConvNetModel, _col2im, _im2col
from repro.ml.models.softmax import cross_entropy
from repro.ml.params import ParamSet
from tests.test_ml_models import PAIRS, assert_matches_reference, perturbed


def rng():
    return np.random.default_rng(0)


def batch(model, n=10, seed=1):
    r = np.random.default_rng(seed)
    X = r.normal(size=(n, model.input_dim))
    y = r.integers(0, model.num_classes, size=n)
    return X, y


class TestIm2Col:
    def test_shapes(self):
        images = rng().normal(size=(2, 3, 5, 5))
        cols = _im2col(images, kernel=3)
        assert cols.shape == (2, 3, 3, 27)

    def test_patch_contents(self):
        images = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = _im2col(images, kernel=2)
        # first patch (top-left): rows [0,1], [4,5]
        np.testing.assert_allclose(cols[0, 0, 0], [0, 1, 4, 5])
        # last patch (bottom-right): [10,11,14,15]
        np.testing.assert_allclose(cols[0, 2, 2], [10, 11, 14, 15])

    def test_col2im_is_adjoint(self):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        r = rng()
        shape = (2, 3, 6, 5)
        kernel = 3
        x = r.normal(size=shape)
        cols = _im2col(x, kernel)
        y = r.normal(size=cols.shape)
        lhs = float(np.sum(cols * y))
        rhs = float(np.sum(x * _col2im(y, shape, kernel)))
        assert lhs == pytest.approx(rhs)


def reference_loss_and_grad(self, params, batch):
    """The combined body the model had before ``gradient`` was split from
    ``loss``; the gradient and loss must stay bit-for-bit this."""
    X, y = self._unpack(batch)
    n = len(y)
    probs, (images, cols, pre, act, pooled) = self._forward(params, X)
    loss = cross_entropy(probs, y) + self._reg_loss(params)

    delta_logits = probs.copy()
    delta_logits[np.arange(n), y] -= 1.0
    delta_logits /= n

    grad_fc_w = pooled.T @ delta_logits + self.reg * params["fc_w"]
    grad_fc_b = delta_logits.sum(axis=0)

    delta_pooled = delta_logits @ params["fc_w"].T
    out_h, out_w = act.shape[1], act.shape[2]
    delta_act = (
        delta_pooled[:, None, None, :]
        * np.ones((1, out_h, out_w, 1))
        / (out_h * out_w)
    )
    delta_pre = delta_act * (pre > 0.0)
    flat_cols = cols.reshape(-1, cols.shape[-1])
    flat_delta = delta_pre.reshape(-1, self.num_filters)
    grad_conv_w = flat_cols.T @ flat_delta + self.reg * params["conv_w"]
    grad_conv_b = flat_delta.sum(axis=0)

    grad = ParamSet(
        {
            "conv_w": grad_conv_w,
            "conv_b": grad_conv_b,
            "fc_w": grad_fc_w,
            "fc_b": grad_fc_b,
        }
    )
    return loss, grad


class TestConvNet:
    def make(self, **kwargs):
        defaults = dict(image_shape=(2, 6, 6), num_classes=3,
                        num_filters=4, kernel=3, reg=1e-3)
        defaults.update(kwargs)
        return ConvNetModel(**defaults)

    def test_param_shapes(self):
        model = self.make()
        params = model.init_params(rng())
        assert params["conv_w"].shape == (2 * 9, 4)
        assert params["conv_b"].shape == (4,)
        assert params["fc_w"].shape == (4, 3)
        assert params["fc_b"].shape == (3,)

    def test_gradient_matches_finite_differences(self):
        model = self.make(reg=0.0)
        params = model.init_params(rng())
        assert model.check_gradient(params, batch(model), sample_size=40) < 1e-4

    def test_gradient_with_regularization(self):
        model = self.make(reg=1e-2)
        params = model.init_params(rng())
        assert model.check_gradient(params, batch(model), sample_size=30) < 1e-4

    def test_gradient_bit_identical_to_reference(self):
        for seed in range(PAIRS):
            r = np.random.default_rng(seed)
            model = self.make(num_filters=2 + seed % 3, kernel=2 + seed % 2,
                              reg=(0.0, 1e-2)[seed // 2 % 2])
            params = perturbed(model.init_params(r), r)
            assert_matches_reference(model, params, batch(model, n=3 + seed % 7, seed=seed),
                                     reference_loss_and_grad, 1e-4)

    def test_loss_decreases_under_gd(self):
        model = self.make()
        params = model.init_params(rng())
        X, y = batch(model, n=60, seed=3)
        first = model.loss(params, (X, y))
        for _ in range(120):
            _, grad = model.loss_and_grad(params, (X, y))
            params.add_scaled(grad, -0.5)
        assert model.loss(params, (X, y)) < first

    def test_trains_on_synthetic_images(self):
        from repro.ml import SyntheticImageDataset

        model = self.make(image_shape=(1, 5, 5), num_classes=3, kernel=3)
        dataset = SyntheticImageDataset(
            num_classes=3, feature_dim=25, num_samples=800,
            class_separation=3.5, warp=False, seed=2,
        )
        params = model.init_params(rng())
        r = np.random.default_rng(0)
        X, y = dataset.gather(np.arange(dataset.num_samples))
        first = model.loss(params, dataset.eval_batch())
        for _ in range(250):
            idx = r.integers(0, len(X), size=64)
            _, grad = model.loss_and_grad(params, (X[idx], y[idx]))
            params.add_scaled(grad, -0.3)
        final = model.loss(params, dataset.eval_batch())
        assert final < first * 0.75
        assert model.accuracy(params, dataset.eval_batch()) > 0.5

    def test_accuracy_bounds(self):
        model = self.make()
        params = model.init_params(rng())
        acc = model.accuracy(params, batch(model))
        assert 0.0 <= acc <= 1.0

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            self.make(image_shape=(0, 4, 4))
        with pytest.raises(ValueError):
            self.make(kernel=9)  # larger than the 6x6 image
        with pytest.raises(ValueError):
            self.make(num_classes=1)

    def test_bad_batch_rejected(self):
        model = self.make()
        params = model.init_params(rng())
        with pytest.raises(ValueError):
            model.loss(params, (np.zeros((4, 10)), np.zeros(4, dtype=int)))

    def test_runs_in_training_engine(self):
        """End-to-end: the conv net plugs into the simulated cluster."""
        from repro import AspPolicy, ClusterSpec, ConvergenceCriterion
        from repro.cluster.compute import ComputeTimeModel
        from repro.ml import SyntheticImageDataset
        from repro.ml.optim import ConstantSchedule, SgdUpdateRule
        from repro.workloads import Workload

        workload = Workload(
            name="convnet-test",
            model_factory=lambda: ConvNetModel(
                image_shape=(1, 5, 5), num_classes=3, num_filters=4, kernel=3
            ),
            dataset_factory=lambda s: SyntheticImageDataset(
                num_classes=3, feature_dim=25, num_samples=600,
                class_separation=3.5, warp=False, seed=2,
            ),
            update_rule_factory=lambda: SgdUpdateRule(ConstantSchedule(0.3)),
            batch_size=24,
            base_compute=ComputeTimeModel(mean_time_s=1.0, jitter_sigma=0.1),
            param_wire_bytes=1e5,
            convergence=ConvergenceCriterion(0.6, 3),
            default_horizon_s=40.0,
            eval_interval_s=4.0,
        )
        result = workload.run(ClusterSpec.homogeneous(3), AspPolicy(), seed=0)
        assert result.final_loss < result.curve[0].loss
