"""Tests for the numerical models: gradient correctness and training sanity."""

import numpy as np
import pytest

from repro.ml import (
    LinearRegressionModel,
    MatrixFactorizationModel,
    MLPModel,
    SoftmaxRegressionModel,
)
from repro.ml.models.softmax import cross_entropy, softmax
from repro.ml.params import ParamSet


def rng():
    return np.random.default_rng(0)


def classification_batch(n=40, dim=6, classes=3, seed=0):
    r = np.random.default_rng(seed)
    X = r.normal(size=(n, dim))
    y = r.integers(0, classes, size=n)
    return X, y


class TestSoftmaxHelpers:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(rng().normal(size=(7, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(7))

    def test_softmax_stability_large_logits(self):
        probs = softmax(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
        assert np.all(np.isfinite(probs))
        assert probs[0, 0] == pytest.approx(1.0)

    def test_cross_entropy_perfect_prediction(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert cross_entropy(probs, np.array([0, 1])) == pytest.approx(0.0, abs=1e-9)

    def test_cross_entropy_uniform(self):
        probs = np.full((5, 4), 0.25)
        assert cross_entropy(probs, np.zeros(5, dtype=int)) == pytest.approx(
            np.log(4)
        )


class TestSoftmaxRegression:
    def test_gradient_matches_finite_differences(self):
        model = SoftmaxRegressionModel(input_dim=6, num_classes=3, reg=1e-3)
        params = model.init_params(rng())
        batch = classification_batch()
        assert model.check_gradient(params, batch) < 1e-5

    def test_loss_decreases_under_gd(self):
        model = SoftmaxRegressionModel(input_dim=6, num_classes=3)
        params = model.init_params(rng())
        X, y = classification_batch(n=200)
        first = model.loss(params, (X, y))
        for _ in range(50):
            _, grad = model.loss_and_grad(params, (X, y))
            params.add_scaled(grad, -0.5)
        assert model.loss(params, (X, y)) < first

    def test_accuracy_bounds(self):
        model = SoftmaxRegressionModel(input_dim=6, num_classes=3)
        params = model.init_params(rng())
        acc = model.accuracy(params, classification_batch())
        assert 0.0 <= acc <= 1.0

    def test_bad_shapes_rejected(self):
        model = SoftmaxRegressionModel(input_dim=6, num_classes=3)
        params = model.init_params(rng())
        with pytest.raises(ValueError):
            model.loss(params, (np.zeros((4, 5)), np.zeros(4, dtype=int)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SoftmaxRegressionModel(input_dim=0, num_classes=3)
        with pytest.raises(ValueError):
            SoftmaxRegressionModel(input_dim=5, num_classes=1)


class TestMLP:
    def test_param_shapes(self):
        model = MLPModel(input_dim=6, hidden_dims=[8, 4], num_classes=3)
        params = model.init_params(rng())
        assert params["w0"].shape == (6, 8)
        assert params["w1"].shape == (8, 4)
        assert params["w2"].shape == (4, 3)
        assert params["b2"].shape == (3,)

    def test_gradient_matches_finite_differences(self):
        model = MLPModel(input_dim=5, hidden_dims=[7], num_classes=3, reg=1e-3)
        params = model.init_params(rng())
        batch = classification_batch(dim=5)
        assert model.check_gradient(params, batch, sample_size=40) < 1e-4

    def test_two_hidden_layer_gradient(self):
        model = MLPModel(input_dim=4, hidden_dims=[6, 5], num_classes=3, reg=0.0)
        params = model.init_params(rng())
        batch = classification_batch(dim=4)
        assert model.check_gradient(params, batch, sample_size=40) < 1e-4

    def test_loss_decreases_under_gd(self):
        model = MLPModel(input_dim=6, hidden_dims=[16], num_classes=3)
        params = model.init_params(rng())
        X, y = classification_batch(n=200)
        first = model.loss(params, (X, y))
        for _ in range(80):
            _, grad = model.loss_and_grad(params, (X, y))
            params.add_scaled(grad, -0.5)
        assert model.loss(params, (X, y)) < first * 0.9

    def test_empty_hidden_rejected(self):
        with pytest.raises(ValueError):
            MLPModel(input_dim=4, hidden_dims=[], num_classes=3)

    def test_negative_hidden_rejected(self):
        with pytest.raises(ValueError):
            MLPModel(input_dim=4, hidden_dims=[8, -1], num_classes=3)


class TestMatrixFactorization:
    def make(self):
        return MatrixFactorizationModel(
            num_users=12, num_items=9, rank=4, reg=0.05, global_mean=3.0
        )

    def make_batch(self, n=30, seed=0):
        r = np.random.default_rng(seed)
        return (
            r.integers(0, 12, size=n),
            r.integers(0, 9, size=n),
            r.uniform(1, 5, size=n),
        )

    def test_param_shapes(self):
        params = self.make().init_params(rng())
        assert params["user_factors"].shape == (12, 4)
        assert params["item_factors"].shape == (9, 4)
        assert params["user_bias"].shape == (12,)
        assert params["item_bias"].shape == (9,)

    def test_gradient_matches_finite_differences(self):
        model = self.make()
        params = model.init_params(rng())
        batch = self.make_batch()
        assert model.check_gradient(params, batch, sample_size=40) < 1e-4

    def test_gradient_sparse_rows_zero(self):
        model = self.make()
        params = model.init_params(rng())
        users = np.array([0, 1])
        items = np.array([2, 3])
        ratings = np.array([4.0, 2.0])
        _, grad = model.loss_and_grad(params, (users, items, ratings))
        # untouched user/item rows have zero gradient
        assert np.all(grad["user_factors"][5] == 0.0)
        assert np.all(grad["item_factors"][7] == 0.0)
        assert np.any(grad["user_factors"][0] != 0.0)

    def test_repeated_index_accumulates(self):
        model = self.make()
        params = model.init_params(rng())
        users = np.array([0, 0])
        items = np.array([1, 1])
        ratings = np.array([5.0, 5.0])
        _, grad_twice = model.loss_and_grad(params, (users, items, ratings))
        _, grad_once = model.loss_and_grad(
            params, (users[:1], items[:1], ratings[:1])
        )
        # Duplicated sample, same mean loss: same gradient.
        assert grad_twice.allclose(grad_once, atol=1e-10)

    @staticmethod
    def add_at_gradient(model, params, batch):
        """The gradient as a per-sample ``np.add.at`` scatter — the form
        gradient had before ``np.bincount``; kept as the reference."""
        users, items, ratings = (np.asarray(a) for a in batch)
        u_vecs = params["user_factors"][users]
        i_vecs = params["item_factors"][items]
        errors = (
            np.sum(u_vecs * i_vecs, axis=1) + params["user_bias"][users]
            + params["item_bias"][items] + model.global_mean - ratings
        )
        coeff = 2.0 / len(ratings)
        grad = params.zeros_like()
        np.add.at(grad["user_factors"], users,
                  coeff * (errors[:, None] * i_vecs + model.reg * u_vecs))
        np.add.at(grad["item_factors"], items,
                  coeff * (errors[:, None] * u_vecs + model.reg * i_vecs))
        np.add.at(grad["user_bias"], users, coeff * errors)
        np.add.at(grad["item_bias"], items, coeff * errors)
        return grad

    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_bit_identical_to_add_at_scatter(self, seed):
        """Repeated users/items make accumulation order visible in the
        last bit; the bincount scatter must keep add.at's order."""
        model = self.make()
        params = model.init_params(np.random.default_rng(seed))
        batch = self.make_batch(n=200, seed=seed)  # 200 samples, 12 users
        loss, grad = model.loss_and_grad(params, batch)
        reference = self.add_at_gradient(model, params, batch)
        for key in params.keys():
            assert np.array_equal(grad[key], reference[key]), key
            assert grad[key].shape == params[key].shape
            assert grad[key].dtype == np.float64
        assert loss == model.loss(params, batch)

    def test_out_of_range_ids_rejected(self):
        model = self.make()
        params = model.init_params(rng())
        ratings = np.array([3.0])
        for users, items in (([12], [0]), ([0], [9]), ([-13], [0]), ([0], [-1])):
            with pytest.raises((IndexError, ValueError)):
                model.loss_and_grad(
                    params, (np.array(users), np.array(items), ratings)
                )

    def test_loss_decreases_under_gd(self):
        model = self.make()
        params = model.init_params(rng())
        batch = self.make_batch(n=60)
        first = model.loss(params, batch)
        for _ in range(100):
            _, grad = model.loss_and_grad(params, batch)
            params.add_scaled(grad, -0.1)
        assert model.loss(params, batch) < first

    def test_mismatched_lengths_rejected(self):
        model = self.make()
        params = model.init_params(rng())
        with pytest.raises(ValueError):
            model.loss(params, (np.array([0]), np.array([1, 2]), np.array([3.0])))

    def test_empty_batch_rejected(self):
        model = self.make()
        params = model.init_params(rng())
        with pytest.raises(ValueError):
            model.loss(params, (np.array([]), np.array([]), np.array([])))


# ----------------------------------------------------------------------
# Bit identity with the combined loss_and_grad each model used to have.
#
# Training calls ``gradient`` alone; each model once computed its loss and
# gradient in one ``loss_and_grad``.  Those bodies are kept below as the
# references: the gradient must be bit-for-bit theirs, in the same key
# order (ParamSet.norm() sums per key in insertion order, and a clipped
# update scales by it), and the loss ``loss_and_grad`` now assembles from
# ``loss`` must equal theirs exactly.
# ----------------------------------------------------------------------
PAIRS = 50


def reference_softmax_loss_and_grad(self, params, batch):
    X, y = self._unpack(batch)
    n = len(y)
    probs = softmax(X @ params["weights"] + params["bias"])
    loss = cross_entropy(probs, y) + 0.5 * self.reg * float(
        np.sum(params["weights"] ** 2)
    )
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grad = ParamSet(
        {
            "weights": X.T @ delta + self.reg * params["weights"],
            "bias": delta.sum(axis=0),
        }
    )
    return loss, grad


def reference_mlp_loss_and_grad(self, params, batch):
    X, y = self._unpack(batch)
    n = len(y)
    probs, activations = self._forward(params, X)
    loss = cross_entropy(probs, y) + self._reg_loss(params)

    grads = {}
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    for layer in range(self.num_layers - 1, -1, -1):
        a_prev = activations[layer]
        grads[f"w{layer}"] = a_prev.T @ delta + self.reg * params[f"w{layer}"]
        grads[f"b{layer}"] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params[f"w{layer}"].T) * (1.0 - a_prev**2)
    return loss, ParamSet(grads)


def sequential_scatter_rows(rows, per_sample, num_rows):
    """Row ``rows[s]`` += ``per_sample[s]`` for each sample in order, from
    zeros: the accumulation order the MF module docstring promises."""
    out = np.zeros((num_rows, per_sample.shape[1]))
    for row, term in zip(rows.tolist(), per_sample):
        out[row] += term
    return out


def reference_mf_loss_and_grad(self, params, batch):
    users, items, ratings = self._unpack(batch)
    n = len(ratings)
    u_vecs = params["user_factors"][users]
    i_vecs = params["item_factors"][items]
    errors = (
        np.sum(u_vecs * i_vecs, axis=1)
        + params["user_bias"][users]
        + params["item_bias"][items]
        + self.global_mean
        - ratings
    )
    data_loss = float(np.mean(errors**2))
    reg_loss = self.reg * float(np.mean(np.sum(u_vecs**2 + i_vecs**2, axis=1)))

    coeff = 2.0 / n
    per_sample_u = coeff * (errors[:, None] * i_vecs + self.reg * u_vecs)
    per_sample_i = coeff * (errors[:, None] * u_vecs + self.reg * i_vecs)
    per_sample_bias = coeff * errors
    grad_u = sequential_scatter_rows(users, per_sample_u, self.num_users)
    grad_i = sequential_scatter_rows(items, per_sample_i, self.num_items)
    grad_bu = np.bincount(users, weights=per_sample_bias, minlength=self.num_users)
    grad_bi = np.bincount(items, weights=per_sample_bias, minlength=self.num_items)

    grad = ParamSet(
        {
            "user_factors": grad_u,
            "item_factors": grad_i,
            "user_bias": grad_bu,
            "item_bias": grad_bi,
        }
    )
    return data_loss + reg_loss, grad


def reference_linear_loss_and_grad(self, params, batch):
    X, y = self._unpack(batch)
    n = len(y)
    errors = X @ params["weights"] + params["bias"][0] - y
    loss = float(np.mean(errors**2)) + 0.5 * self.reg * float(
        np.sum(params["weights"] ** 2)
    )
    grad = ParamSet(
        {
            "weights": (2.0 / n) * (X.T @ errors) + self.reg * params["weights"],
            "bias": np.array([(2.0 / n) * float(errors.sum())]),
        }
    )
    return loss, grad


def assert_matches_reference(model, params, batch, reference, max_error):
    """The three checks every (params, batch) pair must pass."""
    ref_loss, ref_grad = reference(model, params, batch)
    grad = model.gradient(params, batch)
    assert list(grad.keys()) == list(ref_grad.keys())
    for key in ref_grad.keys():
        assert np.array_equal(grad[key], ref_grad[key]), key
    assert model.loss_and_grad(params, batch)[0] == ref_loss
    assert model.check_gradient(params, batch, sample_size=12) < max_error


def perturbed(params, r):
    """``params`` with every array (biases too) moved off its init value."""
    for key in params.keys():
        params[key][...] += r.normal(0.0, 0.3, size=params[key].shape)
    return params


class TestGradientBitIdentity:
    def test_softmax(self):
        for seed in range(PAIRS):
            r = np.random.default_rng(seed)
            model = SoftmaxRegressionModel(input_dim=6, num_classes=3 + seed % 3,
                                           reg=(0.0, 1e-3)[seed % 2])
            params = perturbed(model.init_params(r), r)
            batch = classification_batch(n=5 + seed, classes=model.num_classes, seed=seed)
            assert_matches_reference(model, params, batch,
                                     reference_softmax_loss_and_grad, 1e-4)

    def test_mlp_one_and_two_hidden_layers(self):
        for seed in range(PAIRS):
            r = np.random.default_rng(seed)
            model = MLPModel(input_dim=5, hidden_dims=([7], [6, 5])[seed % 2],
                             num_classes=3, reg=(0.0, 1e-3)[seed // 2 % 2])
            params = perturbed(model.init_params(r), r)
            batch = classification_batch(n=8 + seed, dim=5, seed=seed)
            assert_matches_reference(model, params, batch,
                                     reference_mlp_loss_and_grad, 1e-4)

    @pytest.mark.parametrize("distinct", [False, True], ids=["repeated", "distinct"])
    def test_matrix_factorization(self, distinct):
        for seed in range(PAIRS):
            r = np.random.default_rng(seed)
            num_users, num_items = (60, 50) if distinct else (12, 9)
            model = MatrixFactorizationModel(num_users=num_users, num_items=num_items,
                                             rank=4, reg=0.05, global_mean=3.0)
            params = perturbed(model.init_params(r), r)
            n = 10 + seed % 30
            if distinct:
                users = r.permutation(num_users)[:n]
                items = r.permutation(num_items)[:n]
            else:
                users = r.integers(0, num_users, size=n)
                items = r.integers(0, num_items, size=n)
            batch = (users, items, r.uniform(1, 5, size=n))
            assert_matches_reference(model, params, batch,
                                     reference_mf_loss_and_grad, 1e-4)

    def test_linear(self):
        for seed in range(PAIRS):
            r = np.random.default_rng(seed)
            model = LinearRegressionModel(input_dim=5, reg=(0.0, 0.01)[seed % 2])
            params = perturbed(model.init_params(r), r)
            n = 4 + seed
            batch = (r.normal(size=(n, 5)), r.normal(size=n))
            assert_matches_reference(model, params, batch,
                                     reference_linear_loss_and_grad, 1e-6)


class TestLinearRegression:
    def test_gradient_matches_finite_differences(self):
        model = LinearRegressionModel(input_dim=5, reg=0.01)
        params = model.init_params(rng())
        r = np.random.default_rng(1)
        batch = (r.normal(size=(30, 5)), r.normal(size=30))
        assert model.check_gradient(params, batch) < 1e-6

    def test_sgd_approaches_exact_solution(self):
        r = np.random.default_rng(2)
        X = r.normal(size=(400, 3))
        true_w = np.array([1.5, -2.0, 0.5])
        y = X @ true_w + 0.7
        model = LinearRegressionModel(input_dim=3, reg=0.0)
        params = model.init_params(rng())
        for _ in range(600):
            idx = r.integers(0, len(X), size=32)
            _, grad = model.loss_and_grad(params, (X[idx], y[idx]))
            params.add_scaled(grad, -0.05)
        exact = model.solve_exact(X, y)
        np.testing.assert_allclose(params["weights"], exact["weights"], atol=0.05)
        np.testing.assert_allclose(params["bias"], exact["bias"], atol=0.05)

    def test_solve_exact_recovers_planted(self):
        r = np.random.default_rng(3)
        X = r.normal(size=(200, 2))
        y = X @ np.array([2.0, -1.0]) + 3.0
        model = LinearRegressionModel(input_dim=2)
        exact = model.solve_exact(X, y)
        np.testing.assert_allclose(exact["weights"], [2.0, -1.0], atol=1e-8)
        np.testing.assert_allclose(exact["bias"], [3.0], atol=1e-8)
