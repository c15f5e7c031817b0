"""Unit tests for the statistics models: GLMs, MLR, FM.

The two load-bearing checks per model:
* gradients match finite differences of the loss (correct math);
* the statistics decomposition identities of Section II-C hold
  (distributed == single-machine) — exercised more broadly in
  test_model_properties.py.
"""

import numpy as np
import pytest

from repro.datasets import make_classification, make_multiclass, make_regression
from repro.models import (
    FactorizationMachine,
    LeastSquares,
    LinearSVM,
    LogisticRegression,
    MultinomialLogisticRegression,
    make_model,
    MODEL_REGISTRY,
)


def finite_difference_gradient(model, features, labels, params, eps=1e-6):
    grad = np.zeros_like(params)
    flat = params.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = model.loss(features, labels, params)
        flat[i] = orig - eps
        down = model.loss(features, labels, params)
        flat[i] = orig
        out[i] = (up - down) / (2 * eps)
    return grad


class TestLogisticRegression:
    @pytest.fixture
    def data(self):
        return make_classification(40, 15, nnz_per_row=5, seed=2)

    def test_init_is_zero(self):
        model = LogisticRegression()
        assert np.all(model.init_params(10) == 0.0)
        assert model.param_shape(10) == (10,)
        assert model.params_per_feature() == 1

    def test_initial_loss_is_log2(self, data):
        model = LogisticRegression()
        w = model.init_params(data.n_features)
        assert model.loss(data.features, data.labels, w) == pytest.approx(np.log(2))

    def test_gradient_matches_finite_difference(self, data, rng):
        model = LogisticRegression()
        w = rng.normal(size=data.n_features) * 0.5
        grad = model.gradient(data.features, data.labels, w)
        numeric = finite_difference_gradient(model, data.features, data.labels, w)
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_predictions_are_probabilities(self, data, rng):
        model = LogisticRegression()
        w = rng.normal(size=data.n_features)
        probs = model.predict(data.features, w)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_statistics_width(self):
        assert LogisticRegression().statistics_width == 1


class TestLinearSVM:
    @pytest.fixture
    def data(self):
        return make_classification(40, 15, nnz_per_row=5, seed=3)

    def test_gradient_matches_finite_difference(self, data, rng):
        model = LinearSVM()
        # stay away from hinge kinks by nudging w
        w = rng.normal(size=data.n_features) * 0.37 + 0.011
        stats = model.compute_statistics(data.features, w)
        margins = data.labels * stats[:, 0]
        if np.any(np.abs(margins - 1.0) < 1e-4):
            pytest.skip("sampled a kink")
        grad = model.gradient(data.features, data.labels, w)
        numeric = finite_difference_gradient(model, data.features, data.labels, w)
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_training_reduces_loss(self, data):
        model = LinearSVM()
        w = model.init_params(data.n_features)
        initial = model.loss(data.features, data.labels, w)
        for t in range(60):
            w -= 0.3 * model.gradient(data.features, data.labels, w)
        assert model.loss(data.features, data.labels, w) < initial


class TestLeastSquares:
    def test_gradient_matches_finite_difference(self, rng):
        data = make_regression(30, 12, nnz_per_row=4, seed=4)
        model = LeastSquares()
        w = rng.normal(size=12)
        grad = model.gradient(data.features, data.labels, w)
        numeric = finite_difference_gradient(model, data.features, data.labels, w)
        assert np.allclose(grad, numeric, atol=1e-4)

    def test_solves_noiseless_system(self):
        data = make_regression(400, 10, nnz_per_row=5, noise_std=0.0, seed=5)
        model = LeastSquares()
        w = model.init_params(10)
        for t in range(800):
            w -= 0.05 * model.gradient(data.features, data.labels, w)
        assert model.loss(data.features, data.labels, w) < 1e-2


class TestMLR:
    @pytest.fixture
    def data(self):
        return make_multiclass(40, 12, n_classes=3, nnz_per_row=4, seed=6)

    def test_shapes(self):
        model = MultinomialLogisticRegression(n_classes=3)
        assert model.param_shape(12) == (12, 3)
        assert model.statistics_width == 3
        assert model.params_per_feature() == 3

    def test_gradient_matches_finite_difference(self, data, rng):
        model = MultinomialLogisticRegression(n_classes=3)
        w = rng.normal(size=(12, 3)) * 0.3
        grad = model.gradient(data.features, data.labels, w)
        numeric = finite_difference_gradient(model, data.features, data.labels, w)
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_initial_loss_is_log_k(self, data):
        model = MultinomialLogisticRegression(n_classes=3)
        w = model.init_params(12)
        assert model.loss(data.features, data.labels, w) == pytest.approx(np.log(3))

    def test_predictions_are_class_ids(self, data, rng):
        model = MultinomialLogisticRegression(n_classes=3)
        w = rng.normal(size=(12, 3))
        preds = model.predict(data.features, w)
        assert set(np.unique(preds)) <= {0.0, 1.0, 2.0}

    def test_rejects_out_of_range_labels(self, data, rng):
        model = MultinomialLogisticRegression(n_classes=2)
        w = rng.normal(size=(12, 2))
        with pytest.raises(ValueError):
            model.gradient(data.features, np.full(40, 5.0), w)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            MultinomialLogisticRegression(n_classes=1)


class TestFactorizationMachine:
    @pytest.fixture
    def data(self):
        return make_classification(30, 10, nnz_per_row=4, binary_features=False, seed=7)

    def test_shapes(self):
        model = FactorizationMachine(n_factors=4)
        assert model.param_shape(10) == (10, 5)
        assert model.statistics_width == 5
        assert model.params_per_feature() == 5

    def test_init_breaks_symmetry(self):
        model = FactorizationMachine(n_factors=4)
        params = model.init_params(10, seed=1)
        assert np.all(params[:, 0] == 0.0)
        assert np.std(params[:, 1:]) > 0

    def test_init_deterministic(self):
        model = FactorizationMachine(n_factors=2)
        assert np.array_equal(model.init_params(5, seed=3), model.init_params(5, seed=3))

    def test_gradient_matches_finite_difference(self, data, rng):
        model = FactorizationMachine(n_factors=3)
        params = model.init_params(10, seed=2)
        params += rng.normal(size=params.shape) * 0.1
        grad = model.gradient(data.features, data.labels, params)
        numeric = finite_difference_gradient(model, data.features, data.labels, params)
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_raw_score_matches_rendle_definition(self, data, rng):
        """Equation 10's rewriting equals the explicit pairwise form."""
        model = FactorizationMachine(n_factors=3)
        params = model.init_params(10, seed=4) * 10  # exaggerate factors
        stats = model.compute_statistics(data.features, params)
        scores = model._raw_scores(stats)
        dense = data.features.to_dense()
        w, V = params[:, 0], params[:, 1:]
        for i in range(data.n_rows):
            x = dense[i]
            pairwise = 0.0
            for a in range(10):
                for b in range(a + 1, 10):
                    pairwise += np.dot(V[a], V[b]) * x[a] * x[b]
            expected = np.dot(w, x) + pairwise
            assert scores[i] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_training_reduces_loss(self, data):
        model = FactorizationMachine(n_factors=2)
        params = model.init_params(10, seed=5)
        initial = model.loss(data.features, data.labels, params)
        for t in range(100):
            params -= 0.2 * model.gradient(data.features, data.labels, params)
        assert model.loss(data.features, data.labels, params) < initial

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            FactorizationMachine(n_factors=0)


class TestRegistry:
    def test_all_models_constructible(self):
        assert make_model("lr").name == "lr"
        assert make_model("svm").name == "svm"
        assert make_model("least_squares").name == "least_squares"
        assert make_model("mlr", n_classes=3).name == "mlr"
        assert make_model("fm", n_factors=2).name == "fm"

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            make_model("transformer")

    def test_registry_complete(self):
        assert set(MODEL_REGISTRY) == {
            "lr", "svm", "least_squares", "smooth_svm", "huber", "mlr", "fm", "ffm"
        }
