"""Tests for the extended GLM family: SmoothSVM and HuberRegression."""

import numpy as np
import pytest

from repro.datasets import Dataset, make_classification, make_regression
from repro.models import (
    HuberLoss,
    HuberRegression,
    LeastSquares,
    SmoothSVM,
    SquaredHingeLoss,
    make_model,
)
from repro.models.losses import HUBER_DELTA
from tests.test_models import finite_difference_gradient


class TestSquaredHingeLoss:
    def test_zero_inside_margin(self):
        loss = SquaredHingeLoss()
        assert loss.loss(np.array([2.0]), np.array([1.0]))[0] == 0.0
        assert loss.derivative(np.array([2.0]), np.array([1.0]))[0] == 0.0

    def test_quadratic_outside(self):
        loss = SquaredHingeLoss()
        assert loss.loss(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(0.5)

    def test_derivative_matches_numeric(self, rng):
        loss = SquaredHingeLoss()
        scores = rng.normal(size=60) * 2
        labels = rng.choice([-1.0, 1.0], 60)
        eps = 1e-6
        numeric = (loss.loss(scores + eps, labels) - loss.loss(scores - eps, labels)) / (2 * eps)
        assert np.allclose(loss.derivative(scores, labels), numeric, atol=1e-5)

    def test_continuous_at_margin(self):
        loss = SquaredHingeLoss()
        just_in = loss.derivative(np.array([1.0 - 1e-9]), np.array([1.0]))[0]
        just_out = loss.derivative(np.array([1.0 + 1e-9]), np.array([1.0]))[0]
        assert abs(just_in - just_out) < 1e-6


class TestHuberLoss:
    def test_quadratic_inside_delta(self):
        loss = HuberLoss()
        assert loss.loss(np.array([0.5]), np.array([0.0]))[0] == pytest.approx(0.125)

    def test_linear_outside_delta(self):
        loss = HuberLoss()
        assert loss.loss(np.array([3.0]), np.array([0.0]))[0] == pytest.approx(2.5)

    def test_gradient_bounded(self, rng):
        loss = HuberLoss()
        scores = rng.normal(size=100) * 10
        labels = rng.normal(size=100)
        assert np.all(np.abs(loss.derivative(scores, labels)) <= HUBER_DELTA + 1e-12)

    def test_derivative_matches_numeric(self, rng):
        loss = HuberLoss()
        scores = rng.normal(size=60) * 3
        labels = rng.normal(size=60)
        safe = np.abs(np.abs(scores - labels) - HUBER_DELTA) > 1e-4
        eps = 1e-6
        numeric = (loss.loss(scores + eps, labels) - loss.loss(scores - eps, labels)) / (2 * eps)
        assert np.allclose(loss.derivative(scores, labels)[safe], numeric[safe], atol=1e-5)


class TestSmoothSVM:
    def test_gradient_matches_finite_difference(self, rng):
        data = make_classification(40, 15, nnz_per_row=5, binary_features=False, seed=21)
        model = SmoothSVM()
        w = rng.normal(size=15) * 0.4
        grad = model.gradient(data.features, data.labels, w)
        numeric = finite_difference_gradient(model, data.features, data.labels, w)
        assert np.allclose(grad, numeric, atol=1e-5)

    def test_trains_distributed_exactly(self, tiny_gaussian):
        """SmoothSVM passes the exactness invariant even on binary data
        (the reason it exists: no subgradient kink)."""
        from repro.core import ColumnSGDConfig, ColumnSGDDriver
        from repro.optim import SGD
        from repro.sim import CLUSTER1, SimulatedCluster

        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        config = ColumnSGDConfig(batch_size=32, iterations=12, eval_every=0,
                                 seed=8, block_size=64)
        driver = ColumnSGDDriver(SmoothSVM(), SGD(0.2), cluster, config)
        driver.load(tiny_gaussian)
        result = driver.fit()

        w = SmoothSVM().init_params(tiny_gaussian.n_features)
        opt = SGD(0.2)
        index = driver._index
        for t in range(12):
            rows = index.to_global_rows(index.sample(t, 32))
            batch = tiny_gaussian.take(rows)
            opt.step(w, SmoothSVM().gradient(batch.features, batch.labels, w))
        assert np.allclose(result.final_params, w, atol=1e-10)


class TestHuberRegression:
    def test_gradient_matches_finite_difference(self, rng):
        data = make_regression(40, 12, nnz_per_row=4, seed=22)
        model = HuberRegression()
        w = rng.normal(size=12) * 0.4
        grad = model.gradient(data.features, data.labels, w)
        numeric = finite_difference_gradient(model, data.features, data.labels, w)
        assert np.allclose(grad, numeric, atol=1e-4)

    def test_robust_to_label_outliers(self):
        """Huber ends closer to the clean solution than least squares
        when a few labels are wildly corrupted."""
        clean = make_regression(400, 20, nnz_per_row=6, noise_std=0.05, seed=23)
        corrupted_labels = clean.labels.copy()
        corrupted_labels[:8] += 500.0  # 2% gross outliers
        corrupted = Dataset(clean.features, corrupted_labels, name="corrupted")

        def fit(model, lr, steps=400):
            w = model.init_params(20)
            for t in range(steps):
                w -= lr * model.gradient(corrupted.features, corrupted.labels, w)
            return w

        w_ls = fit(LeastSquares(), 0.02)
        w_huber = fit(HuberRegression(), 0.05)
        ls_clean_loss = LeastSquares().loss(clean.features, clean.labels, w_ls)
        huber_clean_loss = LeastSquares().loss(clean.features, clean.labels, w_huber)
        assert huber_clean_loss < ls_clean_loss

    def test_registry(self):
        assert make_model("smooth_svm").name == "smooth_svm"
        assert make_model("huber").name == "huber"
