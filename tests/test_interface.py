"""Tests for the Fig 12 programming interface (UserDefinedModel)."""

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver, UserDefinedModel
from repro.linalg import accumulate_rows, row_dots
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster


def user_lr(reduce_stat=None):
    """Fig 12's LR ported callback-by-callback."""

    def init_model(local_dim):
        return np.zeros(local_dim)

    def compute_stat(batch, params):  # partial dot products
        return row_dots(batch, params)

    def compute_gradient(batch, labels, stats, params):
        scores = stats[:, 0]
        coeff = -labels / (1.0 + np.exp(labels * scores))
        gradient = accumulate_rows(batch, coeff)  # a RowGradient
        gradient.values /= max(len(labels), 1)
        return gradient

    def loss(stats, labels):
        margins = labels * stats[:, 0]
        return float(np.mean(np.log1p(np.exp(-margins))))

    return UserDefinedModel(
        init_model=init_model,
        compute_stat=compute_stat,
        compute_gradient=compute_gradient,
        loss=loss,
        reduce_stat=reduce_stat,
    )


def train(model, data, iterations=12):
    cluster = SimulatedCluster(CLUSTER1.with_workers(4))
    config = ColumnSGDConfig(batch_size=32, iterations=iterations, eval_every=0,
                             seed=6, block_size=64)
    driver = ColumnSGDDriver(model, SGD(0.5), cluster, config=config)
    driver.load(data)
    return driver.fit().final_params


class TestUserDefinedModel:
    def test_matches_builtin_lr(self, tiny_gaussian):
        """The callback LR trains identically to the built-in LR."""
        results = [train(m, tiny_gaussian) for m in (user_lr(), LogisticRegression())]
        assert np.allclose(results[0], results[1], atol=1e-9)

    def test_loss_evaluation(self, tiny_binary):
        model = user_lr()
        w = model.init_params(tiny_binary.n_features)
        loss = model.loss(tiny_binary.features, tiny_binary.labels, w)
        assert loss == pytest.approx(np.log(2))

    def test_custom_reduce_stat(self):
        model = UserDefinedModel(
            init_model=lambda d: np.zeros(d),
            compute_stat=lambda batch, params: row_dots(batch, params),
            compute_gradient=lambda b, y, s, p: np.zeros_like(p),
            loss=lambda s, y: 0.0,
            reduce_stat=lambda a, b: np.maximum(a, b),
        )
        a, b = np.array([[1.0], [5.0]]), np.array([[3.0], [2.0]])
        assert model.reduce_statistics(a, b).tolist() == [[3.0], [5.0]]

    def test_master_folds_with_reduce_stat(self, tiny_gaussian):
        """Fig 12's reduceStat takes effect: the master folds the four
        groups' statistics with it (three calls a round), so a reducer
        that is not a sum trains a different model."""
        calls = []

        def shifted_sum(left, right):
            calls.append(left.shape)
            return left + right + 1.0

        summed = train(user_lr(), tiny_gaussian, iterations=5)
        shifted = train(user_lr(shifted_sum), tiny_gaussian, iterations=5)
        assert calls == [(32, 1)] * 3 * 5
        assert not np.allclose(summed, shifted)

    def test_default_reduce_is_sum(self):
        model = user_lr()
        a, b = np.array([[1.0]]), np.array([[2.0]])
        assert model.reduce_statistics(a, b).tolist() == [[3.0]]

    def test_stat_shape_validated(self, tiny_binary):
        model = UserDefinedModel(
            init_model=lambda d: np.zeros(d),
            compute_stat=lambda batch, params: np.zeros((batch.n_rows, 3)),
            compute_gradient=lambda b, y, s, p: np.zeros_like(p),
            loss=lambda s, y: 0.0,
            statistics_width=1,
        )
        with pytest.raises(ValueError, match="compute_stat"):
            model.compute_statistics(tiny_binary.features, np.zeros(120))

    def test_gradient_shape_validated(self, tiny_binary):
        model = UserDefinedModel(
            init_model=lambda d: np.zeros(d),
            compute_stat=lambda batch, params: row_dots(batch, params),
            compute_gradient=lambda b, y, s, p: np.zeros(3),
            loss=lambda s, y: 0.0,
        )
        stats = model.compute_statistics(tiny_binary.features, np.zeros(120))
        with pytest.raises(ValueError, match="compute_gradient"):
            model.gradient_from_statistics(
                tiny_binary.features, tiny_binary.labels, stats, np.zeros(120)
            )

    def test_width_validated(self):
        with pytest.raises(ValueError):
            UserDefinedModel(
                init_model=lambda d: np.zeros(d),
                compute_stat=lambda b, p: None,
                compute_gradient=lambda b, y, s, p: None,
                loss=lambda s, y: 0.0,
                statistics_width=0,
            )
