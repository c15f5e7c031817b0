"""Generalized linear models: LR, SVM, Least Squares.

For GLMs the statistics are a single dot product per example
(Appendix VIII-A/B): ``s_i = x_i . w``, trivially additive across column
shards.  Given the complete dots, the mean batch gradient of any shard is
``X_k^T c / B`` where ``c_i`` is the loss derivative at ``(s_i, y_i)`` —
non-zero only on the columns the batch touches.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import CSRMatrix, accumulate_rows, row_dots
from repro.models.base import StatisticsModel
from repro.models.losses import (
    HingeLoss,
    HuberLoss,
    LogisticLoss,
    PointwiseLoss,
    SquaredHingeLoss,
    SquaredLoss,
    _sigmoid,
)


class GeneralizedLinearModel(StatisticsModel):
    """A GLM parameterised by a pointwise loss."""

    statistics_width = 1

    def __init__(self, loss: PointwiseLoss):
        self.loss_fn = loss

    # -- layout ---------------------------------------------------------
    def param_shape(self, n_features: int) -> tuple:
        return (n_features,)

    def init_params(self, n_features: int, seed=None) -> np.ndarray:
        return np.zeros(n_features, dtype=np.float64)

    # -- decomposition ----------------------------------------------------
    def compute_statistics(self, features: CSRMatrix, params: np.ndarray) -> np.ndarray:
        self._check_params(features, params)
        return row_dots(features, params).reshape(-1, 1)

    def coefficients(self, statistics, labels):
        self._check_batch(statistics, labels)
        return self.loss_fn.derivative(np.asarray(statistics)[:, 0], labels)

    def gradient_from_statistics(self, features, labels, coefficients, params):
        self._check_labels(features, labels)
        gradient = accumulate_rows(features, coefficients)
        gradient.values /= max(len(labels), 1)
        return gradient

    def loss_from_statistics(self, statistics, labels) -> float:
        scores = np.asarray(statistics)[:, 0]
        if scores.size == 0:
            return 0.0
        return float(np.mean(self.loss_fn.loss(scores, labels)))

    def predict_from_statistics(self, statistics) -> np.ndarray:
        return np.asarray(statistics)[:, 0]


class LogisticRegression(GeneralizedLinearModel):
    """Binary LR with labels in {-1, +1} (Appendix VIII-B)."""

    name = "lr"

    def __init__(self):
        super().__init__(LogisticLoss())

    def predict_from_statistics(self, statistics) -> np.ndarray:
        """Class probabilities P(y = +1 | x)."""
        return _sigmoid(np.asarray(statistics)[:, 0])


class LinearSVM(GeneralizedLinearModel):
    """Linear SVM via hinge loss (Appendix VIII-A)."""

    name = "svm"

    def __init__(self):
        super().__init__(HingeLoss())


class LeastSquares(GeneralizedLinearModel):
    """Linear regression with squared loss."""

    name = "least_squares"

    def __init__(self):
        super().__init__(SquaredLoss())


class SmoothSVM(GeneralizedLinearModel):
    """L2-SVM: squared hinge loss, differentiable at the margin."""

    name = "smooth_svm"

    def __init__(self):
        super().__init__(SquaredHingeLoss())


class HuberRegression(GeneralizedLinearModel):
    """Outlier-robust linear regression with the Huber loss."""

    name = "huber"

    def __init__(self):
        super().__init__(HuberLoss())
