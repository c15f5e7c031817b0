"""Multinomial Logistic Regression (Appendix VIII-C).

Parameters form an ``(m, C)`` matrix — one weight column per class; the
statistics are the C per-class dot products per example (so ColumnSGD
ships ``C * B`` values per iteration).  Given the complete dots, the
partition gradient for class ``c`` is ``X^T (softmax_c - t_c) / B``
(equation 8).
"""

from __future__ import annotations

import numpy as np

from repro.linalg import CSRMatrix, accumulate_rows, row_dots
from repro.models.base import StatisticsModel
from repro.utils.validation import check_positive


class MultinomialLogisticRegression(StatisticsModel):
    """Softmax classifier with labels in {0, ..., n_classes - 1}."""

    name = "mlr"

    def __init__(self, n_classes: int):
        check_positive(n_classes, "n_classes")
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2, got {}".format(n_classes))
        self.n_classes = int(n_classes)
        self.statistics_width = self.n_classes

    # -- layout ---------------------------------------------------------
    def param_shape(self, n_features: int) -> tuple:
        return (n_features, self.n_classes)

    def init_params(self, n_features: int, seed=None) -> np.ndarray:
        return np.zeros((n_features, self.n_classes), dtype=np.float64)

    # -- decomposition ----------------------------------------------------
    def compute_statistics(self, features: CSRMatrix, params: np.ndarray) -> np.ndarray:
        self._check_params(features, params)
        return row_dots(features, params)

    def _probabilities(self, statistics: np.ndarray) -> np.ndarray:
        scores = np.asarray(statistics, dtype=np.float64)
        scores = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(scores)
        return exp / exp.sum(axis=1, keepdims=True)

    def _one_hot(self, labels: np.ndarray, n: int) -> np.ndarray:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(
                "labels must lie in [0, {}), got [{}, {}]".format(
                    self.n_classes, labels.min(), labels.max()
                )
            )
        hot = np.zeros((n, self.n_classes), dtype=np.float64)
        hot[np.arange(n), labels] = 1.0
        return hot

    def coefficients(self, statistics, labels):
        self._check_batch(statistics, labels)
        return self._probabilities(statistics) - self._one_hot(labels, len(labels))

    def gradient_from_statistics(self, features, labels, coefficients, params):
        self._check_labels(features, labels)
        gradient = accumulate_rows(features, coefficients)
        gradient.values /= max(len(labels), 1)
        return gradient

    def loss_from_statistics(self, statistics, labels) -> float:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.size == 0:
            return 0.0
        probs = self._probabilities(statistics)
        picked = probs[np.arange(labels.size), labels]
        return float(-np.mean(np.log(np.maximum(picked, 1e-300))))

    def predict_from_statistics(self, statistics) -> np.ndarray:
        """Predicted class ids."""
        return np.asarray(statistics).argmax(axis=1).astype(np.float64)
