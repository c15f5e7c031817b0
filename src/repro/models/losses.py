"""Pointwise losses over (score, label) pairs, vectorised over a batch.

For binary classification, labels are in {-1, +1} and the score is the
margin ``x . w``; for regression the score is the prediction.  Each loss
exposes its value and its derivative with respect to the score — the
derivative is the "coefficient" ``c_i`` that multiplies ``x_i`` in every
GLM gradient (equation 2).
"""

from __future__ import annotations

import numpy as np

#: Residual at which the Huber loss turns from quadratic to linear.
HUBER_DELTA = 1.0


def _as_batch(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise ValueError(
            "scores shape {} != labels shape {}".format(scores.shape, labels.shape)
        )
    return scores, labels


class PointwiseLoss:
    """Interface: vectorised loss value and score-derivative."""

    name = "abstract"

    def loss(self, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-example loss values."""
        raise NotImplementedError

    def derivative(self, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Per-example d(loss)/d(score) — the gradient coefficients."""
        raise NotImplementedError


class LogisticLoss(PointwiseLoss):
    """``log(1 + exp(-y s))`` with labels in {-1, +1} (equation 5)."""

    name = "logistic"

    def loss(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        margins = labels * scores
        # log1p(exp(-m)) computed stably for both signs of m.
        return np.where(
            margins > 0,
            np.log1p(np.exp(-np.abs(margins))),
            -margins + np.log1p(np.exp(-np.abs(margins))),
        )

    def derivative(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        margins = labels * scores
        # -y / (1 + exp(m)) == -y * sigmoid(-m), computed stably.
        return -labels * _sigmoid(-margins)


class HingeLoss(PointwiseLoss):
    """``max(0, 1 - y s)`` with labels in {-1, +1} (equation 3)."""

    name = "hinge"

    def loss(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        return np.maximum(0.0, 1.0 - labels * scores)

    def derivative(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        active = (1.0 - labels * scores) > 0.0
        return np.where(active, -labels, 0.0)


class SquaredHingeLoss(PointwiseLoss):
    """``max(0, 1 - y s)^2 / 2`` — a smooth SVM loss.

    Differentiable everywhere (unlike the hinge), so the distributed-
    equals-sequential exactness guarantee is immune to float-order
    effects at the margin boundary.
    """

    name = "squared_hinge"

    def loss(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        slack = np.maximum(0.0, 1.0 - labels * scores)
        return 0.5 * slack ** 2

    def derivative(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        slack = np.maximum(0.0, 1.0 - labels * scores)
        return -labels * slack


class HuberLoss(PointwiseLoss):
    """Huber-robust regression loss with transition point
    :data:`HUBER_DELTA`.

    Quadratic for residuals within the delta, linear beyond — bounded
    gradient coefficients make it robust to label outliers.
    """

    name = "huber"

    def loss(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        residual = scores - labels
        small = np.abs(residual) <= HUBER_DELTA
        return np.where(
            small,
            0.5 * residual ** 2,
            HUBER_DELTA * (np.abs(residual) - 0.5 * HUBER_DELTA),
        )

    def derivative(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        residual = scores - labels
        return np.clip(residual, -HUBER_DELTA, HUBER_DELTA)


class SquaredLoss(PointwiseLoss):
    """``(s - y)^2 / 2`` with real labels (least squares)."""

    name = "squared"

    def loss(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        return 0.5 * (scores - labels) ** 2

    def derivative(self, scores, labels):
        scores, labels = _as_batch(scores, labels)
        return scores - labels


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, in one pass: ``exp`` only
    ever sees ``-|x|`` (written ``min(x, -x)``, which keeps a NaN's sign
    bit where ``-abs`` would flip it)."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)
