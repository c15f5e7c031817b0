"""Degree-2 Factorization Machine (Appendix VIII-D).

Parameters form an ``(m, 1 + F)`` matrix: column 0 is the linear weight
``w``, columns 1..F are the factor matrix ``V``.  Using Rendle's
rewriting (equation 10),

    y(x) = [x.w - 1/2 sum_f sum_j v_jf^2 x_j^2]  +  1/2 sum_f (sum_j v_jf x_j)^2

the bracket and each inner sum ``s_f = sum_j v_jf x_j`` are additive over
column shards, so the statistics per example are the paper's
``F + 1`` values: ``(bracket, s_1, ..., s_F)``.  Only after summing does
the nonlinear ``s_f^2`` term get applied — the reason the square cannot
be folded in at the workers.

With logistic loss (labels in {-1, +1}) the gradients (equations 12-13)
are::

    dl/dw_j    = c * x_j
    dl/dv_jf   = c * (x_j * s_f - v_jf * x_j^2)

with ``c = -y / (1 + exp(y * y(x)))`` — all local given complete stats,
and zero for every ``j`` the batch does not touch.  Both steps run over
the whole ``(1 + F)``-wide parameter block at once, not one kernel call
per factor: the statistics gather each entry's parameter row once and
reduce it twice, to ``x.w, s_1 .. s_F`` and to the per-factor
``sum_j v_jf^2 x_j^2`` (``row_dots(..., squares_from=1)``); the gradient
is one accumulate over the whole width.  On one-hot data, a pattern
matrix whose every ``x`` is 1.0, the kernels skip their multiplies by ``x`` and
``x^2`` (exact, so no bit changes) and ``sum_i c_i x_ij^2`` is the
accumulate's linear column.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import (
    CSRMatrix,
    accumulate_rows,
    accumulate_rows_squared,
    row_dots,
)
from repro.models.base import StatisticsModel
from repro.models.losses import LogisticLoss, _sigmoid
from repro.utils.validation import check_positive

#: Standard deviation of the Gaussian initial factors.
INIT_STD = 0.01


class FactorizationMachine(StatisticsModel):
    """FM of degree 2 with ``n_factors`` latent dimensions, logistic loss."""

    name = "fm"

    def __init__(self, n_factors: int):
        check_positive(n_factors, "n_factors")
        self.n_factors = int(n_factors)
        self.statistics_width = self.n_factors + 1
        self._loss = LogisticLoss()

    # -- layout ---------------------------------------------------------
    def param_shape(self, n_features: int) -> tuple:
        return (n_features, 1 + self.n_factors)

    def init_params(self, n_features: int, seed=None) -> np.ndarray:
        """Zero linear weights; small Gaussian factors (symmetry breaking)."""
        rng = self._rng(seed)
        params = np.zeros((n_features, 1 + self.n_factors), dtype=np.float64)
        params[:, 1:] = rng.normal(0.0, INIT_STD, size=(n_features, self.n_factors))
        return params

    # -- decomposition ----------------------------------------------------
    def compute_statistics(self, features: CSRMatrix, params: np.ndarray) -> np.ndarray:
        self._check_params(features, params)
        # x.w, then s_1 .. s_F; and per factor sum_j v_jf^2 x_j^2
        stats, squares = row_dots(features, params, squares_from=1)
        # factor-major: the bracket is x.w minus each half square in turn,
        # the rounding order the pinned trajectories were recorded with
        terms = np.empty((1 + self.n_factors, features.n_rows), dtype=np.float64)
        terms[0] = stats[:, 0]
        np.multiply(squares.T, 0.5, out=terms[1:])
        np.subtract.reduce(terms, axis=0, out=stats[:, 0])
        return stats

    def _raw_scores(self, statistics: np.ndarray) -> np.ndarray:
        """y(x) from complete statistics (equation 10)."""
        stats = np.asarray(statistics, dtype=np.float64)
        return stats[:, 0] + 0.5 * np.sum(stats[:, 1:] ** 2, axis=1)

    def coefficients(self, statistics, labels):
        """``c``, and what every shard accumulates: ``c`` for the linear
        weight, ``c * s_f`` for factor ``f`` (FFM's step too)."""
        self._check_batch(statistics, labels)
        stats = np.asarray(statistics, dtype=np.float64)
        c = self._loss.derivative(self._raw_scores(stats), labels)
        return c, np.column_stack((c, c[:, None] * stats[:, 1:]))

    def gradient_from_statistics(self, features, labels, coefficients, params):
        self._check_params(features, params)
        self._check_labels(features, labels)
        c, weighted = coefficients
        gradient = accumulate_rows(features, weighted)
        # sum_i c_i * x_i^2, shared by every factor's second term; the
        # linear column is it on a pattern matrix (every x is 1.0)
        squares = accumulate_rows_squared(features, c, linear=gradient.values[:, 0])
        correction = np.take(params, gradient.cols, axis=0)
        correction *= squares.values[:, None]  # v_jf * sum_i c_i x_ij^2
        correction[:, 0] = 0.0  # the linear weight has no second-order term
        gradient.values -= correction
        gradient.values /= max(len(labels), 1)
        return gradient

    def loss_from_statistics(self, statistics, labels) -> float:
        labels = np.asarray(labels, dtype=np.float64)
        if labels.size == 0:
            return 0.0
        scores = self._raw_scores(statistics)
        return float(np.mean(self._loss.loss(scores, labels)))

    def predict_from_statistics(self, statistics) -> np.ndarray:
        """P(y = +1 | x)."""
        return _sigmoid(self._raw_scores(statistics))
