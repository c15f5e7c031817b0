"""The user-facing programming interface of Section IX (Fig 12).

The paper exposes four callbacks — ``initModel``, ``computeStat``,
``reduceStat``, ``updateModel`` — that users implement to train a custom
model on ColumnSGD.  :class:`UserDefinedModel` adapts that callback style
onto :class:`~repro.models.base.StatisticsModel`, so user code plugs into
the same driver, baselines and tests as the built-in models.

The ``examples/custom_model.py`` script ports Fig 12's Scala LR code to
this interface nearly line for line.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.linalg import EVERY_ROW, CSRMatrix, RowGradient
from repro.models.base import StatisticsModel

InitModelFn = Callable[[int], np.ndarray]
ComputeStatFn = Callable[[CSRMatrix, np.ndarray], np.ndarray]
UpdateFn = Callable[
    [CSRMatrix, np.ndarray, np.ndarray, np.ndarray], Union[np.ndarray, RowGradient]
]
LossFn = Callable[[np.ndarray, np.ndarray], float]


class UserDefinedModel(StatisticsModel):
    """Wrap the paper's four callbacks into a trainable model.

    Parameters
    ----------
    init_model:
        ``init_model(local_dim) -> params`` (Fig 12's ``initModel``).
    compute_stat:
        ``compute_stat(batch, params) -> (B, width)`` partial statistics
        (``computeStat``).  Must be additive across column shards.
    compute_gradient:
        ``compute_gradient(batch, labels, complete_stats, params) ->
        gradient`` — the gradient-from-statistics step inside Fig 12's
        ``updateModel`` (the optimizer applies the step itself).  Either a
        dense array shaped like ``params`` or the
        :class:`~repro.linalg.RowGradient` the accumulate kernels return,
        which keeps the update O(batch nnz).
    loss:
        ``loss(complete_stats, labels) -> float`` mean batch loss, used
        for convergence reporting.
    statistics_width:
        Statistics per example (1 for GLM-style models).
    reduce_stat:
        Master-side combiner of two partial-statistics arrays; defaults
        to elementwise sum (Fig 12's ``reduceStat``).  The master folds
        the backup groups' contributions with it, pairwise in group
        order.
    """

    name = "user_defined"

    def __init__(
        self,
        init_model: InitModelFn,
        compute_stat: ComputeStatFn,
        compute_gradient: UpdateFn,
        loss: LossFn,
        statistics_width: int = 1,
        reduce_stat: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ):
        if statistics_width < 1:
            raise ValueError("statistics_width must be >= 1")
        self._init_model = init_model
        self._compute_stat = compute_stat
        self._compute_gradient = compute_gradient
        self._loss = loss
        self._reduce_stat = reduce_stat
        self.statistics_width = int(statistics_width)

    # -- layout ---------------------------------------------------------
    def param_shape(self, n_features: int) -> tuple:
        return np.asarray(self._init_model(n_features)).shape

    def init_params(self, n_features: int, seed=None) -> np.ndarray:
        return np.asarray(self._init_model(n_features), dtype=np.float64)

    # -- decomposition ----------------------------------------------------
    def compute_statistics(self, features, params):
        stats = np.asarray(self._compute_stat(features, params), dtype=np.float64)
        if stats.ndim == 1:
            stats = stats.reshape(-1, 1)
        if stats.shape != (features.n_rows, self.statistics_width):
            raise ValueError(
                "compute_stat returned shape {}, expected {}".format(
                    stats.shape, (features.n_rows, self.statistics_width)
                )
            )
        return stats

    def reduce_statistics(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Master-side pairwise combiner (defaults to sum)."""
        if self._reduce_stat is not None:
            return np.asarray(self._reduce_stat(left, right), dtype=np.float64)
        return left + right

    def gradient_from_statistics(self, features, labels, statistics, params):
        grad = self._compute_gradient(features, labels, np.asarray(statistics), params)
        if isinstance(grad, RowGradient):
            return grad  # Optimizer.step validates it against params
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != params.shape:
            raise ValueError(
                "compute_gradient returned shape {}, expected {}".format(
                    grad.shape, params.shape
                )
            )
        return RowGradient(EVERY_ROW, grad, grad.shape)

    def loss_from_statistics(self, statistics, labels) -> float:
        return float(self._loss(np.asarray(statistics), np.asarray(labels)))

    def predict_from_statistics(self, statistics) -> np.ndarray:
        return np.asarray(statistics)[:, 0]
