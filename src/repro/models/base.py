"""The statistics-model interface — the paper's programming framework.

A :class:`StatisticsModel` captures the vertical-parallel decomposition
(Section II-C): per-example *statistics* that are (a) computable from any
column shard against the matching model partition and (b) additive
across shards, plus a gradient that is recoverable from the *complete*
statistics using only local data.  Formally, for column shards
``X = [X_1 | ... | X_K]`` and model partitions ``w = (w_1, ..., w_K)``::

    compute_statistics(X, w) == sum_k compute_statistics(X_k, w_k)

and the full-data batch gradient restricted to partition k equals
``gradient_from_statistics(X_k, y, coefficients(S, y), w_k)`` where
``S`` is the summed statistics.  Every concrete model's tests assert
both identities.  The split is the appendix's ``X_k^T c(S, y)``: the
coefficients ``c`` depend on the complete statistics and the labels
alone, the same for every shard, so a host computes them once for all
the workers it runs.

A mini-batch's gradient is zero outside the columns the batch touches,
so it travels as a :class:`~repro.linalg.RowGradient` — those columns
plus one block of values — and a round costs O(batch nnz x width)
whatever the partition's dimension.  Like the paper's runs (Table III),
the objective is the mean data loss alone: no model adds a penalty.

Parameters travel as plain numpy arrays whose first axis indexes
features, so slicing rows of the array partitions the model by columns
of the data — the collocation trick.  Every model but one is stateless;
the column-partitioned MLP keeps its small tail on the model, at the
master, where :meth:`StatisticsModel.master_step` steps it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionMismatchError
from repro.linalg import CSRMatrix, RowGradient
from repro.utils.rng import rng_from_seed


class StatisticsModel:
    """Interface of the paper's computation framework (Algorithm 3).

    Attributes
    ----------
    name:
        Registry key ('lr', 'svm', ...).
    statistics_width:
        Statistics per example (1 for GLMs, n_classes for MLR, F+1 for
        FM).  Determines ColumnSGD's communication volume ``B * width``.
    """

    name = "abstract"
    statistics_width = 1

    # ------------------------------------------------------------------
    # model parameter layout
    # ------------------------------------------------------------------
    def param_shape(self, n_features: int) -> tuple:
        """Shape of the parameter array for ``n_features`` columns.

        The first axis is always the feature axis, so a column partition
        owning ``d`` features holds an array of shape
        ``(d,) + param_shape(m)[1:]``.
        """
        raise NotImplementedError

    def init_params(self, n_features: int, seed=None) -> np.ndarray:
        """Fresh parameters (zeros unless the model needs symmetry breaking)."""
        raise NotImplementedError

    def params_per_feature(self) -> int:
        """Scalars stored per feature (1 for GLMs, F+1 for FM, C for MLR)."""
        shape = self.param_shape(1)
        return int(np.prod(shape))

    # ------------------------------------------------------------------
    # the two-step decomposition
    # ------------------------------------------------------------------
    def compute_statistics(self, features: CSRMatrix, params: np.ndarray) -> np.ndarray:
        """Partial statistics of shape ``(n_rows, statistics_width)``.

        Must be additive across column shards.
        """
        raise NotImplementedError

    def reduce_statistics(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Combine two partial-statistics arrays (Fig 12's
        ``reduceStat``); the master folds the groups' contributions
        with it.  Additive statistics sum."""
        return left + right

    def master_step(self, statistics: np.ndarray, labels, optimizer=None) -> np.ndarray:
        """What the master broadcasts for the complete ``statistics``,
        and so what :meth:`coefficients` receives: the model's hook
        between reduceStatistics and the broadcast, run once a round.

        ``labels()`` returns the batch's labels, for a model that needs
        them; ``optimizer``, when given, is the one whose spawned copies
        step state the model keeps at the master (the model checker
        passes none).  The identity here: a GLM's workers need the
        statistics alone, and it keeps no state.
        """
        return statistics

    def coefficients(self, statistics: np.ndarray, labels: np.ndarray):
        """What every shard's gradient needs from the *complete*
        ``statistics`` (as :meth:`master_step` passed them on) and the
        batch's ``labels``: the appendix's ``c(S, y)``, computed once
        per host.  The identity here, for a model whose broadcast
        already is what its shards accumulate."""
        self._check_batch(statistics, labels)
        return statistics

    def gradient_from_statistics(
        self,
        features: CSRMatrix,
        labels: np.ndarray,
        coefficients,
        params: np.ndarray,
    ) -> RowGradient:
        """Mean batch gradient of the loss over the local partition.

        ``coefficients`` is what :meth:`coefficients` returned for the
        batch; ``features``/``params`` are the local shard and partition.
        The rows are the columns ``features`` touches; nothing sized like
        ``params`` is allocated.
        """
        raise NotImplementedError

    def loss_from_statistics(self, statistics: np.ndarray, labels: np.ndarray) -> float:
        """Mean loss of the batch given complete statistics."""
        raise NotImplementedError

    def predict_from_statistics(self, statistics: np.ndarray) -> np.ndarray:
        """Point predictions (labels or scores) from complete statistics."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # convenience single-machine paths (used by tests and examples)
    # ------------------------------------------------------------------
    def gradient(
        self, features: CSRMatrix, labels: np.ndarray, params: np.ndarray
    ) -> np.ndarray:
        """Single-machine mean batch gradient, dense (statistics folded in)."""
        stats = self.master_step(self.compute_statistics(features, params), lambda: labels)
        coefficients = self.coefficients(stats, labels)
        return self.gradient_from_statistics(features, labels, coefficients, params).to_dense()

    def loss(self, features: CSRMatrix, labels: np.ndarray, params: np.ndarray) -> float:
        """Full objective f(w, X): the mean loss over every row."""
        stats = self.compute_statistics(features, params)
        return self.loss_from_statistics(stats, labels)

    def predict(self, features: CSRMatrix, params: np.ndarray) -> np.ndarray:
        """Point predictions on a feature matrix."""
        return self.predict_from_statistics(self.compute_statistics(features, params))

    # ------------------------------------------------------------------
    # shape validation shared by the concrete models
    # ------------------------------------------------------------------
    def _check_params(self, features: CSRMatrix, params: np.ndarray) -> None:
        expected = self.param_shape(features.n_cols)
        if np.shape(params) != expected:
            raise DimensionMismatchError(expected, np.shape(params), "params shape")

    def _check_batch(self, statistics, labels) -> None:
        expected = (np.size(labels), self.statistics_width)
        if np.shape(statistics) != expected:
            raise DimensionMismatchError(expected, np.shape(statistics), "statistics shape")

    @staticmethod
    def _check_labels(features: CSRMatrix, labels) -> None:
        if np.shape(labels) != (features.n_rows,):
            raise DimensionMismatchError((features.n_rows,), np.shape(labels), "labels shape")

    def _rng(self, seed):
        return rng_from_seed(seed)

    def __repr__(self) -> str:
        return "{}()".format(type(self).__name__)
