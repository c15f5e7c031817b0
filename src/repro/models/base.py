"""The statistics-model interface — the paper's programming framework.

A :class:`StatisticsModel` captures the vertical-parallel decomposition
(Section II-C): per-example *statistics* that are (a) computable from any
column shard against the matching model partition and (b) additive
across shards, plus a gradient that is recoverable from the *complete*
statistics using only local data.  Formally, for column shards
``X = [X_1 | ... | X_K]`` and model partitions ``w = (w_1, ..., w_K)``::

    compute_statistics(X, w) == sum_k compute_statistics(X_k, w_k)

and the full-data batch gradient restricted to partition k equals
``gradient_from_statistics(X_k, y, S, w_k)`` where ``S`` is the summed
statistics.  Every concrete model's tests assert both identities.  The
step from ``S`` and ``y`` to per-example coefficients is the same for
every shard, so a model runs it through :meth:`StatisticsModel._per_host`,
once per host.

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
from repro.utils.memo import LastCall
from repro.utils.rng import rng_from_seed

#: the last coefficient step (:meth:`StatisticsModel._per_host`) of this process
_COEFFICIENTS = LastCall()


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
        and so what ``gradient_from_statistics`` receives: the model's
        hook between reduceStatistics and the broadcast, run once a round.

        ``labels()`` returns the batch's labels, for a model that needs
        them; ``optimizer``, when given, is the one whose spawned copies
        step state the model keeps at the master (the model checker
        passes none).  The identity here: a GLM's workers need the
        statistics alone, and it keeps no state.
        """
        return statistics

    def gradient_from_statistics(
        self,
        features: CSRMatrix,
        labels: np.ndarray,
        statistics: np.ndarray,
        params: np.ndarray,
    ) -> RowGradient:
        """Mean batch gradient of the loss over the local partition.

        ``statistics`` must be the *complete* (summed) statistics, as
        :meth:`master_step` passed them on;
        ``features``/``params`` are the local shard and partition.  The
        rows are the columns ``features`` touches; nothing sized like
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
        return self.gradient_from_statistics(features, labels, stats, params).to_dense()

    def loss(self, features: CSRMatrix, labels: np.ndarray, params: np.ndarray) -> float:
        """Full objective f(w, X): the mean loss over every row."""
        stats = self.compute_statistics(features, params)
        return self.loss_from_statistics(stats, labels)

    def predict(self, features: CSRMatrix, params: np.ndarray) -> np.ndarray:
        """Point predictions on a feature matrix."""
        return self.predict_from_statistics(self.compute_statistics(features, params))

    def _per_host(self, statistics, labels, compute):
        """``compute()``, a function of this model, the complete
        ``statistics`` and ``labels`` alone — the same on every worker of
        a host, so it runs once there and its result is shared, read-only."""
        return _COEFFICIENTS((self, statistics, labels), compute)

    # ------------------------------------------------------------------
    # shape validation shared by the concrete models
    # ------------------------------------------------------------------
    def _check_params(self, features: CSRMatrix, params: np.ndarray) -> None:
        expected = self.param_shape(features.n_cols)
        if np.shape(params) != expected:
            raise DimensionMismatchError(expected, np.shape(params), "params shape")

    def _check_batch(self, features: CSRMatrix, labels, statistics) -> None:
        expected = (features.n_rows, self.statistics_width)
        if np.shape(statistics) != expected:
            raise DimensionMismatchError(expected, np.shape(statistics), "statistics shape")
        if np.shape(labels) != (features.n_rows,):
            raise DimensionMismatchError((features.n_rows,), np.shape(labels), "labels shape")

    def _rng(self, seed):
        return rng_from_seed(seed)

    def __repr__(self) -> str:
        return "{}()".format(type(self).__name__)
