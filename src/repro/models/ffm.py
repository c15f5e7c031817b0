"""Field-aware Factorization Machine (Juan et al., RecSys 2016).

FFM extends the paper's FM (Appendix VIII-D): each feature carries one
latent vector *per field*, and the pair (i, j) interacts through
``<v_{i, field(j)}, v_{j, field(i)}>``.  It decomposes under the
statistics protocol just like FM does, with field-pair partial sums as
the statistics:

    T_{a->b,f} = sum_{j in field a} v_{j,b,f} x_j      (additive!)
    Q_{a,f}    = sum_{j in field a} v_{j,a,f}^2 x_j^2  (additive!)

    y(x) = x.w
         + sum_f sum_{a<b} T_{a->b,f} T_{b->a,f}            (cross-field)
         + 1/2 sum_f sum_a (T_{a->a,f}^2 - Q_{a,f})          (within-field)

so the statistics per example are ``s0 = x.w - 1/2 sum Q`` plus the
``A^2 F`` values ``T_{a->b,f}`` — width ``1 + A^2 F``, independent of m.

Collocation trick: each feature's *field id* is stored as a frozen
extra parameter column riding with its latent vectors, so a worker can
compute field-restricted sums from its shard + partition alone and the
:class:`~repro.models.base.StatisticsModel` interface stays unchanged.
The field column receives a zero gradient, so no optimizer ever moves
it.

Parameter layout per feature: ``[field_id, w, v_{.,0,0..F-1}, ...,
v_{.,A-1,0..F-1}]`` — shape ``(m, 2 + A*F)``.
"""

from __future__ import annotations

import numpy as np

from repro.linalg import (
    CSRMatrix,
    RowGradient,
    accumulate_rows,
    accumulate_rows_squared,
    row_dots,
    row_dots_squared,
)
from repro.models.base import StatisticsModel
from repro.models.fm import FactorizationMachine
from repro.models.losses import LogisticLoss, _sigmoid
from repro.utils.validation import check_positive

#: Standard deviation of the Gaussian initial latent vectors.
INIT_STD = 0.05


class FieldAwareFM(StatisticsModel):
    """Degree-2 FFM with logistic loss and labels in {-1, +1}.

    Parameters
    ----------
    field_of:
        Global map feature id -> field id in ``[0, n_fields)``.
    n_factors:
        Latent dimensions per (feature, field) pair.
    """

    name = "ffm"

    def __init__(self, field_of, n_factors: int = 4):
        check_positive(n_factors, "n_factors")
        field_of = np.asarray(field_of, dtype=np.int64)
        if field_of.ndim != 1 or field_of.size == 0:
            raise ValueError("field_of must be a non-empty 1-D array")
        if field_of.min() < 0:
            raise ValueError("field ids must be >= 0")
        self.field_of = field_of
        self.n_fields = int(field_of.max()) + 1
        self.n_factors = int(n_factors)
        self.statistics_width = 1 + self.n_fields ** 2 * self.n_factors
        self._loss = LogisticLoss()

    # -- parameter layout -------------------------------------------------
    def param_shape(self, n_features: int) -> tuple:
        return (n_features, 2 + self.n_fields * self.n_factors)

    def init_params(self, n_features: int, seed=None) -> np.ndarray:
        if n_features != self.field_of.size:
            raise ValueError(
                "model built for {} features, got {}".format(self.field_of.size, n_features)
            )
        rng = self._rng(seed)
        params = np.zeros(self.param_shape(n_features), dtype=np.float64)
        params[:, 0] = self.field_of.astype(np.float64)  # frozen metadata
        params[:, 2:] = rng.normal(
            0.0, INIT_STD, size=(n_features, self.n_fields * self.n_factors)
        )
        return params

    def _t_index(self, a: int, b: int, f: int) -> int:
        return 1 + (a * self.n_fields + b) * self.n_factors + f

    # -- decomposition ------------------------------------------------------
    def compute_statistics(self, features: CSRMatrix, params: np.ndarray) -> np.ndarray:
        self._check_params(features, params)
        A, F = self.n_fields, self.n_factors
        # Field-restricted sums need a per-column mask, so work on the
        # batch re-indexed to the columns it touches: the masked model
        # below has one row per touched column, not per feature.
        cols, inverse = features.touched_columns()
        batch = CSRMatrix(features.indptr, inverse, features.data, cols.size)
        local = params[cols]
        field = local[:, 0].astype(np.int64)
        in_field = (field[:, None] == np.arange(A)).astype(np.float64)  # (k, A)
        latent = local[:, 2:].reshape(cols.size, A, F)  # v_{j,b,f}
        # column (a*A + b)*F + f holds v_{j,b,f} for j in field a, else 0
        masked = np.empty((cols.size, 1 + A * A * F), dtype=np.float64)
        masked[:, 0] = local[:, 1]
        masked[:, 1:] = (latent[:, None] * in_field[:, :, None, None]).reshape(cols.size, A * A * F)
        stats = row_dots(batch, masked)  # x.w, then every T_{a->b,f}
        own = (latent * in_field[:, :, None]).reshape(cols.size, A * F)  # v_{j,a,f}, j in a
        squares = row_dots_squared(batch, own)  # Q_{a,f}
        s0 = stats[:, 0]
        for q in range(A * F):  # a outer, f inner: the pinned rounding order
            s0 -= 0.5 * squares[:, q]
        return stats

    def _raw_scores(self, statistics: np.ndarray) -> np.ndarray:
        stats = np.asarray(statistics, dtype=np.float64)
        scores = stats[:, 0].copy()
        A, F = self.n_fields, self.n_factors
        for f in range(F):
            for a in range(A):
                t_aa = stats[:, self._t_index(a, a, f)]
                scores += 0.5 * t_aa ** 2
                for b in range(a + 1, A):
                    scores += (
                        stats[:, self._t_index(a, b, f)]
                        * stats[:, self._t_index(b, a, f)]
                    )
        return scores

    #: ``c``, and ``c * T_{b->a,f}`` in column ``t_index(b, a, f)``
    coefficients = FactorizationMachine.coefficients

    def gradient_from_statistics(self, features, labels, coefficients, params):
        self._check_params(features, params)
        self._check_labels(features, labels)
        A, F = self.n_fields, self.n_factors
        c, weighted = coefficients
        sums = accumulate_rows(features, weighted)
        squares = accumulate_rows_squared(features, c, linear=sums.values[:, 0])  # sum_i c_i x_i^2
        k = sums.cols.size
        local = params[sums.cols]
        touched = np.arange(k)
        field = local[:, 0].astype(np.int64)
        # d y / d v_{j,b,f} for j in field a is x_j * T_{b->a,f}, plus the
        # within-field correction -v_{j,a,f} x_j^2 when b == a
        latent = sums.values[:, 1:].reshape(k, A, A, F)[touched, :, field]  # (k, b, f)
        latent[touched, field] -= (
            local[:, 2:].reshape(k, A, F)[touched, field] * squares.values[:, None]
        )
        values = np.empty((k, 2 + A * F), dtype=np.float64)
        values[:, 0] = 0.0  # the frozen field-id column never moves
        values[:, 1] = sums.values[:, 0]
        values[:, 2:] = latent.reshape(k, A * F)
        values[:, 1:] /= max(len(labels), 1)
        return RowGradient(sums.cols, values, params.shape)

    def loss_from_statistics(self, statistics, labels) -> float:
        labels = np.asarray(labels, dtype=np.float64)
        if labels.size == 0:
            return 0.0
        return float(np.mean(self._loss.loss(self._raw_scores(statistics), labels)))

    def predict_from_statistics(self, statistics) -> np.ndarray:
        """P(y = +1 | x)."""
        return _sigmoid(self._raw_scores(statistics))
