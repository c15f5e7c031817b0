"""The paper's decomposition identities, for every model x scheme.

These are the invariants that make ColumnSGD correct (Section II-C):

1. statistics additivity — summing per-shard partial statistics equals
   full-data statistics;
2. gradient locality — the full-batch gradient restricted to a partition
   equals the partition's gradient-from-complete-statistics;
3. loss locality — complete statistics suffice to evaluate the loss.
"""

import numpy as np
import pytest

from repro.datasets import make_classification, make_multiclass
from repro.models import (
    FactorizationMachine,
    HuberRegression,
    LeastSquares,
    LinearSVM,
    LogisticRegression,
    MultinomialLogisticRegression,
    SmoothSVM,
)
from repro.partition import make_assignment


def all_models():
    return [
        LogisticRegression(),
        LinearSVM(),
        LeastSquares(),
        SmoothSVM(),
        HuberRegression(),
        MultinomialLogisticRegression(n_classes=3),
        FactorizationMachine(n_factors=3),
    ]


def data_for(model, seed=0):
    if model.name == "mlr":
        return make_multiclass(60, 24, n_classes=3, nnz_per_row=6, seed=seed)
    return make_classification(
        60, 24, nnz_per_row=6, binary_features=False, seed=seed
    )


def params_for(model, n_features, seed=0):
    rng = np.random.default_rng(seed)
    params = model.init_params(n_features, seed=seed).astype(np.float64)
    params += rng.normal(size=params.shape) * 0.3
    return params


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
@pytest.mark.parametrize("scheme", ["round_robin", "range", "hash"])
@pytest.mark.parametrize("n_workers", [2, 3, 5])
class TestDecomposition:
    def test_statistics_additive_across_shards(self, model, scheme, n_workers):
        data = data_for(model)
        params = params_for(model, data.n_features)
        assignment = make_assignment(scheme, data.n_features, n_workers)

        full = model.compute_statistics(data.features, params)
        partial_sum = None
        for k in range(n_workers):
            cols = assignment.columns_of(k)
            shard = data.features.select_columns(cols)
            part = model.compute_statistics(shard, params[cols])
            partial_sum = part if partial_sum is None else partial_sum + part
        assert np.allclose(full, partial_sum, atol=1e-10)

    def test_gradient_recoverable_per_partition(self, model, scheme, n_workers):
        data = data_for(model)
        params = params_for(model, data.n_features)
        assignment = make_assignment(scheme, data.n_features, n_workers)

        full_stats = model.compute_statistics(data.features, params)
        coefficients = model.coefficients(full_stats, data.labels)
        full_grad = model.gradient_from_statistics(
            data.features, data.labels, coefficients, params
        ).to_dense()
        for k in range(n_workers):
            cols = assignment.columns_of(k)
            shard = data.features.select_columns(cols)
            local_grad = model.gradient_from_statistics(
                shard, data.labels, coefficients, params[cols]
            ).to_dense()
            assert np.allclose(full_grad[cols], local_grad, atol=1e-10)


@pytest.mark.parametrize("model", all_models(), ids=lambda m: m.name)
class TestLossFromStatistics:
    def test_loss_equals_direct_evaluation(self, model):
        data = data_for(model, seed=1)
        params = params_for(model, data.n_features, seed=1)
        stats = model.compute_statistics(data.features, params)
        from_stats = model.loss_from_statistics(stats, data.labels)
        direct = model.loss(data.features, data.labels, params)
        assert from_stats == pytest.approx(direct)

    def test_empty_batch_loss_is_zero(self, model):
        data = data_for(model)
        params = params_for(model, data.n_features)
        stats = np.zeros((0, model.statistics_width))
        assert model.loss_from_statistics(stats, np.zeros(0)) == 0.0

    def test_predictions_shape(self, model):
        data = data_for(model, seed=2)
        params = params_for(model, data.n_features, seed=2)
        preds = model.predict(data.features, params)
        assert preds.shape == (data.n_rows,)
