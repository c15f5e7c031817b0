"""Tests for the Field-aware FM extension."""

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.datasets import make_classification
from repro.models.ffm import FieldAwareFM
from repro.optim import SGD, Adam
from repro.partition import make_assignment
from repro.sim import CLUSTER1, SimulatedCluster
from tests.test_models import finite_difference_gradient


def small_setup(n_features=12, n_fields=3, seed=40):
    rng = np.random.default_rng(seed)
    field_of = rng.integers(0, n_fields, size=n_features)
    field_of[:n_fields] = np.arange(n_fields)  # every field populated
    data = make_classification(
        40, n_features, nnz_per_row=5, binary_features=False, seed=seed
    )
    model = FieldAwareFM(field_of, n_factors=2)
    params = model.init_params(n_features, seed=seed)
    params[:, 2:] += rng.normal(0, 0.1, size=params[:, 2:].shape)
    return data, model, params


class TestFFMMath:
    def test_raw_score_matches_pairwise_definition(self):
        """Equation check: statistics-based score equals the explicit
        sum over feature pairs <v_{i,field(j)}, v_{j,field(i)}> x_i x_j."""
        data, model, params = small_setup()
        stats = model.compute_statistics(data.features, params)
        scores = model._raw_scores(stats)
        dense = data.features.to_dense()
        fields = model.field_of
        w = params[:, 1]
        m = data.n_features
        for i in range(8):
            x = dense[i]
            expected = float(np.dot(w, x))
            for p in range(m):
                for q in range(p + 1, m):
                    v_p = params[p, 2 + fields[q] * 2: 2 + fields[q] * 2 + 2]
                    v_q = params[q, 2 + fields[p] * 2: 2 + fields[p] * 2 + 2]
                    expected += float(np.dot(v_p, v_q)) * x[p] * x[q]
            assert scores[i] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_gradient_matches_finite_difference(self):
        data, model, params = small_setup()
        grad = model.gradient(data.features, data.labels, params)
        numeric = finite_difference_gradient(model, data.features, data.labels, params)
        # column 0 is frozen metadata: its analytic gradient is zero by
        # construction, and the numeric one is meaningless there
        assert np.all(grad[:, 0] == 0.0)
        assert np.allclose(grad[:, 1:], numeric[:, 1:], atol=1e-5)

    def test_steps_keep_field_column_frozen(self):
        data, _, _ = small_setup()
        rng = np.random.default_rng(0)
        field_of = rng.integers(0, 3, size=12)
        model = FieldAwareFM(field_of, n_factors=2)
        params = model.init_params(12, seed=1)
        optimizer = Adam(0.1)  # moves every row it is given, every step
        for _ in range(3):
            optimizer.step(params, model.gradient(data.features, data.labels, params))
        assert np.array_equal(params[:, 0], field_of.astype(np.float64))

    def test_statistics_additive_across_column_shards(self):
        data, model, params = small_setup()
        asg = make_assignment("round_robin", data.n_features, 3)
        full = model.compute_statistics(data.features, params)
        partial = sum(
            model.compute_statistics(
                data.features.select_columns(asg.columns_of(k)),
                params[asg.columns_of(k)],
            )
            for k in range(3)
        )
        assert np.allclose(full, partial, atol=1e-10)

    def test_gradient_recoverable_per_partition(self):
        data, model, params = small_setup()
        asg = make_assignment("hash", data.n_features, 3)
        stats = model.compute_statistics(data.features, params)
        coefficients = model.coefficients(stats, data.labels)
        full_grad = model.gradient_from_statistics(
            data.features, data.labels, coefficients, params
        ).to_dense()
        for k in range(3):
            cols = asg.columns_of(k)
            local = model.gradient_from_statistics(
                data.features.select_columns(cols), data.labels, coefficients, params[cols]
            ).to_dense()
            assert np.allclose(full_grad[cols], local, atol=1e-10)

    def test_statistics_width(self):
        _, model, _ = small_setup(n_fields=3)
        assert model.statistics_width == 1 + 9 * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FieldAwareFM(np.array([0, 1]), n_factors=0)
        with pytest.raises(ValueError):
            FieldAwareFM(np.array([-1, 0]))
        model = FieldAwareFM(np.array([0, 1, 1]))
        with pytest.raises(ValueError, match="features"):
            model.init_params(5)


class TestFFMTraining:
    def test_training_reduces_loss(self):
        data, model, _ = small_setup(n_features=20, seed=41)
        params = model.init_params(20, seed=41)
        initial = model.loss(data.features, data.labels, params)
        for t in range(150):
            params -= 0.2 * model.gradient(data.features, data.labels, params)
        assert model.loss(data.features, data.labels, params) < initial
        # the field column never moved
        assert np.array_equal(params[:, 0], model.field_of.astype(float))

    def test_distributed_exactness(self, tiny_gaussian):
        rng = np.random.default_rng(42)
        field_of = rng.integers(0, 3, size=tiny_gaussian.n_features)
        finals = []
        for k in (1, 4):
            model = FieldAwareFM(field_of, n_factors=2)
            cluster = SimulatedCluster(CLUSTER1.with_workers(k))
            config = ColumnSGDConfig(batch_size=32, iterations=8, eval_every=0,
                                     seed=9, block_size=64)
            driver = ColumnSGDDriver(model, SGD(0.05), cluster, config)
            driver.load(tiny_gaussian)
            finals.append(driver.fit().final_params)
        assert np.allclose(finals[0], finals[1], atol=1e-9)

    def test_ffm_beats_linear_on_field_interactions(self):
        """Labels driven by a cross-field product: FFM captures it."""
        rng = np.random.default_rng(43)
        n, m = 1200, 12
        field_of = np.array([0] * 6 + [1] * 6)
        dense = rng.normal(size=(n, m))
        labels = np.where(dense[:, 0] * dense[:, 6] > 0, 1.0, -1.0)
        from repro.datasets import Dataset
        from repro.linalg import CSRMatrix

        data = Dataset(CSRMatrix.from_dense(dense), labels, name="cross")
        model = FieldAwareFM(field_of, n_factors=2)
        params = model.init_params(m, seed=2)
        for t in range(400):
            params -= 0.1 * model.gradient(data.features, data.labels, params)
        final = model.loss(data.features, data.labels, params)
        assert final < 0.4  # LR would stall near log(2)=0.69

    def test_predictions_are_probabilities(self):
        data, model, params = small_setup()
        probs = model.predict(data.features, params)
        assert np.all((probs >= 0) & (probs <= 1))
