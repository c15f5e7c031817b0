"""Tests for the column-partitioned MLP extension (Section III-C)."""

import numpy as np
import pytest

from repro.datasets import Dataset
from repro.extensions import ColumnMLP, MLPColumnTrainer, SequentialMLP
from repro.linalg import CSRMatrix
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster


def xor_like_dataset(n_rows=600, seed=0):
    """A dataset a linear model cannot fit: XOR over two dense features
    embedded in a sparse space."""
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], size=(n_rows, 2))
    labels = np.where(x[:, 0] * x[:, 1] > 0, 1.0, -1.0)
    noise = rng.normal(0, 0.1, size=(n_rows, 6))
    dense = np.column_stack([x, noise])
    return Dataset(CSRMatrix.from_dense(dense), labels, name="xor")


class TestColumnMLPMath:
    def test_statistics_additive_over_column_shards(self, tiny_gaussian):
        model = ColumnMLP(hidden=4)
        w1 = model.init_w1(tiny_gaussian.n_features, seed=1)
        full = model.partial_statistics(tiny_gaussian.features, w1)
        cols_a = np.arange(0, tiny_gaussian.n_features, 2)
        cols_b = np.arange(1, tiny_gaussian.n_features, 2)
        part = model.partial_statistics(
            tiny_gaussian.features.select_columns(cols_a), w1[cols_a]
        ) + model.partial_statistics(
            tiny_gaussian.features.select_columns(cols_b), w1[cols_b]
        )
        assert np.allclose(full, part, atol=1e-10)

    def test_gradients_match_finite_differences(self):
        data = xor_like_dataset(50, seed=2)
        model = ColumnMLP(hidden=3)
        w1 = model.init_w1(data.n_features, seed=3)
        head = model.init_head(seed=3)

        def loss_at(w1_, head_):
            z = model.partial_statistics(data.features, w1_)
            return model.loss_from_statistics(z, data.labels, head_)

        z = model.partial_statistics(data.features, w1)
        a, c, delta = model.backward(z, data.labels, head)
        grad_w1 = model.w1_gradient(data.features, delta, data.n_rows).to_dense()
        head_grads = model.head_gradients(a, c, delta, data.n_rows)

        eps = 1e-6
        # W1 entries
        for idx in [(0, 0), (1, 2), (5, 1)]:
            up = w1.copy(); up[idx] += eps
            down = w1.copy(); down[idx] -= eps
            numeric = (loss_at(up, head) - loss_at(down, head)) / (2 * eps)
            assert grad_w1[idx] == pytest.approx(numeric, abs=1e-6)
        # head entries
        for key in ("w2", "b1", "b2"):
            for i in range(head[key].size):
                up = {k: v.copy() for k, v in head.items()}
                down = {k: v.copy() for k, v in head.items()}
                up[key][i] += eps
                down[key][i] -= eps
                numeric = (loss_at(w1, up) - loss_at(w1, down)) / (2 * eps)
                assert head_grads[key][i] == pytest.approx(numeric, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ColumnMLP(hidden=0)


class TestDistributedMLP:
    def test_matches_sequential_reference(self, tiny_gaussian):
        model = ColumnMLP(hidden=4)
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        trainer = MLPColumnTrainer(
            model, SGD(0.1), cluster, batch_size=32, iterations=10,
            eval_every=0, seed=7, block_size=64,
        )
        trainer.load(tiny_gaussian)
        trainer.fit()

        reference = SequentialMLP(ColumnMLP(hidden=4), SGD(0.1),
                                  tiny_gaussian.n_features, seed=7)
        index = trainer._index
        for t in range(10):
            rows = index.to_global_rows(index.sample(t, 32))
            batch = tiny_gaussian.take(rows)
            reference.step(batch.features, batch.labels, t)

        assert np.allclose(trainer.current_w1(), reference.w1, atol=1e-9)
        for key in ("w2", "b1", "b2"):
            assert np.allclose(trainer.head()[key], reference.head[key], atol=1e-9)

    def test_solves_xor_where_lr_cannot(self):
        data = xor_like_dataset(600, seed=4)
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        trainer = MLPColumnTrainer(
            ColumnMLP(hidden=8), SGD(0.5), cluster, batch_size=128,
            iterations=400, eval_every=50, seed=4, block_size=128,
        )
        trainer.load(data)
        result = trainer.fit()
        assert result.final_loss() < 0.3  # LR stalls at ~log(2)=0.69

        from repro.core import train_columnsgd
        from repro.models import LogisticRegression

        lr_result = train_columnsgd(
            data, LogisticRegression(), SGD(0.5),
            SimulatedCluster(CLUSTER1.with_workers(2)),
            batch_size=128, iterations=400, eval_every=50, seed=4, block_size=128,
        )
        assert lr_result.final_loss() > 0.6

    def test_statistics_traffic_is_batch_times_hidden(self, tiny_gaussian):
        hidden_sizes = (2, 8)
        traffic = {}
        for hidden in hidden_sizes:
            cluster = SimulatedCluster(CLUSTER1.with_workers(4))
            trainer = MLPColumnTrainer(
                ColumnMLP(hidden=hidden), SGD(0.1), cluster, batch_size=32,
                iterations=3, eval_every=0, seed=1, block_size=64,
            )
            trainer.load(tiny_gaussian)
            result = trainer.fit()
            traffic[hidden] = result.records[-1].bytes_sent
        assert traffic[8] > 3 * traffic[2]

    def test_fit_without_load_raises(self):
        from repro.errors import TrainingError

        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        trainer = MLPColumnTrainer(ColumnMLP(hidden=2), SGD(0.1), cluster)
        with pytest.raises(TrainingError):
            trainer.fit()
