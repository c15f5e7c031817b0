"""Tests for the deep column-partitioned MLP extension."""

import numpy as np
import pytest

from repro.extensions import DeepColumnMLP, DeepMLPColumnTrainer, SequentialDeepMLP
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster
from tests.test_extensions_mlp import xor_like_dataset


class TestDeepColumnMLPMath:
    def test_statistics_additive(self, tiny_gaussian):
        model = DeepColumnMLP([4, 3])
        w1 = model.init_w1(tiny_gaussian.n_features, seed=1)
        cols_a = np.arange(0, tiny_gaussian.n_features, 2)
        cols_b = np.arange(1, tiny_gaussian.n_features, 2)
        full = model.partial_statistics(tiny_gaussian.features, w1)
        part = model.partial_statistics(
            tiny_gaussian.features.select_columns(cols_a), w1[cols_a]
        ) + model.partial_statistics(
            tiny_gaussian.features.select_columns(cols_b), w1[cols_b]
        )
        assert np.allclose(full, part, atol=1e-10)

    def test_gradients_match_finite_differences(self):
        data = xor_like_dataset(40, seed=5)
        model = DeepColumnMLP([3, 2])
        w1 = model.init_w1(data.n_features, seed=6)
        tail = model.init_tail(seed=6)

        def loss_at(w1_, tail_):
            z = model.partial_statistics(data.features, w1_)
            return model.loss_from_statistics(z, data.labels, tail_)

        z = model.partial_statistics(data.features, w1)
        tail_grads, delta1 = model.backward(z, data.labels, tail)
        grad_w1 = model.w1_gradient(data.features, delta1, data.n_rows).to_dense()

        eps = 1e-6
        for idx in [(0, 0), (3, 2), (7, 1)]:
            up = w1.copy(); up[idx] += eps
            down = w1.copy(); down[idx] -= eps
            numeric = (loss_at(up, tail) - loss_at(down, tail)) / (2 * eps)
            assert grad_w1[idx] == pytest.approx(numeric, abs=1e-6)
        for key, grad in tail_grads.items():
            flat = tail[key].reshape(-1)
            flat_grad = grad.reshape(-1)
            for i in range(min(flat.size, 4)):
                up = {k: v.copy() for k, v in tail.items()}
                down = {k: v.copy() for k, v in tail.items()}
                up[key].reshape(-1)[i] += eps
                down[key].reshape(-1)[i] -= eps
                numeric = (loss_at(w1, up) - loss_at(w1, down)) / (2 * eps)
                assert flat_grad[i] == pytest.approx(numeric, abs=1e-6), key

    def test_single_layer_matches_shallow_structure(self):
        """With one hidden layer, the tail is just (b1, w_out, b_out)."""
        model = DeepColumnMLP([5])
        tail = model.init_tail(seed=0)
        assert set(tail) == {"b1", "w_out", "b_out"}
        assert model.statistics_width == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            DeepColumnMLP([])
        with pytest.raises(ValueError):
            DeepColumnMLP([4, 0])


class TestDistributedDeepMLP:
    def test_matches_sequential_reference(self, tiny_gaussian):
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        trainer = DeepMLPColumnTrainer(
            DeepColumnMLP([4, 3]), SGD(0.1), cluster, batch_size=32,
            iterations=10, eval_every=0, seed=8, block_size=64,
        )
        trainer.load(tiny_gaussian)
        trainer.fit()

        reference = SequentialDeepMLP(
            DeepColumnMLP([4, 3]), SGD(0.1), tiny_gaussian.n_features, seed=8
        )
        index = trainer._index
        for t in range(10):
            rows = index.to_global_rows(index.sample(t, 32))
            batch = tiny_gaussian.take(rows)
            reference.step(batch.features, batch.labels, t)

        assert np.allclose(trainer.current_w1(), reference.w1, atol=1e-9)
        for key in reference.tail:
            assert np.allclose(trainer.tail()[key], reference.tail[key], atol=1e-9)

    def test_deeper_net_solves_xor(self):
        data = xor_like_dataset(600, seed=9)
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        trainer = DeepMLPColumnTrainer(
            DeepColumnMLP([8, 4]), SGD(0.5), cluster, batch_size=128,
            iterations=400, eval_every=100, seed=9, block_size=128,
        )
        trainer.load(data)
        result = trainer.fit()
        assert result.final_loss() < 0.3

    def test_statistics_width_is_first_layer_only(self, tiny_gaussian):
        """Adding tail layers must NOT increase communication."""
        traffic = {}
        for sizes in ([4], [4, 8, 8]):
            cluster = SimulatedCluster(CLUSTER1.with_workers(4))
            trainer = DeepMLPColumnTrainer(
                DeepColumnMLP(sizes), SGD(0.1), cluster, batch_size=32,
                iterations=3, eval_every=0, seed=1, block_size=64,
            )
            trainer.load(tiny_gaussian)
            result = trainer.fit()
            traffic[tuple(sizes)] = result.records[-1].bytes_sent
        assert traffic[(4,)] == traffic[(4, 8, 8)]

    def test_fit_without_load(self):
        from repro.errors import TrainingError

        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        trainer = DeepMLPColumnTrainer(DeepColumnMLP([2]), SGD(0.1), cluster)
        with pytest.raises(TrainingError):
            trainer.fit()
