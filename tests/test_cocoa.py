"""Tests for the CoCoA (distributed SDCA) extension."""

import numpy as np
import pytest

from repro.datasets import make_regression
from repro.errors import TrainingError
from repro.extensions.cocoa import CoCoATrainer
from repro.linalg.ops import row_dots
from repro.sim import CLUSTER1, SimulatedCluster


def ridge_optimum_loss(data, lam):
    dense = data.features.to_dense()
    n = data.n_rows
    gram = dense.T @ dense / n + lam * np.eye(data.n_features)
    w = np.linalg.solve(gram, dense.T @ data.labels / n)
    residual = dense @ w - data.labels
    return float(0.5 * np.mean(residual ** 2) + 0.5 * lam * np.dot(w, w))


def make_trainer(data, lam=0.1, iterations=60, workers=4, **kwargs):
    cluster = SimulatedCluster(CLUSTER1.with_workers(workers))
    trainer = CoCoATrainer(
        cluster, lam=lam, iterations=iterations, eval_every=10, seed=6,
        local_steps=120, **kwargs,
    )
    trainer.load(data)
    return trainer


class TestCoCoA:
    @pytest.fixture
    def data(self):
        return make_regression(400, 50, nnz_per_row=8, noise_std=0.05, seed=33)

    def test_primal_dual_identity_maintained(self, data):
        """``w == X^T alpha / (lam n)`` after every round: the global
        delta uses the unscaled step, sigma only inflates a worker's
        local view."""
        trainer = make_trainer(data, iterations=1)
        lam_n = trainer.lam * data.n_rows
        for t in range(8):
            trainer.run_round(t)
            reconstructed = sum(
                trainer._partitioner.shard(k).features.to_dense().T @ alphas
                for k, alphas in enumerate(trainer._alphas)
            ) / lam_n
            assert np.max(np.abs(reconstructed - trainer.current_params())) < 1e-9

    def test_converges_near_closed_form(self, data):
        lam = 0.1
        trainer = make_trainer(data, lam=lam, iterations=150)
        result = trainer.fit()
        optimum = ridge_optimum_loss(data, lam)
        assert result.final_loss() < optimum * 1.15 + 1e-9

    def test_loss_decreases_monotonically(self, data):
        trainer = make_trainer(data, iterations=80)
        result = trainer.fit()
        losses = [l for _, _, l in result.losses()]
        assert losses[-1] < 0.5 * losses[0]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_communication_scales_with_model_size(self):
        per_m = {}
        for m in (50, 500):
            data = make_regression(300, m, nnz_per_row=8, seed=34)
            trainer = make_trainer(data, iterations=2)
            result = trainer.fit()
            per_m[m] = result.records[-1].bytes_sent
        # O(m) sync — the structural opposite of ColumnSGD
        assert per_m[500] > 5 * per_m[50]

    def test_fit_without_load(self):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(TrainingError):
            CoCoATrainer(cluster).fit()

    def test_validation(self):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(ValueError):
            CoCoATrainer(cluster, lam=0.0)

    def test_system_names(self, data):
        assert make_trainer(data, iterations=2).fit().system == "CoCoA+"
