"""Tests for the distributed coordinate-descent extension."""

import numpy as np
import pytest

from repro.datasets import make_regression
from repro.errors import TrainingError
from repro.extensions import RidgeCDTrainer
from repro.linalg.ops import row_dots
from repro.partition.column import make_assignment
from repro.partition.dispatch import dispatch_block_based
from repro.sim import CLUSTER1, SimulatedCluster


def ridge_solution(data, lam):
    """Closed-form (X^T X / N + lam I)^-1 X^T y / N."""
    dense = data.features.to_dense()
    n = data.n_rows
    gram = dense.T @ dense / n + lam * np.eye(data.n_features)
    return np.linalg.solve(gram, dense.T @ data.labels / n)


def make_trainer(data, lam=0.1, iterations=60, workers=4, **kwargs):
    cluster = SimulatedCluster(CLUSTER1.with_workers(workers))
    trainer = RidgeCDTrainer(
        cluster, lam=lam, iterations=iterations, eval_every=10,
        seed=5, **kwargs,
    )
    trainer.load(data)
    return trainer


class TestRidgeCD:
    @pytest.fixture
    def data(self):
        # more rows than two dispatch blocks: the resident shards are
        # stitched from several blocks, one of them short
        return make_regression(4500, 60, nnz_per_row=8, noise_std=0.05, seed=30)

    def test_residual_invariant_every_round(self, data):
        """r == X w - y exactly after every sync, despite staleness."""
        _, block_sizes, _ = dispatch_block_based(
            data, make_assignment("round_robin", data.n_features, 4),
            SimulatedCluster(CLUSTER1.with_workers(4)),
        )
        assert len(block_sizes) > 2
        trainer = make_trainer(data, iterations=1)
        for t in range(10):
            trainer.run_round(t)
            w = trainer.current_params()
            expected = row_dots(data.features, w) - data.labels
            assert np.allclose(trainer.residual(), expected, atol=1e-9)

    def test_converges_near_closed_form(self, data):
        lam = 0.1
        trainer = make_trainer(data, lam=lam, iterations=120)
        result = trainer.fit()
        w_star = ridge_solution(data, lam)
        optimal = float(
            0.5 * np.mean((row_dots(data.features, w_star) - data.labels) ** 2)
            + 0.5 * lam * np.dot(w_star, w_star)
        )
        assert result.final_loss() < optimal * 1.1 + 1e-9

    def test_loss_monotone_decreasing(self, data):
        trainer = make_trainer(data, iterations=80)
        result = trainer.fit()
        losses = [l for _, _, l in result.losses()]
        assert losses[-1] < 0.5 * losses[0]
        # each evaluation is no worse than the previous (tiny tolerance)
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_plain_least_squares(self, data):
        trainer = make_trainer(data, lam=0.0, iterations=120)
        result = trainer.fit()
        assert result.final_loss() < 0.2 * 0.5 * float(np.mean(data.labels ** 2))

    def test_communication_scales_with_n_not_batch(self, data):
        """CD's sync is O(N) — the structural contrast with ColumnSGD."""
        trainer = make_trainer(data, iterations=3)
        result = trainer.fit()
        per_round = result.records[-1].bytes_sent
        # 2K messages of ~N float64 each
        assert per_round > 2 * 4 * data.n_rows * 8

    def test_evaluate_on_other_dataset(self, data):
        trainer = make_trainer(data, iterations=20)
        trainer.fit()
        holdout = make_regression(100, 60, nnz_per_row=8, seed=31)
        assert np.isfinite(trainer.evaluate_loss(holdout))

    def test_fit_without_load(self):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(TrainingError):
            RidgeCDTrainer(cluster).fit()

    def test_coords_per_round_respected(self, data):
        trainer = make_trainer(data, iterations=1)
        before = trainer.current_params().copy()
        trainer.run_round(0)
        changed = np.sum(trainer.current_params() != before)
        assert 0 < changed <= 4 * (data.n_features // 4 // 4)  # 1/4 per worker

    def test_validation(self):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        with pytest.raises(ValueError):
            RidgeCDTrainer(cluster, lam=-1.0)
