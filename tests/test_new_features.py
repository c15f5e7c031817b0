"""Tests for the feature batch: held-out eval tracking,
kill_worker (footnote 6), k-fold CV, warmup schedule, phase breakdown."""

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.errors import StatisticsRecoveryError
from repro.metrics import train_test_split
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.sim import CLUSTER1, SimulatedCluster


class TestHeldOutEval:
    def test_eval_losses_tracked(self, small_binary):
        train, test = train_test_split(small_binary, test_fraction=0.3, seed=1)
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(1.0), cluster,
            config=ColumnSGDConfig(batch_size=100, iterations=30,
                                   eval_every=10, block_size=256),
        )
        driver.load(train)
        result = driver.fit(eval_dataset=test)
        evals = result.eval_losses()
        assert len(evals) == len(result.losses())
        # held-out loss also improves on this easy problem
        assert evals[-1][2] < evals[0][2]

    def test_no_eval_dataset_means_no_eval_losses(self, tiny_binary):
        from repro.core import train_columnsgd

        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        result = train_columnsgd(
            tiny_binary, LogisticRegression(), SGD(0.5), cluster,
            batch_size=32, iterations=4, eval_every=2, block_size=64,
        )
        assert result.eval_losses() == []


class TestKillWorker:
    def make_driver(self, data, backup):
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        config = ColumnSGDConfig(batch_size=32, iterations=6, eval_every=0,
                                 seed=2, block_size=64, backup=backup)
        driver = ColumnSGDDriver(LogisticRegression(), SGD(0.5), cluster, config)
        driver.load(data)
        return driver

    def test_kill_with_backup_stays_exact(self, tiny_binary):
        """Footnote 6: kill a permanent straggler; replicas carry on and
        the trajectory is unchanged."""
        clean = self.make_driver(tiny_binary, backup=1)
        clean_result = clean.fit()
        killed = self.make_driver(tiny_binary, backup=1)
        killed.kill_worker(1)
        killed_result = killed.fit()
        assert np.allclose(
            clean_result.final_params, killed_result.final_params, atol=1e-12
        )

    def test_kill_without_backup_is_unrecoverable(self, tiny_binary):
        driver = self.make_driver(tiny_binary, backup=0)
        driver.kill_worker(1)
        with pytest.raises(StatisticsRecoveryError):
            driver.fit()

    def test_kill_validates_id(self, tiny_binary):
        driver = self.make_driver(tiny_binary, backup=0)
        with pytest.raises(ValueError):
            driver.kill_worker(9)


class TestPhaseBreakdown:
    def test_phases_sum_to_duration(self, tiny_binary):
        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(0.5), cluster,
            config=ColumnSGDConfig(batch_size=32, iterations=1, eval_every=0,
                                   block_size=64),
        )
        driver.load(tiny_binary)
        outcome = driver.run_round(0)
        duration, phases = outcome.duration, outcome.phase_seconds
        assert set(phases) == {
            "compute_statistics", "gather", "reduce", "broadcast", "update_model"
        }
        assert sum(phases.values()) == pytest.approx(duration)
