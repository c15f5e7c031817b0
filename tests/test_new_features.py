"""Tests for the feature batch: held-out eval tracking,
kill_worker (footnote 6), k-fold CV, warmup schedule, phase breakdown."""

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.errors import StatisticsRecoveryError
from repro.metrics import k_fold, train_test_split
from repro.models import LogisticRegression
from repro.optim import SGD, WarmupSchedule
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


class TestKFold:
    def test_folds_cover_everything_once(self, tiny_binary):
        seen = 0
        for train, val in k_fold(tiny_binary, k=5, seed=3):
            assert train.n_rows + val.n_rows == tiny_binary.n_rows
            seen += val.n_rows
        assert seen == tiny_binary.n_rows

    def test_fold_sizes_balanced(self, tiny_binary):
        sizes = [val.n_rows for _, val in k_fold(tiny_binary, k=7, seed=3)]
        assert max(sizes) - min(sizes) <= 1

    def test_validation_rows_disjoint(self, tiny_binary):
        # without shuffle, folds are contiguous ranges -> verify label
        # sequences reassemble the original
        vals = [val for _, val in k_fold(tiny_binary, k=4, shuffle=False)]
        rebuilt = np.concatenate([v.labels for v in vals])
        assert np.array_equal(rebuilt, tiny_binary.labels)

    def test_validation(self, tiny_binary):
        with pytest.raises(ValueError):
            list(k_fold(tiny_binary, k=1))
        with pytest.raises(ValueError):
            list(k_fold(tiny_binary.slice(0, 3), k=5))


class TestWarmupSchedule:
    def test_ramp(self):
        sched = WarmupSchedule(10, start_factor=0.2)
        assert sched.factor(0) == pytest.approx(0.2)
        assert sched.factor(5) == pytest.approx(0.6)
        assert sched.factor(10) == 1.0
        assert sched.factor(100) == 1.0

    def test_composes_with_decay(self):
        from repro.optim import StepDecaySchedule

        sched = WarmupSchedule(4, after=StepDecaySchedule(step_size=10, gamma=0.5))
        assert sched.factor(4) == 1.0
        assert sched.factor(14) == 0.5  # 10 post-warmup iterations

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupSchedule(0)
        with pytest.raises(ValueError):
            WarmupSchedule(5, start_factor=0.0)

    def test_usable_in_sgd(self, tiny_binary):
        from repro.core import train_columnsgd

        cluster = SimulatedCluster(CLUSTER1.with_workers(2))
        result = train_columnsgd(
            tiny_binary, LogisticRegression(),
            SGD(1.0, schedule=WarmupSchedule(5)), cluster,
            batch_size=32, iterations=10, eval_every=10, block_size=64,
        )
        assert result.final_loss() < np.log(2)


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
