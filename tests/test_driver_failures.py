"""Fault tolerance in the driver (Section X / Fig 13)."""

import numpy as np
import pytest

from repro.core import ColumnSGDConfig, ColumnSGDDriver
from repro.errors import MasterFailedError
from repro.models import LogisticRegression
from repro.optim import SGD
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.sim import CLUSTER1, SimulatedCluster


def fault(iteration, kind, worker=None):
    return FaultSchedule([FaultEvent(iteration, kind, worker)])


def run(data, failures=None, backup=0, iterations=30, workers=4):
    cluster = SimulatedCluster(CLUSTER1.with_workers(workers))
    config = ColumnSGDConfig(
        batch_size=64, iterations=iterations, eval_every=2, seed=9,
        block_size=64, backup=backup,
    )
    driver = ColumnSGDDriver(
        LogisticRegression(), SGD(1.0), cluster, config=config, failures=failures
    )
    driver.load(data)
    return driver, driver.fit()


class TestTaskFailure:
    def test_task_failure_barely_costs(self, small_binary):
        _, clean = run(small_binary)
        _, failed = run(small_binary, fault(10, FaultKind.TASK, 1))
        # one extra task launch over the whole run
        assert failed.total_sim_time - clean.total_sim_time < 0.1
        assert failed.total_sim_time > clean.total_sim_time

    def test_task_failure_does_not_change_numerics(self, small_binary):
        """Fig 13(a): convergence unaffected by task failure."""
        _, clean = run(small_binary)
        _, failed = run(small_binary, fault(10, FaultKind.TASK, 1))
        assert np.allclose(clean.final_params, failed.final_params, atol=1e-12)


class TestWorkerFailure:
    def test_worker_failure_spikes_then_recovers(self, small_binary):
        """Fig 13(b): the loss jumps when a model partition is zeroed,
        then SGD re-converges."""
        _, clean = run(small_binary)
        _, failed = run(small_binary, fault(14, FaultKind.WORKER, 2))
        clean_losses = dict((it, loss) for it, _, loss in clean.losses())
        failed_losses = dict((it, loss) for it, _, loss in failed.losses())
        # loss right after the failure is worse than the clean run's
        after = min(it for it in failed_losses if it >= 14)
        assert failed_losses[after] > clean_losses[after]
        # ... but training continues and ends below the initial loss
        assert failed_losses[max(failed_losses)] < failed_losses[-1]

    def test_worker_failure_costs_reload_time(self, small_binary):
        _, clean = run(small_binary)
        _, failed = run(small_binary, fault(14, FaultKind.WORKER, 2))
        assert failed.total_sim_time > clean.total_sim_time

    def test_worker_failure_with_backup_loses_nothing(self, small_binary):
        """With a replica, the model partition survives the crash."""
        _, clean = run(small_binary, backup=1)
        _, failed = run(
            small_binary, fault(14, FaultKind.WORKER, 2), backup=1
        )
        assert np.allclose(clean.final_params, failed.final_params, atol=1e-9)

    def test_training_continues_after_failure(self, small_binary):
        _, failed = run(small_binary, fault(5, FaultKind.WORKER, 0))
        assert failed.n_iterations >= 30


class TestMasterFailure:
    def test_master_failure_aborts(self, small_binary):
        injector = fault(3, FaultKind.MASTER)
        cluster = SimulatedCluster(CLUSTER1.with_workers(4))
        config = ColumnSGDConfig(batch_size=32, iterations=10, block_size=64)
        driver = ColumnSGDDriver(
            LogisticRegression(), SGD(0.5), cluster, config=config, failures=injector
        )
        driver.load(small_binary)
        with pytest.raises(MasterFailedError):
            driver.fit()
